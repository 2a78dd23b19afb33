//! Steady-state allocation regression tests.
//!
//! The kernel overhaul's zero-alloc claim: once a machine is warmed — event
//! wheel buckets sized, workload op queues filled, scheduler scratch grown —
//! the hot loop (event dispatch, cache access, snoop filtering, scheduling,
//! invariant checking on clean runs) performs no heap allocation. A counting
//! `#[global_allocator]` measures a >= 10k-event window on the 16-CPU OLTP
//! reference machine; the budget tolerates only the rare amortized regrowth
//! of long-lived containers (a workload op queue crossing its previous
//! capacity, a cold wheel bucket's first use), not per-event or per-decision
//! churn, which would cost thousands of allocations in a window this size.
//!
//! The snapshot path carries the same discipline: encode must fit the
//! up-front capacity seed (no doubling regrowth of a multi-megabyte buffer),
//! and forking a decoded template must cost a small fraction of a full
//! restore — the copy-on-write fork is the point of the snapshot work.
//!
//! These tests live in their own integration-test binary because a global
//! allocator is per-binary; they additionally serialize on a mutex because
//! the test harness runs them on concurrent threads and the counters are
//! process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use mtvar_core::runspace::{Executor, RunPlan, RunProgress};
use mtvar_sim::config::MachineConfig;
use mtvar_sim::machine::Machine;
use mtvar_workloads::profile::ProfiledWorkload;
use mtvar_workloads::Benchmark;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
/// Largest single request since it was last reset.
static LARGEST_ALLOCATION: AtomicU64 = AtomicU64::new(0);

/// Serializes the tests in this binary: the counters above are
/// process-global, and the harness runs `#[test]`s concurrently.
static SERIAL: Mutex<()> = Mutex::new(());

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    LARGEST_ALLOCATION.fetch_max(bytes as u64, Ordering::Relaxed);
}

// SAFETY: defers entirely to `System`; the counters are relaxed atomics.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Regrowth is exactly what this test hunts; count it like an alloc.
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // Fresh cache line arrays are calloc-backed; count those
        // allocations the same as the rest so the fork-vs-restore budget
        // below measures them faithfully.
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn counters() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    )
}

fn warmed_reference_machine() -> Machine<mtvar_workloads::profile::ProfiledWorkload> {
    let cfg = MachineConfig::hpca2003().with_perturbation(4, 1);
    let mut machine = Machine::new(cfg, Benchmark::Oltp.workload(16, 42)).expect("machine");
    machine.enable_invariant_checks();
    machine.run_transactions(300).expect("warmup");
    machine
}

#[test]
fn warmed_machine_runs_ten_thousand_events_without_allocating() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The bench's reference machine, with the invariant monitor on so the
    // coherence-check path is included in the zero-alloc claim.
    let mut machine = warmed_reference_machine();

    let events_before = machine.events_posted();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    machine.run_transactions(60).expect("measured window");
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    let events = machine.events_posted() - events_before;

    assert!(
        events >= 10_000,
        "window too small to be meaningful: {events} events"
    );
    assert!(
        allocs <= 64,
        "steady state allocated {allocs} times over {events} events; \
         the hot path has regressed to per-event allocation"
    );
}

#[test]
fn snapshot_encode_fits_its_capacity_seed() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let machine = warmed_reference_machine();

    // The capacity seed (the sum of every component's `snap_size_hint`)
    // must cover the whole payload. If this inequality breaks, encode
    // regrows the buffer mid-snapshot and the allocation budget below
    // breaks with it.
    let seed = machine.snapshot_size_hint();
    let (allocs_before, _) = counters();
    let ck = machine.snapshot();
    let (allocs_after, _) = counters();
    assert!(
        ck.len() <= seed,
        "payload ({} bytes) outgrew the capacity seed ({seed} bytes): \
         encode is regrowing mid-snapshot",
        ck.len()
    );

    // Encoding allocates the payload buffer and the sorted event list — a
    // fixed handful, independent of machine size. Doubling growth of a
    // warmed 16-CPU payload from empty would cost ~10 reallocs on its own
    // and fail this budget.
    let allocs = allocs_after - allocs_before;
    assert!(
        allocs <= 16,
        "snapshot encode allocated {allocs} times; the capacity seed has \
         stopped covering the payload"
    );
}

#[test]
fn forking_a_template_is_far_cheaper_than_restoring() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let machine = warmed_reference_machine();
    let ck = machine.snapshot();

    // Start from a cold decode arena: this test compares a *full* restore
    // against a fork, and a pooled line buffer would make the restore look
    // nearly free (which is the point of the arena, and exactly what the
    // budget test below asserts — but it would invalidate this ratio).
    mtvar_sim::mem::arena::clear();

    let (restore_allocs_0, restore_bytes_0) = counters();
    let template: Machine<mtvar_workloads::profile::ProfiledWorkload> =
        Machine::restore(&ck).expect("restore");
    let (restore_allocs_1, restore_bytes_1) = counters();
    let restore_allocs = restore_allocs_1 - restore_allocs_0;
    let restore_bytes = restore_bytes_1 - restore_bytes_0;

    let (fork_allocs_0, fork_bytes_0) = counters();
    let mut fork = template.fork();
    let (fork_allocs_1, fork_bytes_1) = counters();
    let fork_allocs = fork_allocs_1 - fork_allocs_0;
    let fork_bytes = fork_bytes_1 - fork_bytes_0;

    // The line arrays and the snoop filter's counts — the dominant decoded
    // state — are shared until written, so a fork allocates only the
    // filter's presence words (512 KB; the arena is cold here) and the small
    // per-run containers (event wheel, scheduler state, workload queues), a
    // fraction of what a full decode pays.
    assert!(
        fork_bytes <= restore_bytes / 4,
        "fork allocated {fork_bytes} bytes vs {restore_bytes} for a full \
         restore; copy-on-write sharing has regressed \
         ({fork_allocs} vs {restore_allocs} allocations)"
    );

    // The fork must still be a working machine: run a perturbed window
    // (each array copies in the chunks the window writes).
    fork.set_perturbation(fork.config().perturbation_max_ns, 7);
    fork.run_transactions(20).expect("forked run");
    drop(template);
}

/// A fork costs what it touches, and what it touches is recycled: after one
/// warm-up round has left this thread's pool holding a fork's private chunk
/// buffers and chunk maps, a whole launch — fork the template, run a short
/// perturbed window, drop the fork — asks the allocator for under a megabyte
/// in total (the per-run containers of the test below, plus their regrowth
/// during the window) and never for a megabyte at once. Growing a fresh
/// private buffer for one L2 (1.5 MB of capacity), or copying the snoop
/// filter's count array (4 MB) past the arena, fails both bounds on its own.
#[test]
fn warm_fork_and_short_run_allocate_under_a_megabyte() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    mtvar_sim::mem::arena::clear();
    let machine = warmed_reference_machine();
    let ck = machine.snapshot();
    drop(machine);
    let template: Machine<mtvar_workloads::profile::ProfiledWorkload> =
        Machine::restore(&ck).expect("restore");
    let launch = |seed| {
        let mut fork = template.fork();
        fork.set_perturbation(fork.config().perturbation_max_ns, seed);
        fork.run_transactions(25).expect("forked run");
    };
    launch(1);

    LARGEST_ALLOCATION.store(0, Ordering::Relaxed);
    let (allocs_0, bytes_0) = counters();
    launch(2);
    let (allocs_1, bytes_1) = counters();
    let largest = LARGEST_ALLOCATION.load(Ordering::Relaxed);
    let (allocs, bytes) = (allocs_1 - allocs_0, bytes_1 - bytes_0);
    assert!(
        largest < 1 << 20 && bytes <= 1 << 20,
        "a warm fork + 25-transaction run allocated {bytes} bytes in {allocs} \
         requests, the largest {largest}; forks have stopped recycling what \
         they copy"
    );
}

/// The decode arena's claim for steady-state sweep launches: once the
/// thread's pools hold one round's worth of retired buffers, a template
/// decode never re-allocates the multi-megabyte recycled buffers — the
/// dense line arrays (~25 MB across the reference machine's 48 caches) and
/// the snoop filter's 4 MB count + 0.5 MB presence arrays — and the arena's
/// hit counter proves the pooled buffers were actually reused rather than
/// the working set merely shrinking. The 32 forks that follow share the
/// line arrays and the counts with the template (a pointer copy each) and
/// draw their presence words from the pool, so what remains inside the
/// budgets is the honest per-round container churn: the decoded event list,
/// scheduler and workload state, and each fork's private wheel/core/queue
/// clones.
#[test]
fn arena_warm_template_decode_and_forks_stay_in_budget() {
    use mtvar_sim::mem::arena;

    const FORKS: usize = 32;
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    arena::clear();
    let machine = warmed_reference_machine();
    let ck = machine.snapshot();
    // Retire the warmed machine's line arrays into this thread's arena.
    drop(machine);

    // Warmup round: one decode + fork batch, fully dropped, leaves every
    // buffer a decode takes (line arrays, resident seeds, filter arrays) in
    // the pool.
    {
        let template: Machine<mtvar_workloads::profile::ProfiledWorkload> =
            Machine::restore(&ck).expect("warmup decode");
        let forks: Vec<_> = (0..FORKS).map(|_| template.fork()).collect();
        drop(forks);
        drop(template);
    }

    let stats_before = arena::stats();
    let (allocs_0, bytes_0) = counters();
    let template: Machine<mtvar_workloads::profile::ProfiledWorkload> =
        Machine::restore(&ck).expect("steady-state decode");
    let (decode_allocs_1, decode_bytes_1) = counters();
    let forks: Vec<_> = (0..FORKS).map(|_| template.fork()).collect();
    let (allocs_1, bytes_1) = counters();
    let stats_after = arena::stats();
    let decode_allocs = decode_allocs_1 - allocs_0;
    let decode_bytes = decode_bytes_1 - bytes_0;
    let fork_allocs = allocs_1 - decode_allocs_1;
    let fork_bytes = bytes_1 - decode_bytes_1;

    assert!(
        stats_after.hits > stats_before.hits,
        "the round did not reuse a single pooled buffer \
         ({stats_before:?} -> {stats_after:?}); the arena has regressed"
    );
    // A warm decode allocates ~1.5 MB of container state (measured ~405
    // allocations). The budget's teeth: re-allocating even one retired L2
    // line array (1.5 MB dense) or the filter's 4 MB count array blows
    // straight through it.
    assert!(
        decode_allocs <= 800 && decode_bytes <= 2_500_000,
        "warm template decode allocated {decode_allocs} times / \
         {decode_bytes} bytes; the arena stopped recycling decode buffers"
    );
    // A fork allocates ~600 KB of per-run containers (~290 allocations):
    // 19.2 MB for the batch, plus a quarter. A fork that copied the
    // filter's counts (4 MB) or a single L2 (1.5 MB) instead of sharing
    // them, or took its presence words (0.5 MB) past the arena, would land
    // the batch at 147 MB, 67 MB or 36 MB.
    assert!(
        fork_allocs <= 12_000 && (fork_bytes as usize) <= 24_000_000,
        "{FORKS} forks allocated {fork_allocs} times / {fork_bytes} bytes; \
         forks have stopped sharing the template's arrays"
    );
    drop(forks);
    drop(template);
}

/// The executor's workers are persistent, so their decode arenas are too:
/// the first fork sweep on a T = 2 executor finds both workers' arenas
/// empty and allocates every fork's presence words, chunk maps and private
/// chunk buffers fresh; the second finds them parked where the first left
/// them. (The calling thread's arena is warmed beforehand, so the template
/// decode costs both sweeps the same.) Workers that died with their sweep —
/// scoped threads — would make the two sweeps allocate alike.
#[test]
fn second_fork_sweep_on_one_executor_finds_the_worker_arenas_warm() {
    /// Makes the first two runs overlap, so that both workers fork — and
    /// fill their arenas — in the first sweep however the host schedules.
    struct BothWorkers {
        arrivals: AtomicU64,
        together: Barrier,
    }
    impl RunProgress for BothWorkers {
        fn run_started(&self, _run_index: usize) {
            if self.arrivals.fetch_add(1, Ordering::SeqCst) < 2 {
                self.together.wait();
            }
        }
    }

    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    mtvar_sim::mem::arena::clear();
    let machine = warmed_reference_machine();
    let ck = machine.snapshot();
    let max_ns = machine.config().perturbation_max_ns;
    drop(machine);
    drop(Machine::<ProfiledWorkload>::restore(&ck).expect("arena-warming decode"));

    let exec = Executor::with_threads(2)
        .without_cache()
        .with_progress(Arc::new(BothWorkers {
            arrivals: AtomicU64::new(0),
            together: Barrier::new(2),
        }));
    let sweep_bytes = |base_seed| {
        let plan = RunPlan::new(25).with_runs(4).with_base_seed(base_seed);
        let (_, bytes_0) = counters();
        exec.run_space_from_snapshot::<ProfiledWorkload>(&ck, max_ns, &plan)
            .expect("fork sweep");
        counters().1 - bytes_0
    };
    let first = sweep_bytes(1);
    let second = sweep_bytes(2);
    assert!(
        second < first / 2,
        "the second sweep allocated {second} bytes against the first's {first}; \
         the workers' arenas did not survive from one sweep to the next"
    );
}

/// An experiment's arms warm and decode their templates on the workers, so
/// the templates must retire there too: the second comparison on one T = 2
/// executor (its warmups now store hits) decodes both templates and forks
/// every run from buffers the first one parked in the workers' arenas. A
/// template dropped on the calling thread parks its arrays in an arena that
/// never decodes again, so each comparison would allocate both templates
/// afresh — and the caller's arena would grow towards its cap.
#[test]
fn a_second_experiment_on_one_executor_reuses_the_retired_templates() {
    use mtvar_core::checkpoint::CheckpointStore;
    use mtvar_core::experiment::{Arm, Experiment};
    use mtvar_sim::proc::{OooConfig, ProcessorConfig};

    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    mtvar_sim::mem::arena::clear();
    let arm = |name: &str, dram_ns| Arm {
        name: name.to_owned(),
        config: MachineConfig::hpca2003()
            .with_processor(ProcessorConfig::OutOfOrder(OooConfig::with_rob_size(32)))
            .with_dram_latency_ns(dram_ns)
            .with_perturbation(4, 0),
    };
    let plan = RunPlan::new(20).with_runs(4).with_warmup(60);
    let experiment = Experiment::new("dram", vec![arm("80ns", 80), arm("150ns", 150)], plan)
        .expect("two distinct arms");
    let exec = Executor::with_threads(2)
        .without_cache()
        .with_checkpoint_store(Arc::new(CheckpointStore::new()));
    let comparison_bytes = || {
        let (_, bytes_0) = counters();
        experiment
            .run_with(&exec, || Benchmark::Oltp.workload(16, 42))
            .expect("comparison");
        counters().1 - bytes_0
    };
    // Measured: 142 MB, then 11-42 MB; with the templates dropped on the
    // calling thread the second comparison allocates 74 MB.
    let first = comparison_bytes();
    let second = comparison_bytes();
    assert!(
        second < first / 2,
        "the second comparison allocated {second} bytes against the first's {first}; \
         its templates did not retire into the workers' arenas"
    );
}
