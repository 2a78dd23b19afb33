//! Steady-state allocation regression tests.
//!
//! The kernel overhaul's zero-alloc claim: once a machine is warmed — event
//! wheel buckets sized, workload op queues filled, scheduler scratch grown —
//! the hot loop (event dispatch, cache access, sharer lookup, scheduling,
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
//! the test harness runs them on concurrent threads and the counters — and
//! the decode arena's pools — are process-global.

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

/// Serializes the tests in this binary: the counters above and the decode
/// arena are process-global, and the harness runs `#[test]`s concurrently.
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
        // Fresh slot tables and sharer tables are calloc-backed; count those
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

/// One L2's slot storage at its full capacity: room for 65,536 16-byte
/// lines, 1 MiB, what a fresh one asks the allocator for.
const L2_LINE_ARRAY: u64 = 16 * 65_536;

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

    // The slot storage and tables — the dominant decoded state — are
    // shared until written, so a fork allocates only its sharer table
    // (512 KB; the arena is cold here) and the small per-run containers
    // (event wheel, scheduler state, workload queues), a fraction of what a
    // full decode pays.
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

/// A machine is built from the arena too: once a build, run and drop has
/// left the pool holding the reference machine's slot storage, slot
/// tables and sharer table, building a second machine of the
/// same geometry takes all of them back instead of asking the allocator
/// for fresh ones. What remains is the machine's small containers (event
/// wheel, scheduler, cores), never a megabyte at once: a fresh L2 slot storage
/// (exactly 1 MiB) fails both bounds.
#[test]
fn a_machine_built_after_one_was_dropped_reuses_its_arrays() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    mtvar_sim::mem::arena::clear();
    drop(warmed_reference_machine());
    let cfg = MachineConfig::hpca2003().with_perturbation(4, 1);
    let workload = Benchmark::Oltp.workload(16, 42);

    let stats_before = mtvar_sim::mem::arena::stats();
    LARGEST_ALLOCATION.store(0, Ordering::Relaxed);
    let (allocs_0, bytes_0) = counters();
    let machine = Machine::new(cfg, workload).expect("machine");
    let (allocs_1, bytes_1) = counters();
    let largest = LARGEST_ALLOCATION.load(Ordering::Relaxed);
    let (allocs, bytes) = (allocs_1 - allocs_0, bytes_1 - bytes_0);
    assert!(
        mtvar_sim::mem::arena::stats().hits > stats_before.hits,
        "the build reused no pooled buffer"
    );
    // Measured: 149,280 bytes in 10 requests, the largest 131,072; one
    // fresh L2 slot storage alone is 1 MiB.
    assert!(
        largest < 1 << 20 && bytes <= L2_LINE_ARRAY / 4,
        "building a machine on a warm arena allocated {bytes} bytes in \
         {allocs} requests, the largest {largest}; Machine::new has stopped \
         taking its arrays from the pool"
    );
    drop(machine);
}

/// A cache array stores only the sets a run has filled: the 16-CPU OLTP
/// machine warmed 1,000 transactions holds at most 6 MiB of slot storage
/// and slot tables across its 48 arrays. Dense line arrays, a MiB per L2
/// and 32 KiB per L1, are 17.8 MB: nearly three times the gate.
#[test]
fn a_warmed_machine_stores_only_the_sets_it_filled() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MachineConfig::hpca2003();
    let mut machine = Machine::new(cfg, Benchmark::Oltp.workload(16, 42)).expect("machine");
    machine.run_transactions(1_000).expect("warmup");
    let bytes = machine.memory().line_storage_bytes();
    // Measured: 4,335,616 bytes, 1.1 MB of them slot tables.
    assert!(
        bytes <= 6 << 20,
        "a warmed 16-CPU machine holds {bytes} bytes of line storage and slot \
         tables; cache arrays have stopped storing only the sets they filled"
    );
}

/// A fork costs what it touches, and what it touches is recycled: after one
/// warm-up round has left the pool holding a fork's private chunk
/// buffers and chunk maps, a whole launch — fork the template, run a short
/// perturbed window, drop the fork — asks the allocator for under a megabyte
/// in total (the per-run containers of the test below, plus their regrowth
/// during the window) and never for a megabyte at once. Growing a fresh
/// private buffer for one L2 (1 MiB of capacity: the strict `<` on the
/// largest request catches exactly that) fails both bounds on its own.
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
/// pools hold one round's worth of retired buffers, a template
/// decode never re-allocates the multi-megabyte recycled buffers — the
/// slot storages (room for ~17 MB of lines across the reference machine's 48 caches) and
/// the sharer table — and the arena's
/// hit counter proves the pooled buffers were actually reused rather than
/// the working set merely shrinking. The 32 forks that follow share the
/// slot storage and tables with the template (a pointer copy each) and
/// draw their sharer tables from the pool, so what remains inside the
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
    // Retire the warmed machine's slot storage and tables into the arena.
    drop(machine);

    // Warmup round: one decode + fork batch, fully dropped, leaves every
    // buffer a decode takes (slot storage, slot tables, sharer table) in
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
    // A warm decode allocates ~0.6 MB of container state (measured
    // 605,520 bytes in 386 allocations). The budget's teeth: re-allocating
    // even one retired L2 slot storage (`L2_LINE_ARRAY`) blows straight
    // through it.
    assert!(
        decode_allocs <= 800 && decode_bytes <= L2_LINE_ARRAY * 3 / 2,
        "warm template decode allocated {decode_allocs} times / \
         {decode_bytes} bytes; the arena stopped recycling decode buffers"
    );
    // A fork allocates ~600 KB of per-run containers (~290 allocations):
    // 19.3 MB for the batch, plus a quarter. A fork that copied a single
    // L2 (1 MiB) instead of sharing it, or took its sharer table (0.5 MB)
    // past the arena, would land the batch at 53 MB or 36 MB.
    assert!(
        fork_allocs <= 12_000 && (fork_bytes as usize) <= 24_000_000,
        "{FORKS} forks allocated {fork_allocs} times / {fork_bytes} bytes; \
         forks have stopped sharing the template's arrays"
    );
    drop(forks);
    drop(template);
}

/// A checkpoint sweep forks each position's runs from its warm chain's live
/// machine instead of decoding the snapshot the chain just took: share the
/// live machine, fork a template, fork the position's runs from that, and
/// once they are done hand the template back and advance the chain, which
/// writes overlays on the arrays the template held and folds them back in
/// at the next share. After one warm-up round has parked every buffer of
/// such a round in the arena, a whole round — template, eight
/// forks with their 25-transaction runs, the chain's next advance and
/// share — stays inside the warm-fork budget above, a megabyte per fork,
/// and never asks for a megabyte at once: a share that copied an L2
/// (1 MiB) instead of folding, a template
/// fork that copied the live machine whole, or forks that stopped drawing
/// their buffers from the pool fail it.
#[test]
#[expect(clippy::disallowed_methods, reason = "replays WarmChain::template")]
fn live_template_rounds_stay_in_the_fork_budget() {
    const FORKS: u64 = 8;
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    mtvar_sim::mem::arena::clear();
    let mut live = warmed_reference_machine();
    let round = |live: &mut Machine<ProfiledWorkload>| {
        live.share();
        let template = live.fork();
        for seed in 0..FORKS {
            let mut fork = template.fork();
            fork.set_perturbation(fork.config().perturbation_max_ns, seed);
            fork.run_transactions(25).expect("forked run");
        }
        live.run_transactions(25).expect("chain advance");
        drop(template);
        live.share();
    };
    round(&mut live);

    let stats_before = mtvar_sim::mem::arena::stats();
    LARGEST_ALLOCATION.store(0, Ordering::Relaxed);
    let (allocs_0, bytes_0) = counters();
    round(&mut live);
    let (allocs_1, bytes_1) = counters();
    let largest = LARGEST_ALLOCATION.load(Ordering::Relaxed);
    let (allocs, bytes) = (allocs_1 - allocs_0, bytes_1 - bytes_0);
    assert!(
        mtvar_sim::mem::arena::stats().hits > stats_before.hits,
        "the round reused no pooled buffer"
    );
    assert!(
        largest < 1 << 20 && bytes <= (FORKS + 1) << 20,
        "a live-template round (share, template, {FORKS} forks with runs, \
         advance, share) allocated {bytes} bytes in {allocs} requests, the \
         largest {largest}; the share or the forks have stopped reusing \
         what the previous round left"
    );
}

/// A fork sweep's buffers outlive it: the first fork sweep on a T = 2
/// executor finds nothing in the arena for its forks and allocates every
/// fork's sharer table, chunk maps and private chunk buffers fresh; the
/// second finds them parked where the first left them, whichever worker
/// retired them. (The arena is warmed with a decode beforehand, so the
/// template decode costs both sweeps the same.) Measured: 11.2 MB, then
/// 4.6 MB.
#[test]
fn second_fork_sweep_on_one_executor_finds_the_worker_arenas_warm() {
    /// Makes the first two runs overlap, so that both workers fork — and
    /// each retire a fork's buffers — in the first sweep however the host
    /// schedules.
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
         the forks' buffers did not survive from one sweep to the next"
    );
}

/// An experiment's arms warm and decode their templates on the workers and
/// drop them on the calling thread, which never decodes: the second
/// comparison on one T = 2 executor (its warmups now store hits) decodes
/// both templates and forks every run from buffers the first one retired,
/// wherever it retired them. An arena per thread would park the templates'
/// arrays in the caller's pool, out of the workers' reach, so each
/// comparison would allocate both templates afresh. The budget holds on an
/// observing executor and on a strict one, whose warmups and runs carry the
/// invariant monitor.
#[test]
fn a_second_experiment_on_one_executor_reuses_the_retired_templates() {
    use mtvar_core::checkpoint::CheckpointStore;
    use mtvar_core::experiment::{Arm, Experiment};
    use mtvar_sim::proc::{OooConfig, ProcessorConfig};

    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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
    for strict in [false, true] {
        mtvar_sim::mem::arena::clear();
        let mut exec = Executor::with_threads(2)
            .without_cache()
            .with_checkpoint_store(Arc::new(CheckpointStore::new()));
        if strict {
            exec = exec.with_invariant_checks();
        }
        let comparison_bytes = || {
            let (_, bytes_0) = counters();
            experiment
                .run_with(&exec, || Benchmark::Oltp.workload(16, 42))
                .expect("comparison");
            counters().1 - bytes_0
        };
        // Measured: 57 MB, then 10.4 MB.
        let first = comparison_bytes();
        let second = comparison_bytes();
        assert!(
            second < first / 2,
            "the second comparison allocated {second} bytes against the first's {first} \
             (strict: {strict}); the workers did not reuse its retired templates"
        );
    }
}
