//! The checkpoint subsystem's bit-identity gate. Every test runs twice in
//! one process, monitor off and on: on through
//! `MachineConfig::with_invariant_checks` where it builds machines, through
//! a strict executor where it only drives one. A monitored machine carries
//! its monitor inside every snapshot, and the on arms must stay clean.
//!
//! 1. **Snapshot/restore transparency** — for every benchmark, running
//!    `WARMUP + MEASURE` transactions straight must equal snapshotting at
//!    `WARMUP`, restoring into a fresh machine, and continuing: identical
//!    [`RunResult`]s, identical digests, and identical follow-up snapshots.
//! 2. **Executor-level identity** — shared-warmup sweeps are bit-identical
//!    across thread counts, attaching a [`CheckpointStore`] changes the
//!    work done but never the statistics, and a warmed machine, its restored
//!    copy and its fork launch one and the same run space.
//! 3. **Crash safety** — a truncated or bit-flipped spill file is detected
//!    by content fingerprint and falls back to re-simulation with the same
//!    results.
//! 4. **Fork isolation** — forks share their template's cache arrays
//!    chunk by chunk, so: running forks never changes the
//!    template; a fork that outlives its template, and a fork of a fork, run
//!    exactly as a fresh restore does (results, digests and post-run
//!    snapshot bytes — the encoder walking a forked array); and siblings
//!    running at once on two threads never see each other.
//! 5. **Dirty arenas** — machines take their arrays from the process's
//!    decode arena, where retired buffers wait with another machine's
//!    contents, retired on this thread or on one that has since exited: a
//!    machine built, run, snapshotted and restored on such an arena matches
//!    the same machine on a cleared one, digest and bytes.
//!
//! [`RunResult`]: mtvar::sim::stats::RunResult

use std::sync::{Arc, Mutex, PoisonError};

use mtvar::core::checkpoint::CheckpointStore;
use mtvar::core::golden::run_digest;
use mtvar::core::runspace::{Executor, RunPlan};
use mtvar::sim::config::MachineConfig;
use mtvar::sim::machine::Machine;
use mtvar::sim::mem::{arena, CoherenceProtocol};
use mtvar::workloads::profile::ProfiledWorkload;
use mtvar::workloads::Benchmark;

const CPUS: usize = 4;
const WORKLOAD_SEED: u64 = 42;
const WARMUP: u64 = 10;
const MEASURE: u64 = 30;

/// The monitor arms: off, then on.
const MONITOR: [bool; 2] = [false, true];

fn config(monitored: bool) -> MachineConfig {
    MachineConfig {
        check_invariants: monitored,
        ..MachineConfig::hpca2003()
            .with_cpus(CPUS)
            .with_perturbation(4, 0x1DE7)
    }
}

/// An executor of `threads` threads without a result cache, strict when
/// `monitored`.
fn executor(threads: usize, monitored: bool) -> Executor {
    let exec = Executor::with_threads(threads).without_cache();
    if monitored {
        exec.with_invariant_checks()
    } else {
        exec
    }
}

/// Runs `WARMUP + MEASURE` transactions straight, and again through a
/// snapshot taken at `WARMUP`, restored and continued: identical results,
/// digests, restored snapshot and post-measurement state, and a monitored
/// machine that stays clean.
fn assert_restore_is_transparent(cfg: MachineConfig, workload: ProfiledWorkload, what: &str) {
    let monitored = cfg.check_invariants;
    let mut straight = Machine::new(cfg.clone(), workload.clone()).unwrap();
    straight.run_transactions(WARMUP).expect("straight warmup");
    let want = straight
        .run_transactions(MEASURE)
        .expect("straight measure");

    let mut warmed = Machine::new(cfg, workload).unwrap();
    warmed.run_transactions(WARMUP).expect("warmup");
    let snapshot = warmed.snapshot();
    let mut restored: Machine<ProfiledWorkload> = Machine::restore(&snapshot).expect("restore");
    assert_eq!(
        restored.snapshot().fingerprint(),
        snapshot.fingerprint(),
        "{what}: restore must reproduce the snapshot byte-for-byte"
    );
    let got = restored
        .run_transactions(MEASURE)
        .expect("restored measure");

    assert_eq!(
        want, got,
        "{what}: a run continued from a restored snapshot diverged"
    );
    assert_eq!(run_digest(&want), run_digest(&got), "{what}");
    // The machines remain interchangeable after the measurement too.
    assert_eq!(
        straight.snapshot().fingerprint(),
        restored.snapshot().fingerprint(),
        "{what}: post-measurement state diverged"
    );
    assert_eq!(restored.invariant_monitor().is_some(), monitored, "{what}");
    assert!(restored.invariant_violations().is_empty(), "{what}");
}

#[test]
fn snapshot_restore_is_bit_identical_for_every_benchmark() {
    for bench in Benchmark::ALL {
        for monitored in MONITOR {
            let what = format!("{} (monitored: {monitored})", bench.name());
            let workload = bench.workload(CPUS, WORKLOAD_SEED);
            assert_restore_is_transparent(config(monitored), workload, &what);
        }
    }
}

/// The scaling gate: a warmed 64-CPU directory-coherence machine must
/// checkpoint and restore bit-identically — snapshot fingerprints equal,
/// continued runs equal — and executor sweeps over the same configuration
/// must not depend on the thread count. The directory's per-home occupancy
/// registers ride in the snapshot (unlike the rebuilt-on-restore sharer
/// sets), so this exercises the conditional encoding path end to end.
#[test]
fn warmed_64_cpu_directory_machine_restores_bit_identically() {
    const DIR_CPUS: usize = 64;
    for monitored in MONITOR {
        let cfg = MachineConfig {
            check_invariants: monitored,
            ..MachineConfig::hpca2003()
                .with_cpus(DIR_CPUS)
                .with_directory_coherence()
                .with_perturbation(4, 0x1DE7)
        };
        let workload = Benchmark::Oltp.workload(DIR_CPUS, WORKLOAD_SEED);
        let what = format!("64-CPU directory machine (monitored: {monitored})");
        assert_restore_is_transparent(cfg.clone(), workload, &what);

        // Executor-level: the same configuration swept with 1 and 4 worker
        // threads must produce identical statistics.
        let plan = RunPlan::new(20).with_runs(2).with_warmup(WARMUP);
        let make = move || Benchmark::Oltp.workload(DIR_CPUS, WORKLOAD_SEED);
        let reference = executor(1, monitored).run_space(&cfg, make, &plan).unwrap();
        let parallel = executor(4, monitored).run_space(&cfg, make, &plan).unwrap();
        assert_eq!(
            reference, parallel,
            "64-CPU directory sweep depends on executor thread count"
        );
    }
}

#[test]
fn shared_warmup_sweeps_are_thread_count_and_store_invariant() {
    let plan = RunPlan::new(MEASURE).with_runs(4).with_warmup(WARMUP);
    for bench in [Benchmark::Oltp, Benchmark::Barnes] {
        let make = move || bench.workload(CPUS, WORKLOAD_SEED);
        let reference = executor(1, false)
            .run_space(&config(false), make, &plan)
            .unwrap();
        // A strict executor derives the same seeds from the same config.
        for (threads, monitored) in [1, 4].into_iter().flat_map(|t| MONITOR.map(|m| (t, m))) {
            let store = Arc::new(CheckpointStore::new());
            let with_store = executor(threads, monitored)
                .with_checkpoint_store(store.clone())
                .run_space(&config(false), make, &plan)
                .unwrap();
            assert_eq!(
                reference,
                with_store,
                "{}: {threads}-thread store-backed sweep diverged (monitored: {monitored})",
                bench.name()
            );
            assert_eq!(store.len(), 1, "{}", bench.name());
        }
    }
}

/// What identifies an initial condition is its content: the original warmed
/// machine, its restore and its fork hold one architectural state, so run
/// spaces launched from their snapshots must be equal result for result.
#[test]
fn original_restored_and_forked_machines_launch_one_run_space() {
    for monitored in MONITOR {
        let mut original = Machine::new(
            config(monitored),
            Benchmark::Oltp.workload(CPUS, WORKLOAD_SEED),
        )
        .unwrap();
        original.run_transactions(WARMUP).expect("warmup");
        let restored: Machine<ProfiledWorkload> =
            Machine::restore(&original.snapshot()).expect("restore");
        let forked = original.fork();

        let plan = RunPlan::new(MEASURE).with_runs(4);
        let launch = |threads, machine: &Machine<ProfiledWorkload>| {
            executor(threads, monitored)
                .run_space_from_snapshot::<ProfiledWorkload>(&machine.snapshot(), 4, &plan)
                .unwrap()
        };
        let want = launch(1, &original);
        for threads in [1, 4] {
            for (label, machine) in [
                ("original", &original),
                ("restored", &restored),
                ("forked", &forked),
            ] {
                assert_eq!(
                    want.results(),
                    launch(threads, machine).results(),
                    "the {label} machine launched a different run space on {threads} thread(s)"
                );
            }
        }
    }
}

const FORK_WINDOW: u64 = 25;

/// A decoded template of the warmed OLTP machine, and the snapshot it was
/// decoded from.
fn fork_template(
    monitored: bool,
) -> (
    Machine<ProfiledWorkload>,
    mtvar::sim::checkpoint::Checkpoint,
) {
    let mut warmed = Machine::new(
        config(monitored),
        Benchmark::Oltp.workload(CPUS, WORKLOAD_SEED),
    )
    .unwrap();
    warmed.run_transactions(WARMUP).expect("warmup");
    let snapshot = warmed.snapshot();
    (Machine::restore(&snapshot).expect("restore"), snapshot)
}

/// One perturbed window on `machine`: its result, digest and the bytes of
/// the state it leaves behind. The window must stay clean.
fn perturbed_window(
    machine: &mut Machine<ProfiledWorkload>,
    seed: u64,
) -> (mtvar::sim::stats::RunResult, u64, Vec<u8>) {
    machine.set_perturbation(4, seed);
    let result = machine.run_transactions(FORK_WINDOW).expect("window");
    assert!(machine.invariant_violations().is_empty());
    let digest = run_digest(&result);
    (result, digest, machine.snapshot().payload().to_vec())
}

#[test]
fn running_forks_leaves_the_template_untouched() {
    for monitored in MONITOR {
        let (template, snapshot) = fork_template(monitored);
        for seed in 0..8 {
            let mut fork = template.fork();
            perturbed_window(&mut fork, seed);
        }
        let after = template.snapshot();
        assert_eq!(after.fingerprint(), snapshot.fingerprint());
        assert_eq!(after.payload(), snapshot.payload());
    }
}

#[test]
fn outliving_and_second_generation_forks_run_like_a_fresh_restore() {
    for monitored in MONITOR {
        let (template, snapshot) = fork_template(monitored);
        let fresh =
            || -> Machine<ProfiledWorkload> { Machine::restore(&snapshot).expect("restore") };

        // The reference never shares anything: a restore nobody forks owns
        // its arrays outright from its first write.
        let mut reference = fresh();
        let want_first = perturbed_window(&mut reference, 11);
        let want_second = perturbed_window(&mut reference, 12);

        let mut parent = template.fork();
        let mut outliving = template.fork();
        drop(template);
        assert_eq!(
            perturbed_window(&mut outliving, 11),
            want_first,
            "a fork that outlived its template diverged from a fresh restore"
        );

        // Second generation: forked from a fork that already carries an
        // overlay of its own, and run after that fork has moved on.
        assert_eq!(perturbed_window(&mut parent, 11), want_first);
        let mut grandchild = parent.fork();
        perturbed_window(&mut parent, 99);
        assert_eq!(
            perturbed_window(&mut grandchild, 12),
            want_second,
            "a fork of a fork diverged from a fresh restore"
        );
    }
}

#[test]
fn sibling_forks_on_two_threads_match_the_same_forks_run_in_turn() {
    for monitored in MONITOR {
        let (template, snapshot) = fork_template(monitored);
        let in_turn: Vec<_> = [21, 22]
            .map(|seed| perturbed_window(&mut template.fork(), seed))
            .into();

        // Both siblings make their first write — the moment each decides it
        // shares the template — and run their windows at the same time.
        let start = std::sync::Barrier::new(2);
        let at_once: Vec<_> = std::thread::scope(|scope| {
            let handles = [21, 22].map(|seed| {
                let mut fork = template.fork();
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    perturbed_window(&mut fork, seed)
                })
            });
            handles
                .into_iter()
                .map(|h| h.join().expect("sibling fork panicked"))
                .collect()
        });
        assert_eq!(at_once, in_turn);
        assert_eq!(template.snapshot().payload(), snapshot.payload());
    }
}

#[test]
fn corrupt_spill_files_fall_back_to_resimulation() {
    let dir = std::env::temp_dir().join(format!("mtvar-ckpt-gate-{}", std::process::id()));
    let make = || Benchmark::Oltp.workload(CPUS, WORKLOAD_SEED);
    let plan = RunPlan::new(MEASURE).with_runs(3).with_warmup(WARMUP);
    for monitored in MONITOR {
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(CheckpointStore::new().with_disk_spill(&dir));
        let want = executor(1, monitored)
            .with_checkpoint_store(store.clone())
            .run_space(&config(false), make, &plan)
            .unwrap();

        // Truncate every spilled snapshot mid-payload, as an interrupted
        // write would have (without the fsync-and-rename protocol).
        let mut corrupted = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
            corrupted += 1;
        }
        assert!(corrupted > 0, "expected at least one spilled snapshot");

        // A fresh store over the same directory sees only corrupt files: it
        // must delete them, warm from scratch, and produce identical
        // statistics.
        let fresh = Arc::new(CheckpointStore::new().with_disk_spill(&dir));
        let key_count_before = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(key_count_before, corrupted);
        let got = executor(1, monitored)
            .with_checkpoint_store(fresh.clone())
            .run_space(&config(false), make, &plan)
            .unwrap();
        assert_eq!(want, got, "corrupt spill changed statistics");

        // And the re-simulated snapshot was re-spilled, replacing the corpse.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(
            names.iter().all(|n| n.ends_with(".ckpt")),
            "unexpected files in spill dir: {names:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The paper's 16-CPU machine, whose arrays fill a decode arena with
/// megabytes of slot storage, slot tables and sharer tables.
const DIRTY_CPUS: usize = 16;

/// Serializes the tests that clear the arena and count its hits: the arena
/// is the process's, and the harness runs tests on concurrent threads. (The
/// other tests here may still park buffers between a clear and a build; that
/// only makes a clean arm dirtier, and the arms must match either way.)
static SERIAL: Mutex<()> = Mutex::new(());

/// Builds, runs and drops a 16-CPU MESI machine on another workload seed,
/// so the arena holds the dirty slot storage, slot tables and sharer table
/// of a machine unlike the reference.
fn dirty_the_arena(monitored: bool) {
    let cfg = MachineConfig {
        check_invariants: monitored,
        ..MachineConfig::hpca2003()
            .with_protocol(CoherenceProtocol::Mesi)
            .with_perturbation(4, 0xD1E7)
    };
    let mut machine = Machine::new(cfg, Benchmark::Oltp.workload(DIRTY_CPUS, 7)).unwrap();
    machine
        .run_transactions(WARMUP + MEASURE)
        .expect("dirtying run");
    assert!(machine.invariant_violations().is_empty());
    drop(machine);
    assert!(arena::stats().pooled_bytes > 0, "nothing was retired");
}

/// What the reference machine leaves: its warmup's digest and snapshot
/// bytes, then the digest and final snapshot bytes of a run restored from
/// that snapshot.
type Outcome = (u64, Vec<u8>, u64, Vec<u8>);

/// The reference machine built and run for `WARMUP` transactions, then
/// restored from its snapshot and run for `MEASURE` more, each step on the
/// arena `prepare` leaves; with the pool hits of the build and of the
/// restore.
fn reference_on(monitored: bool, prepare: impl Fn()) -> (Outcome, [u64; 2]) {
    let cfg = MachineConfig {
        check_invariants: monitored,
        ..MachineConfig::hpca2003().with_perturbation(4, 0x1DE7)
    };
    prepare();
    let hits = arena::stats().hits;
    let mut built = Machine::new(cfg, Benchmark::Oltp.workload(DIRTY_CPUS, WORKLOAD_SEED)).unwrap();
    let build_hits = arena::stats().hits - hits;
    let warm = built.run_transactions(WARMUP).expect("warmup");
    assert!(built.invariant_violations().is_empty());
    let snapshot = built.snapshot();
    drop(built);

    prepare();
    let hits = arena::stats().hits;
    let mut restored: Machine<ProfiledWorkload> = Machine::restore(&snapshot).expect("restore");
    let restore_hits = arena::stats().hits - hits;
    let measured = restored.run_transactions(MEASURE).expect("measure");
    assert!(restored.invariant_violations().is_empty());
    let outcome = (
        run_digest(&warm),
        snapshot.payload().to_vec(),
        run_digest(&measured),
        restored.snapshot().payload().to_vec(),
    );
    (outcome, [build_hits, restore_hits])
}

/// Monitor off and on: the reference machine built and restored after
/// `dirty` has filled the arena matches it on a cleared arena, and both the
/// build and the restore took buffers from the pool (counted on this
/// thread).
fn matches_a_clean_arena(dirty: impl Fn(bool)) {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    for monitored in MONITOR {
        let (clean, _) = reference_on(monitored, arena::clear);
        let (dirty, [build_hits, restore_hits]) = reference_on(monitored, || {
            arena::clear();
            dirty(monitored);
        });
        assert!(
            build_hits > 0 && restore_hits > 0,
            "the dirty buffers went unused: {build_hits} build hits, \
             {restore_hits} restore hits (monitored: {monitored})"
        );
        let what = format!("monitored: {monitored}");
        assert_eq!(clean.0, dirty.0, "built machine's digest ({what})");
        assert!(
            clean.1 == dirty.1,
            "built machine's snapshot bytes ({what})"
        );
        assert_eq!(clean.2, dirty.2, "restored machine's digest ({what})");
        assert!(
            clean.3 == dirty.3,
            "restored machine's snapshot bytes ({what})"
        );
    }
}

#[test]
fn machines_built_and_restored_on_a_dirty_arena_match_a_clean_one() {
    matches_a_clean_arena(dirty_the_arena);
}

/// The arena is one pool for the process: the buffers a machine retires on
/// a thread that then exits serve the next build and restore on any other.
#[test]
fn buffers_retired_on_an_exited_thread_serve_this_ones_build_and_restore() {
    matches_a_clean_arena(|monitored| {
        std::thread::scope(|s| {
            s.spawn(|| dirty_the_arena(monitored));
        });
    });
}
