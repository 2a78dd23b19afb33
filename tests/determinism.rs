//! Integration tests of the determinism contract that the whole methodology
//! rests on (§3.3): the simulator is a pure function of `(configuration,
//! workload seed, perturbation seed)`, and only the perturbation seed may
//! change an outcome from fixed initial conditions.
//!
//! The second half extends the contract to the parallel executor: a run
//! space is a pure function of `(configuration, workload, plan)` — never of
//! thread count, scheduling order, or cache state.

use std::sync::Arc;

use mtvar::core::runspace::{run_space, Executor, ProgressCounters, RunPlan};
use mtvar::sim::config::MachineConfig;
use mtvar::sim::machine::Machine;
use mtvar::workloads::profile::ProfiledWorkload;
use mtvar::workloads::Benchmark;

fn small_config() -> MachineConfig {
    MachineConfig::hpca2003().with_cpus(4)
}

#[test]
fn identical_configs_replay_identically() {
    let run = || {
        let mut m = Machine::new(
            small_config().with_perturbation(4, 99),
            Benchmark::Oltp.workload(4, 7),
        )
        .expect("machine");
        let r = m.run_transactions(120).expect("run");
        (r.elapsed(), r.commit_cycles.clone(), r.mem, r.sched)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "elapsed time must replay exactly");
    assert_eq!(a.1, b.1, "commit log must replay exactly");
    assert_eq!(a.2, b.2, "memory counters must replay exactly");
    assert_eq!(a.3, b.3, "scheduler counters must replay exactly");
}

#[test]
fn zero_perturbation_is_fully_deterministic_across_seeds() {
    // With max_ns = 0 the seed is irrelevant: the simulator of §3.2 is
    // deterministic.
    let run = |seed| {
        let mut m = Machine::new(
            small_config().with_perturbation(0, seed),
            Benchmark::Apache.workload(4, 3),
        )
        .expect("machine");
        m.run_transactions(150).expect("run").elapsed()
    };
    assert_eq!(run(1), run(2));
    assert_eq!(run(2), run(12345));
}

#[test]
fn perturbation_seeds_explore_distinct_paths() {
    let elapsed = |seed| {
        let mut m = Machine::new(
            small_config().with_perturbation(4, seed),
            Benchmark::Oltp.workload(4, 7),
        )
        .expect("machine");
        m.run_transactions(150).expect("run").elapsed()
    };
    let runs: Vec<u64> = (0..8).map(elapsed).collect();
    let distinct: std::collections::HashSet<u64> = runs.iter().copied().collect();
    assert!(
        distinct.len() >= 4,
        "8 perturbed runs should explore several paths, saw {distinct:?}"
    );
}

#[test]
fn workload_seed_changes_the_workload_not_the_contract() {
    let elapsed = |wseed| {
        let mut m = Machine::new(
            small_config().with_perturbation(0, 0),
            Benchmark::Oltp.workload(4, wseed),
        )
        .expect("machine");
        m.run_transactions(100).expect("run").elapsed()
    };
    // Different workload seeds give different (but individually
    // reproducible) runs.
    assert_ne!(elapsed(1), elapsed(2));
    assert_eq!(elapsed(1), elapsed(1));
}

#[test]
fn checkpoint_resume_is_bit_identical() {
    let mut m = Machine::new(
        small_config().with_perturbation(4, 5),
        Benchmark::Slashcode.workload(4, 11),
    )
    .expect("machine");
    m.run_transactions(40).expect("warmup");
    let ckpt = m.fork();

    let mut a = ckpt.fork();
    let mut b = ckpt.fork();
    let ra = a.run_transactions(60).expect("a");
    let rb = b.run_transactions(60).expect("b");
    assert_eq!(ra.commit_cycles, rb.commit_cycles);
    assert_eq!(ra.mem, rb.mem);

    // And the original can continue too, identically.
    let rc = m.run_transactions(60).expect("c");
    assert_eq!(rc.commit_cycles, ra.commit_cycles);
}

#[test]
fn reseeded_checkpoint_diverges_but_reproduces() {
    let mut m = Machine::new(
        small_config().with_perturbation(4, 5),
        Benchmark::Oltp.workload(4, 11),
    )
    .expect("machine");
    m.run_transactions(40).expect("warmup");

    let reseeded = |seed| {
        let mut run = m.fork();
        run.set_perturbation(m.config().perturbation_max_ns, seed);
        run.run_transactions(80).expect("run")
    };
    let (r1, r2, r3) = (reseeded(77), reseeded(77), reseeded(78));
    assert_eq!(r1.elapsed(), r2.elapsed(), "same seed must reproduce");
    assert_ne!(
        r1.commit_cycles, r3.commit_cycles,
        "different seeds should diverge from a warm checkpoint"
    );
}

// ---------------------------------------------------------------------------
// The parallel executor's determinism contract
// ---------------------------------------------------------------------------

#[test]
fn parallel_run_space_is_bit_identical_across_thread_counts() {
    let config = small_config().with_perturbation(4, 0);
    let plan = RunPlan::new(60).with_runs(8).with_warmup(40);
    let workload = || Benchmark::Oltp.workload(4, 7);

    // The sequential free function is the reference.
    let reference = run_space(&config, workload, &plan).expect("sequential space");
    for threads in [1, 2, 4, 9] {
        let space = Executor::with_threads(threads)
            .run_space(&config, workload, &plan)
            .expect("parallel space");
        assert_eq!(
            reference.results(),
            space.results(),
            "{threads}-thread executor must reproduce the sequential space bit-for-bit"
        );
    }
}

#[test]
fn parallel_checkpoint_space_is_bit_identical_across_thread_counts() {
    let mut m = Machine::new(
        small_config().with_perturbation(4, 5),
        Benchmark::Apache.workload(4, 3),
    )
    .expect("machine");
    m.run_transactions(50).expect("warmup");
    let plan = RunPlan::new(50).with_runs(6);

    let from_snapshot = |executor: Executor| {
        executor
            .run_space_from_snapshot::<ProfiledWorkload>(&m.snapshot(), 4, &plan)
            .expect("snapshot space")
    };
    let reference = from_snapshot(Executor::sequential().without_cache());
    for threads in [2, 5] {
        let space = from_snapshot(Executor::with_threads(threads));
        assert_eq!(reference.results(), space.results());
    }
}

#[test]
fn cached_reinvocation_returns_identical_results_without_resimulating() {
    let config = small_config().with_perturbation(4, 0);
    let plan = RunPlan::new(50).with_runs(5);
    let workload = || Benchmark::Oltp.workload(4, 7);

    let progress = Arc::new(ProgressCounters::new());
    let executor = Executor::with_threads(4).with_progress(progress.clone());
    let first = executor.run_space(&config, workload, &plan).expect("first");
    assert_eq!(
        progress.completed(),
        5,
        "all runs simulate on first contact"
    );

    let second = executor
        .run_space(&config, workload, &plan)
        .expect("second");
    assert_eq!(
        first.results(),
        second.results(),
        "cache must return identical results"
    );
    assert_eq!(
        progress.completed(),
        5,
        "second invocation must not re-simulate"
    );
    assert_eq!(
        progress.cached(),
        5,
        "every run of the repeat must come from cache"
    );
}

#[test]
fn executor_distinguishes_workload_seeds_in_cache_and_results() {
    let config = small_config().with_perturbation(4, 0);
    let plan = RunPlan::new(40).with_runs(3);
    let executor = Executor::sequential();
    let a = executor
        .run_space(&config, || Benchmark::Oltp.workload(4, 7), &plan)
        .expect("a");
    let b = executor
        .run_space(&config, || Benchmark::Oltp.workload(4, 8), &plan)
        .expect("b");
    assert_ne!(
        a.runtimes(),
        b.runtimes(),
        "same benchmark with different workload seeds must not share cached runs"
    );
}
