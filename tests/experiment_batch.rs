//! `Experiment::run_with` runs its arms as one batch — every arm's shared
//! warmup at once, one pool job per arm, then every arm's runs in one
//! fan-out — and none of that may show in a result. `scripts/verify.sh`
//! runs this suite in debug and in release. Items 1 and 3 run each batch on
//! an observing executor and on a strict one, which monitors every warmup
//! and run.
//!
//! 1. **Batch == arm by arm** — at T = 1 / 2 / 4, with no store and with a
//!    `CheckpointStore`, the report equals the one assembled from one
//!    `Executor::run_space` call per arm, on the `compare` benchmark's
//!    80-vs-150 ns DRAM pair (16-CPU OLTP) and on a 3-arm ROB experiment.
//!    Arms that differ only in perturbation magnitude share one warmup.
//! 2. **Equal arms under two names** — a cached executor simulates each run
//!    once and serves the repeats as cache hits, violations replayed; a
//!    cacheless one simulates both arms, as arm-by-arm calls would.
//! 3. **Error order** — the error returned is the one the arm-by-arm reading
//!    meets first (an arm's warmup, then its runs), whatever the batch met
//!    first; a panicking warmup re-raises its payload and leaves the
//!    executor usable.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use mtvar::core::checkpoint::CheckpointStore;
use mtvar::core::compare::Comparison;
use mtvar::core::experiment::{Arm, ArmResult, Experiment, PairResult};
use mtvar::core::metrics::VariabilityReport;
use mtvar::core::runspace::{Executor, ProgressCounters, RunPlan};
use mtvar::core::wcr::wrong_conclusion_ratio;
use mtvar::core::{CoreError, Result};
use mtvar::sim::checkpoint::Snap;
use mtvar::sim::config::{FaultSpec, MachineConfig};
use mtvar::sim::ids::{BlockAddr, LockId, ThreadId};
use mtvar::sim::mem::CoherenceState;
use mtvar::sim::ops::Op;
use mtvar::sim::proc::{OooConfig, ProcessorConfig};
use mtvar::sim::sched::SchedConfig;
use mtvar::sim::workload::{SharingWorkload, Workload};
use mtvar::sim::SimError;
use mtvar::workloads::profile::ProfiledWorkload;
use mtvar::workloads::Benchmark;

const ALPHA: f64 = 0.05;
const THREADS: [usize; 3] = [1, 2, 4];

fn arm(name: &str, config: MachineConfig) -> Arm {
    Arm {
        name: name.to_owned(),
        config,
    }
}

fn oltp16() -> ProfiledWorkload {
    Benchmark::Oltp.workload(16, 42)
}

fn rob(size: u32) -> MachineConfig {
    MachineConfig::hpca2003()
        .with_processor(ProcessorConfig::OutOfOrder(OooConfig::with_rob_size(size)))
        .with_perturbation(4, 0)
}

/// The `compare` benchmark's pair: ROB-32 16-CPU OLTP at 80 and 150 ns DRAM.
fn dram_pair() -> Vec<Arm> {
    vec![
        arm("dram-80ns", rob(32).with_dram_latency_ns(80)),
        arm("dram-150ns", rob(32).with_dram_latency_ns(150)),
    ]
}

fn rob_trio() -> Vec<Arm> {
    [16, 32, 64]
        .into_iter()
        .map(|size| arm(&format!("rob-{size}"), rob(size)))
        .collect()
}

/// An executor of `threads` threads, without a result cache (so that every
/// comparison re-simulates), with `store` attached if given, strict when
/// `strict`.
fn executor(threads: usize, store: Option<&Arc<CheckpointStore>>, strict: bool) -> Executor {
    let mut exec = Executor::with_threads(threads).without_cache();
    if let Some(store) = store {
        exec = exec.with_checkpoint_store(Arc::clone(store));
    }
    if strict {
        exec = exec.with_invariant_checks();
    }
    exec
}

/// Every `(threads, stored, strict)` combination the batch tests run.
fn variants() -> impl Iterator<Item = (usize, bool, bool)> {
    THREADS.into_iter().flat_map(|threads| {
        [(false, false), (true, false), (false, true), (true, true)]
            .map(|(stored, strict)| (threads, stored, strict))
    })
}

/// What `Experiment::run_with` must return, read arm by arm: one
/// `Executor::run_space` call per arm, then every pair's WCR and verdict.
fn arm_by_arm<W, F>(
    exec: &Executor,
    arms: &[Arm],
    make: F,
    plan: &RunPlan,
) -> Result<(Vec<ArmResult>, Vec<PairResult>)>
where
    W: Workload + Snap + Clone + Send + Sync,
    F: Fn() -> W + Sync,
{
    let mut results = Vec::new();
    for arm in arms {
        let space = exec.run_space(&arm.config, &make, plan)?;
        let runtimes = space.runtimes();
        results.push(ArmResult {
            name: arm.name.clone(),
            variability: VariabilityReport::from_runtimes(&runtimes)?,
            runtimes,
            violations: space.total_violations(),
        });
    }
    let mut pairs = Vec::new();
    for (i, a) in results.iter().enumerate() {
        for b in &results[i + 1..] {
            pairs.push(PairResult {
                first: a.name.clone(),
                second: b.name.clone(),
                wcr: wrong_conclusion_ratio(&a.runtimes, &b.runtimes).ok(),
                verdict: Comparison::from_runs(&a.name, &a.runtimes, &b.name, &b.runtimes)?
                    .verdict(ALPHA)?,
            });
        }
    }
    Ok((results, pairs))
}

fn experiment(arms: Vec<Arm>, plan: RunPlan) -> Experiment {
    Experiment::new("batch", arms, plan)
        .and_then(|e| e.with_alpha(ALPHA))
        .expect("distinct arms, valid alpha")
}

/// Checks the batch against the arm-by-arm reading at every thread count,
/// without and with a store, observing and strict (a strict executor
/// derives the same seeds), and returns the warmups each fresh store
/// simulated.
fn batch_matches_arm_by_arm(arms: Vec<Arm>, plan: RunPlan) -> Vec<u64> {
    let exp = experiment(arms.clone(), plan);
    let (want_arms, want_pairs) = arm_by_arm(
        &Executor::sequential().without_cache(),
        &arms,
        oltp16,
        &plan,
    )
    .unwrap();
    let mut warmups = Vec::new();
    for (threads, stored, strict) in variants() {
        let store = stored.then(|| Arc::new(CheckpointStore::new()));
        let report = exp
            .run_with(&executor(threads, store.as_ref(), strict), oltp16)
            .unwrap();
        let what = format!("T = {threads}, store: {stored}, strict: {strict}");
        assert_eq!(report.arms(), want_arms.as_slice(), "{what}");
        assert_eq!(report.pairs(), want_pairs.as_slice(), "{what}");
        warmups.extend(store.map(|s| s.warmups_simulated()));
    }
    warmups
}

#[test]
fn the_dram_pair_equals_its_arm_by_arm_report() {
    let plan = RunPlan::new(20).with_runs(4).with_warmup(60);
    let warmups = batch_matches_arm_by_arm(dram_pair(), plan);
    assert_eq!(warmups, [2; 6], "one warmup per arm");
}

#[test]
fn a_three_arm_rob_experiment_equals_its_arm_by_arm_report() {
    let plan = RunPlan::new(15).with_runs(3).with_warmup(40);
    let warmups = batch_matches_arm_by_arm(rob_trio(), plan);
    assert_eq!(warmups, [3; 6], "one warmup per arm");
}

#[test]
fn arms_differing_only_in_perturbation_share_one_warmup() {
    let arms: Vec<Arm> = [2, 4, 8]
        .into_iter()
        .map(|ns| arm(&format!("perturb-{ns}ns"), rob(32).with_perturbation(ns, 0)))
        .collect();
    let plan = RunPlan::new(15).with_runs(3).with_warmup(40);
    let warmups = batch_matches_arm_by_arm(arms, plan);
    assert_eq!(warmups, [1; 6], "the store's single-flight warms once");
}

// ---------------------------------------------------------------------------
// Equal configurations under two names
// ---------------------------------------------------------------------------

/// A monitored 4-CPU machine with an illegal coherence state planted at
/// commit 12, inside every run of the plans below.
fn faulted() -> MachineConfig {
    MachineConfig::hpca2003()
        .with_cpus(4)
        .with_perturbation(4, 0)
        .with_invariant_checks()
        .with_fault(FaultSpec::coherence(
            12,
            1,
            0xFA11,
            CoherenceState::Exclusive,
        ))
}

fn sharing() -> SharingWorkload {
    SharingWorkload::new(8, 42, 40, 4096, 10)
}

#[test]
fn equal_arms_simulate_once_with_a_cache_and_twice_without() {
    const RUNS: usize = 4;
    let arms = vec![arm("a", faulted()), arm("b", faulted())];
    let plan = RunPlan::new(30).with_runs(RUNS).with_warmup(5);
    let exp = experiment(arms.clone(), plan);
    for threads in THREADS {
        for cached in [true, false] {
            let what = format!("T = {threads}, cached: {cached}");
            let build = || {
                let counters = Arc::new(ProgressCounters::new());
                let exec = Executor::with_threads(threads).with_progress(counters.clone());
                let exec = if cached { exec } else { exec.without_cache() };
                (exec, counters)
            };
            let (exec, batch) = build();
            let report = exp.run_with(&exec, sharing).unwrap();
            let (exec, reference) = build();
            let (want_arms, _) = arm_by_arm(&exec, &arms, sharing, &plan).unwrap();
            assert_eq!(report.arms(), want_arms.as_slice(), "{what}");
            assert_eq!(report.arms()[0].runtimes, report.arms()[1].runtimes);
            assert!(!report.is_clean(), "{what}: the fault fires in every run");

            let simulated = if cached { RUNS } else { 2 * RUNS };
            assert_eq!(batch.completed(), simulated, "{what}");
            assert_eq!(batch.cached(), 2 * RUNS - simulated, "{what}");
            assert_eq!(
                batch.violating_runs(),
                2 * RUNS,
                "{what}: repeats replay their violations"
            );
            for (got, want) in [
                (batch.completed(), reference.completed()),
                (batch.cached(), reference.cached()),
                (batch.violating_runs(), reference.violating_runs()),
            ] {
                assert_eq!(got, want, "{what}: counters of the arm-by-arm reading");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Error order
// ---------------------------------------------------------------------------

/// Two threads that each take a lock of their own with their first op, and
/// ask for the other's once they have committed `limit` transactions: a
/// machine of this workload commits exactly `2 * limit` transactions and
/// then deadlocks, on any perturbation seed.
#[derive(Debug, Clone)]
struct Wedging {
    limit: u32,
    ops: Vec<u32>,
    committed: Vec<u32>,
}

impl Wedging {
    fn new(limit: u32) -> Self {
        Wedging {
            limit,
            ops: vec![0; 2],
            committed: vec![0; 2],
        }
    }
}

impl Workload for Wedging {
    fn thread_count(&self) -> usize {
        2
    }

    fn next_op(&mut self, thread: ThreadId) -> Op {
        let i = thread.index();
        self.ops[i] += 1;
        if self.ops[i] == 1 {
            return Op::Lock(LockId(100 + i as u32));
        }
        if self.committed[i] == self.limit {
            return Op::Lock(LockId(101 - i as u32));
        }
        if self.ops[i].is_multiple_of(3) {
            self.committed[i] += 1;
            return Op::TxnEnd;
        }
        Op::Compute {
            instructions: 40,
            code_block: BlockAddr(0xC0DE + i as u64),
        }
    }

    fn name(&self) -> &str {
        "wedging"
    }
}

mtvar::sim::impl_snap!(Wedging {
    limit,
    ops,
    committed
});

#[test]
fn an_earlier_arms_run_error_beats_a_later_arms_warmup_error() {
    // 20 commits in all: warmed to 10, every run wedges at its 11th.
    let wedges = arm("wedges", MachineConfig::hpca2003().with_cpus(2));
    let invalid = arm("no-cpus", MachineConfig::hpca2003().with_cpus(0));
    let make = || Wedging::new(10);
    let plan = RunPlan::new(15).with_runs(3).with_warmup(10);
    for wedges_first in [true, false] {
        let arms = if wedges_first {
            vec![wedges.clone(), invalid.clone()]
        } else {
            vec![invalid.clone(), wedges.clone()]
        };
        let want = arm_by_arm(&Executor::sequential(), &arms, make, &plan).unwrap_err();
        assert_eq!(
            matches!(want, CoreError::Sim(SimError::Deadlock { .. })),
            wedges_first,
            "the arm-by-arm reading meets arm 0's error first, met {want}"
        );
        let exp = experiment(arms, plan);
        for (threads, stored, strict) in variants() {
            let store = stored.then(|| Arc::new(CheckpointStore::new()));
            let got = exp
                .run_with(&executor(threads, store.as_ref(), strict), make)
                .unwrap_err();
            assert_eq!(
                got, want,
                "T = {threads}, store: {stored}, strict: {strict}"
            );
        }
    }
}

#[test]
fn a_fault_in_the_second_arm_fails_a_strict_batch_with_that_arms_violation() {
    let clean = MachineConfig::hpca2003()
        .with_cpus(4)
        .with_perturbation(4, 0);
    let arms = vec![arm("clean", clean), arm("faulted", faulted())];
    let plan = RunPlan::new(30).with_runs(3).with_warmup(5);
    let strict = |threads| Executor::with_threads(threads).with_invariant_checks();
    let want = arm_by_arm(&strict(1), &arms, sharing, &plan).unwrap_err();
    assert!(
        matches!(want, CoreError::InvariantViolation { run: 0, .. }),
        "got {want}"
    );
    let exp = experiment(arms, plan);
    for threads in THREADS {
        assert_eq!(
            exp.run_with(&strict(threads), sharing).unwrap_err(),
            want,
            "T = {threads}"
        );
    }
}

/// Four threads of compute bursts with a commit every third op. Threads 2
/// and 3 panic once past the eight ops a fingerprint probe takes of each
/// thread, so only a machine that dispatches them trips: one with four
/// CPUs, not one with two whose quantum never expires.
#[derive(Debug, Clone)]
struct Tripwire {
    ops: Vec<u32>,
}

impl Workload for Tripwire {
    fn thread_count(&self) -> usize {
        4
    }

    fn next_op(&mut self, thread: ThreadId) -> Op {
        let i = thread.index();
        self.ops[i] += 1;
        if i >= 2 && self.ops[i] > 8 {
            panic!("a third thread was dispatched");
        }
        if self.ops[i].is_multiple_of(3) {
            return Op::TxnEnd;
        }
        Op::Compute {
            instructions: 40,
            code_block: BlockAddr(0xC0DE + i as u64),
        }
    }

    fn name(&self) -> &str {
        "tripwire"
    }
}

mtvar::sim::impl_snap!(Tripwire { ops });

#[test]
fn a_panicking_warmup_resurfaces_and_leaves_the_executor_usable() {
    let endless = SchedConfig {
        quantum_ns: 1_000_000_000_000,
        ..SchedConfig::default()
    };
    let cpus = |n| {
        MachineConfig::hpca2003()
            .with_cpus(n)
            .with_sched(endless)
            .with_perturbation(4, 0)
    };
    let make = || Tripwire { ops: vec![0; 4] };
    let plan = RunPlan::new(12).with_runs(3).with_warmup(12);
    // Two CPUs run threads 0 and 1 only, warmup and runs alike.
    let two = experiment(
        vec![
            arm("a", cpus(2)),
            arm("b", cpus(2).with_dram_latency_ns(150)),
        ],
        plan,
    );
    let tripping = experiment(
        vec![arm("two-cpus", cpus(2)), arm("four-cpus", cpus(4))],
        plan,
    );
    for (threads, stored, strict) in variants() {
        let what = format!("T = {threads}, store: {stored}, strict: {strict}");
        let store = stored.then(|| Arc::new(CheckpointStore::new()));
        let exec = executor(threads, store.as_ref(), strict);
        let payload = catch_unwind(AssertUnwindSafe(|| tripping.run_with(&exec, make)))
            .expect_err("the four-CPU warmup panics");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"a third thread was dispatched"),
            "{what}: the warmup's own panic"
        );
        let after = two.run_with(&exec, make).unwrap();
        let fresh = two
            .run_with(&executor(threads, None, strict), make)
            .unwrap();
        assert_eq!(after, fresh, "{what}: the executor must stay usable");
    }
}
