//! End-to-end tests of the executor's invariant-violations channel: a
//! doc-hidden fault hook plants an illegal coherence state mid-run, and the
//! suite asserts the violation reaches [`RunProgress::run_violations`]
//! identically on 1 and N threads, replays on cache hits, and fails strict
//! executors with [`CoreError::InvariantViolation`] — never silently
//! dropped.
//!
//! The expectations that depend on whether a run was monitored test both
//! arms in one process: the same sweep with and without
//! `MachineConfig::with_invariant_checks`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mtvar::core::runspace::{Executor, ProgressCounters, RunPlan, RunProgress, Violation};
use mtvar::core::CoreError;
use mtvar::sim::config::{FaultSpec, MachineConfig};
use mtvar::sim::machine::Machine;
use mtvar::sim::mem::CoherenceState;
use mtvar::sim::workload::SharingWorkload;

/// Records every `run_violations` callback, keyed by run index — the
/// bit-identical-across-thread-counts comparisons are over this map.
#[derive(Debug, Default)]
struct ViolationMap {
    seen: Mutex<BTreeMap<usize, Vec<Violation>>>,
}

impl ViolationMap {
    fn snapshot(&self) -> BTreeMap<usize, Vec<Violation>> {
        self.seen.lock().unwrap().clone()
    }
}

impl RunProgress for ViolationMap {
    fn run_violations(&self, run_index: usize, violations: &[Violation]) {
        let prior = self
            .seen
            .lock()
            .unwrap()
            .insert(run_index, violations.to_vec());
        assert!(
            prior.is_none(),
            "run {run_index} reported violations twice in one sweep"
        );
    }
}

fn fault() -> FaultSpec {
    // Exclusive is illegal under the default MOSI protocol, so the monitor
    // flags the planted state unconditionally.
    FaultSpec::coherence(12, 1, 0xFA11, CoherenceState::Exclusive)
}

/// Monitored configuration with the fault armed: every run of a space
/// commits past transaction 12 and records at least one violation.
fn faulted_config() -> MachineConfig {
    MachineConfig::hpca2003()
        .with_cpus(4)
        .with_perturbation(4, 0)
        .with_invariant_checks()
        .with_fault(fault())
}

fn clean_config() -> MachineConfig {
    MachineConfig::hpca2003()
        .with_cpus(4)
        .with_perturbation(4, 0)
        .with_invariant_checks()
}

fn workload() -> SharingWorkload {
    SharingWorkload::new(8, 7, 40, 4096, 10)
}

#[test]
fn observing_mode_reports_identically_across_thread_counts() {
    let plan = RunPlan::new(30).with_runs(4);
    let reference: Option<BTreeMap<usize, Vec<Violation>>> = None;
    let mut reference = reference;
    for threads in [1, 2, 4] {
        let map = Arc::new(ViolationMap::default());
        let space = Executor::with_threads(threads)
            .without_cache()
            .with_progress(map.clone())
            .run_space(&faulted_config(), workload, &plan)
            .unwrap();
        let snap = map.snapshot();
        assert_eq!(snap.len(), 4, "every run must report on {threads} threads");
        assert!(!space.is_clean());
        assert_eq!(space.violations().len(), 4);
        // The space's own records agree with what the observer saw.
        for rv in space.violations() {
            assert_eq!(snap.get(&rv.run), Some(&rv.violations));
            assert!(rv.total >= rv.violations.len() as u64);
        }
        match &reference {
            None => reference = Some(snap),
            Some(expected) => assert_eq!(
                expected, &snap,
                "violation reports differ on {threads} threads"
            ),
        }
    }
}

#[test]
fn cache_hits_replay_the_same_violations() {
    let plan = RunPlan::new(30).with_runs(3);
    let map = Arc::new(ViolationMap::default());
    let counters = Arc::new(ProgressCounters::new());
    let exec = Executor::with_threads(2).with_progress(map.clone());
    let first = exec.run_space(&faulted_config(), workload, &plan).unwrap();
    let simulated = map.snapshot();
    assert_eq!(simulated.len(), 3);

    // Same cache, fresh observer: the second sweep is all cache hits and
    // must replay byte-identical violation reports.
    let replay = Arc::new(ViolationMap::default());
    let exec = exec.with_progress(replay.clone());
    let second = exec.run_space(&faulted_config(), workload, &plan).unwrap();
    assert_eq!(simulated, replay.snapshot(), "cache hits must replay");
    assert_eq!(first, second);

    // And ProgressCounters sees cached runs, not re-simulations.
    let exec = exec.with_progress(counters.clone());
    let _ = exec.run_space(&faulted_config(), workload, &plan).unwrap();
    assert_eq!(counters.cached(), 3);
    assert_eq!(counters.completed(), 0);
    assert_eq!(counters.violating_runs(), 3);
}

#[test]
fn strict_mode_turns_violations_into_typed_errors() {
    let plan = RunPlan::new(30).with_runs(4);
    for threads in [1, 4] {
        let exec = Executor::with_threads(threads).with_invariant_checks();
        assert!(exec.strict_invariants());
        let err = exec
            .run_space(&faulted_config(), workload, &plan)
            .unwrap_err();
        match err {
            CoreError::InvariantViolation { run, report } => {
                assert_eq!(run, 0, "lowest violating run wins on {threads} threads");
                assert!(!report.is_empty());
            }
            other => panic!("expected InvariantViolation, got {other}"),
        }
    }
}

#[test]
fn strict_mode_monitors_even_unmonitored_configs() {
    // No with_invariant_checks on the config: observing mode catches the
    // fault only once the config asks for a monitor, but strict mode must
    // always catch it.
    let cfg = MachineConfig::hpca2003()
        .with_cpus(4)
        .with_perturbation(4, 0)
        .with_fault(fault());
    let plan = RunPlan::new(30).with_runs(2);

    let err = Executor::with_threads(2)
        .with_invariant_checks()
        .run_space(&cfg, workload, &plan)
        .unwrap_err();
    assert!(matches!(err, CoreError::InvariantViolation { run: 0, .. }));

    // Its monitored twin is faulted_config(), whose observing sweeps report
    // every run in observing_mode_reports_identically_across_thread_counts.
    let space = Executor::with_threads(2)
        .without_cache()
        .run_space(&cfg, workload, &plan)
        .unwrap();
    assert!(space.is_clean(), "unmonitored sweeps are vacuously clean");
}

/// An observing sweep fills the cache, then a strict clone of the executor
/// repeats it: entries a monitor watched are trusted, unmonitored ones
/// re-simulate.
#[test]
fn strict_mode_distrusts_unmonitored_cache_entries() {
    let plan = RunPlan::new(25).with_runs(3);
    let unmonitored = MachineConfig::hpca2003()
        .with_cpus(4)
        .with_perturbation(4, 0);
    for (cfg, trusted) in [(clean_config(), true), (unmonitored, false)] {
        let counters = Arc::new(ProgressCounters::new());
        let observing = Executor::with_threads(2).with_progress(counters.clone());
        let a = observing.run_space(&cfg, workload, &plan).unwrap();
        assert_eq!(counters.completed(), 3);

        let strict = observing.clone().with_invariant_checks();
        let b = strict.run_space(&cfg, workload, &plan).unwrap();
        assert_eq!(a.results(), b.results(), "strict must not change results");
        assert!(b.is_clean());
        let (completed, cached) = if trusted { (3, 3) } else { (6, 0) };
        assert_eq!(counters.completed(), completed, "trusted: {trusted}");
        assert_eq!(counters.cached(), cached, "trusted: {trusted}");
    }
}

#[test]
fn clean_sweeps_are_identical_with_and_without_strictness() {
    let plan = RunPlan::new(30).with_runs(4).with_warmup(10);
    let observing = Executor::with_threads(2)
        .run_space(&clean_config(), workload, &plan)
        .unwrap();
    let strict = Executor::with_threads(2)
        .with_invariant_checks()
        .run_space(&clean_config(), workload, &plan)
        .unwrap();
    assert_eq!(observing.results(), strict.results());
    assert!(observing.is_clean());
    assert!(strict.is_clean());
    assert_eq!(strict.total_violations(), 0);
}

#[test]
fn checkpoint_spaces_carry_the_channel_too() {
    let mut m = Machine::new(faulted_config(), workload()).unwrap();
    // Snapshot before the fault's trigger commit so it fires inside each run.
    m.run_transactions(5).unwrap();
    assert!(m.invariant_violations().is_empty());
    let plan = RunPlan::new(30).with_runs(3);
    let from_snapshot = |executor: Executor| {
        executor.run_space_from_snapshot::<SharingWorkload>(&m.snapshot(), 4, &plan)
    };

    let mut reference: Option<BTreeMap<usize, Vec<Violation>>> = None;
    for threads in [1, 4] {
        let map = Arc::new(ViolationMap::default());
        let executor = Executor::with_threads(threads)
            .without_cache()
            .with_progress(map.clone());
        let space = from_snapshot(executor).unwrap();
        assert_eq!(space.violations().len(), 3);
        let snap = map.snapshot();
        match &reference {
            None => reference = Some(snap),
            Some(expected) => assert_eq!(expected, &snap),
        }
    }

    let err = from_snapshot(Executor::with_threads(2).with_invariant_checks()).unwrap_err();
    assert!(matches!(err, CoreError::InvariantViolation { run: 0, .. }));
}
