//! The checkpoint sweep's pipeline gate, run by `scripts/verify.sh` in
//! debug and in release. The invariance and shutdown checks run on an
//! observing executor and on a strict one, whose warm chain and runs carry
//! the invariant monitor.
//!
//! `sweep_positions_with` warms its starting points with one chain — a
//! machine that is snapshotted and keeps running, restored only when the
//! store holds something deeper — and, on an executor of two or more
//! threads, runs that chain on a thread of its own, one position ahead of
//! the forks. None of that may show in a result:
//!
//! 1. **Thread-count and store invariance** — at T = 1 / 2 / 4, with no
//!    store, an empty one, a full one and partly filled ones (which force
//!    the chain to switch between its live machine and a restore), the
//!    studies are equal and every stored snapshot is byte-equal to a
//!    straight warmup from cycle zero. The chain hands each position it
//!    simulates to the forks as its shared live machine and a store hit is
//!    decoded, so the partly filled stores also mix live and decoded
//!    templates, and make the chain share a machine it restored from a
//!    stored prefix.
//! 2. **Live chain == restore-extended chain** — on the paper's 16-CPU
//!    snooping OLTP machine and on a 64-CPU directory machine.
//! 3. **Failure order and shutdown** — the error returned is the earliest
//!    position's, whatever the chain thread met further ahead; the call
//!    returns, and the chain thread is gone when it does — also when the
//!    forks hold a lent template the chain is waiting to get back.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mtvar::core::checkpoint::CheckpointStore;
use mtvar::core::runspace::{Executor, RunPlan};
use mtvar::core::timesample::{sweep_positions_with, TimeSampleStudy};
use mtvar::core::CoreError;
use mtvar::sim::checkpoint::Checkpoint;
use mtvar::sim::config::{FaultSpec, MachineConfig};
use mtvar::sim::ids::{LockId, ThreadId};
use mtvar::sim::machine::Machine;
use mtvar::sim::mem::CoherenceState;
use mtvar::sim::ops::Op;
use mtvar::sim::workload::{SharingWorkload, Workload};
use mtvar::sim::SimError;
use mtvar::workloads::profile::ProfiledWorkload;
use mtvar::workloads::Benchmark;

const WORKLOAD_SEED: u64 = 42;

/// An executor of `threads` threads without a result cache, strict when
/// `strict`.
fn executor(threads: usize, strict: bool) -> Executor {
    let exec = Executor::with_threads(threads).without_cache();
    if strict {
        exec.with_invariant_checks()
    } else {
        exec
    }
}

/// Each position's snapshot as the store holds it after a sweep. Every
/// lookup must be a hit: asking may not simulate anything.
fn stored_snapshots(
    store: &Arc<CheckpointStore>,
    strict: bool,
    config: &MachineConfig,
    make: &impl Fn() -> ProfiledWorkload,
    positions: &[u64],
) -> Vec<Arc<Checkpoint>> {
    let exec = executor(1, strict).with_checkpoint_store(Arc::clone(store));
    let simulated = store.warmups_simulated();
    let snapshots = positions
        .iter()
        .map(|&pos| exec.warm_checkpoint(config, make, 0, pos, None).unwrap())
        .collect();
    assert_eq!(
        store.warmups_simulated(),
        simulated,
        "a position was missing"
    );
    snapshots
}

fn assert_byte_equal(got: &[Arc<Checkpoint>], want: &[Arc<Checkpoint>], what: &str) {
    assert_eq!(got.len(), want.len());
    for (i, (got, want)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            got.fingerprint(),
            want.fingerprint(),
            "{what}: position {i}"
        );
        assert!(
            got.payload() == want.payload(),
            "{what}: position {i} bytes"
        );
    }
}

#[test]
fn sweeps_are_thread_count_and_store_invariant() {
    const CPUS: usize = 4;
    let config = MachineConfig::hpca2003()
        .with_cpus(CPUS)
        .with_perturbation(4, 0x1DE7);
    let make = || Benchmark::Oltp.workload(CPUS, WORKLOAD_SEED);
    let positions: Vec<u64> = (1..=6).map(|i| i * 10).collect();
    let plan = RunPlan::new(15).with_runs(4);

    // Which positions the store holds before the sweep; `None` is no store.
    // A position the sweep simulates forks from the chain's live machine, a
    // stored one from a decode.
    let every: Vec<usize> = (0..positions.len()).collect();
    let prefills: [(&str, Option<&[usize]>); 7] = [
        ("no store", None),
        ("empty store", Some(&[])),
        ("full store", Some(&every)),
        // p0 built, p1 hit, p2 restored from p1, p3 hit, p4 restored, p5 hit.
        ("every other position", Some(&[1, 3, 5])),
        // p0 hit, p1 restored from p0, p2 hit, p3 restored, p4 hit, p5 restored.
        ("every other position from the first", Some(&[0, 2, 4])),
        // p0 built, p1 hit, p2 restored, p3 live, p4 hit, p5 restored.
        ("two positions", Some(&[1, 4])),
        // p0 hit, p1 restored from p0, then live to the end.
        ("first position", Some(&[0])),
    ];

    for strict in [false, true] {
        // The reference snapshots: each position warmed straight from cycle
        // zero, no store, no chain.
        let straight: Vec<Arc<Checkpoint>> = positions
            .iter()
            .map(|&pos| {
                executor(1, strict)
                    .warm_checkpoint(&config, &make, 0, pos, None)
                    .unwrap()
            })
            .collect();

        let mut reference: Option<TimeSampleStudy> = None;
        for (what, prefill) in prefills {
            for threads in [1, 2, 4] {
                let what = format!("{what}, T = {threads}, strict: {strict}");
                let mut exec = executor(threads, strict);
                let store = prefill.map(|held| {
                    let store = Arc::new(CheckpointStore::new());
                    let filler = executor(1, strict).with_checkpoint_store(Arc::clone(&store));
                    for &i in held {
                        filler
                            .warm_checkpoint(&config, &make, 0, positions[i], None)
                            .unwrap();
                    }
                    assert_eq!(store.len(), held.len());
                    store
                });
                if let Some(store) = &store {
                    exec = exec.with_checkpoint_store(Arc::clone(store));
                }

                let study = sweep_positions_with(&exec, &config, make, &positions, &plan).unwrap();
                assert_eq!(study.checkpoints(), positions, "{what}");
                // Equal studies are equal snapshots too: every run's seed
                // derives from its snapshot's fingerprint.
                assert_eq!(
                    reference.get_or_insert_with(|| study.clone()),
                    &study,
                    "{what}"
                );

                if let Some(store) = &store {
                    assert_eq!(store.len(), positions.len(), "{what}");
                    assert_eq!(
                        store.warmups_simulated(),
                        positions.len() as u64,
                        "{what}: each position is simulated once, before or by the sweep"
                    );
                    let stored = stored_snapshots(store, strict, &config, &make, &positions);
                    assert_byte_equal(&stored, &straight, &what);
                }
            }
        }
    }
}

/// Sweeps `positions` with the live chain (empty store, T = 2: every
/// position is a miss, so one machine runs through all of them on the chain
/// thread) and, separately, warms them one `warm_checkpoint` call at a time
/// (each call restores the deepest stored prefix and extends it).
fn live_chain_matches_restore_extension(config: &MachineConfig, cpus: usize) {
    let make = move || Benchmark::Oltp.workload(cpus, WORKLOAD_SEED);
    let positions = [4, 8, 12];
    let plan = RunPlan::new(5).with_runs(2);

    for strict in [false, true] {
        let live = Arc::new(CheckpointStore::new());
        let exec = executor(2, strict).with_checkpoint_store(Arc::clone(&live));
        let study = sweep_positions_with(&exec, config, make, &positions, &plan).unwrap();
        assert_eq!(live.warmups_simulated(), 3);

        let extended = Arc::new(CheckpointStore::new());
        let stepwise = executor(1, strict).with_checkpoint_store(Arc::clone(&extended));
        for pos in positions {
            stepwise
                .warm_checkpoint(config, &make, 0, pos, None)
                .unwrap();
        }
        assert_byte_equal(
            &stored_snapshots(&live, strict, config, &make, &positions),
            &stored_snapshots(&extended, strict, config, &make, &positions),
            "live chain vs restore-extended",
        );
        // And the forks of those snapshots, single-threaded, are the same
        // study.
        let again = sweep_positions_with(&stepwise, config, make, &positions, &plan).unwrap();
        assert_eq!(study, again, "strict: {strict}");
    }
}

#[test]
fn live_chain_snapshots_equal_restore_extended_ones_on_the_16_cpu_snooping_machine() {
    let config = MachineConfig::hpca2003().with_perturbation(4, 0x1DE7);
    assert_eq!(config.cpus, 16);
    live_chain_matches_restore_extension(&config, 16);
}

#[test]
fn live_chain_snapshots_equal_restore_extended_ones_on_a_64_cpu_directory_machine() {
    let config = MachineConfig::hpca2003()
        .with_cpus(64)
        .with_directory_coherence()
        .with_perturbation(4, 0x1DE7);
    live_chain_matches_restore_extension(&config, 64);
}

// ---------------------------------------------------------------------------
// Failure order and shutdown
// ---------------------------------------------------------------------------

/// Two threads of lock-free sharing traffic that wedge for good once each
/// has committed `limit` transactions: each takes a lock of its own with its
/// first op and holds it for ever, and asks for the other's when it is done.
/// The machine can therefore commit exactly `2 * limit` transactions, on
/// any perturbation seed, and reports a deadlock on the next.
#[derive(Debug, Clone)]
struct Wedging {
    inner: SharingWorkload,
    limit: u32,
    started: Vec<bool>,
    committed: Vec<u32>,
}

impl Wedging {
    fn new(limit: u32) -> Self {
        Wedging {
            inner: SharingWorkload::new(2, 9, 12, 512, 0),
            limit,
            started: vec![false; 2],
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
        let own_lock = |i: usize| LockId(100 + i as u32);
        if !self.started[i] {
            self.started[i] = true;
            return Op::Lock(own_lock(i));
        }
        if self.committed[i] == self.limit {
            return Op::Lock(own_lock(1 - i));
        }
        let op = self.inner.next_op(thread);
        if op == Op::TxnEnd {
            self.committed[i] += 1;
        }
        op
    }

    fn name(&self) -> &str {
        "wedging"
    }
}

mtvar::sim::impl_snap!(Wedging {
    inner,
    limit,
    started,
    committed
});

/// Counts the exits of threads other than the test's that called the
/// workload factory — on a pipelined sweep that is the chain thread, which
/// builds the machine. The guard parks in a thread-local, whose destructor
/// runs as the thread ends.
struct ExitGuard(Arc<AtomicUsize>);

impl Drop for ExitGuard {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

thread_local! {
    static EXIT_GUARD: std::cell::RefCell<Option<ExitGuard>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs a three-position sweep whose third warmup must wedge, on a thread of
/// its own so that a hang fails the test instead of stalling the suite.
/// Returns the sweep's error and how many foreign factory-calling threads
/// had exited by the time the sweep returned.
fn wedged_sweep(exec: Executor, config: MachineConfig) -> (CoreError, usize) {
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let home = std::thread::current().id();
        let exited = Arc::new(AtomicUsize::new(0));
        let make = || {
            if std::thread::current().id() != home {
                EXIT_GUARD.with(|guard| {
                    guard
                        .borrow_mut()
                        .get_or_insert_with(|| ExitGuard(Arc::clone(&exited)));
                });
            }
            Wedging::new(15)
        };
        // 30 commits in all. The runs of 10 span commits 11-18 and those of
        // 20 span 21-28; warming on from 20 to 40 wedges at 30.
        let plan = RunPlan::new(8).with_runs(3);
        let error = sweep_positions_with(&exec, &config, make, &[10, 20, 40], &plan).unwrap_err();
        let _ = done.send((error, exited.load(Ordering::SeqCst)));
    });
    outcome
        .recv_timeout(Duration::from_secs(120))
        .expect("the sweep hung or panicked instead of returning its error")
}

fn wedging_config() -> MachineConfig {
    MachineConfig::hpca2003()
        .with_cpus(2)
        .with_perturbation(4, 0)
}

#[test]
fn the_wedging_workload_commits_exactly_its_limit() {
    for config in [wedging_config(), wedging_config().with_invariant_checks()] {
        let mut machine = Machine::new(config, Wedging::new(15)).unwrap();
        machine.run_transactions(30).expect("2 x 15 commits");
        let err = machine.run_transactions(1).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "got {err}");
        assert!(machine.invariant_violations().is_empty());
    }
}

#[test]
fn a_failing_warmup_ends_the_sweep_and_the_chain_thread() {
    for (threads, strict) in [1, 2, 4].into_iter().flat_map(|t| [(t, false), (t, true)]) {
        let (error, chain_exits) = wedged_sweep(executor(threads, strict), wedging_config());
        assert!(
            matches!(error, CoreError::Sim(SimError::Deadlock { .. })),
            "T = {threads}, strict: {strict}: got {error}"
        );
        // T = 1 never leaves the calling thread; above it there is exactly
        // one chain thread, and the sweep does not return before it ends.
        assert_eq!(chain_exits, usize::from(threads > 1), "T = {threads}");
    }
}

#[test]
fn the_earliest_positions_error_wins_over_a_failure_further_ahead() {
    // Commit 24 falls inside the runs launched from 20 and nowhere before,
    // so a strict executor fails that position's runs — while the chain
    // thread, one position ahead, is wedging on its way to 40.
    let faulted = wedging_config().with_fault(FaultSpec::coherence(
        24,
        1,
        0xFA11,
        CoherenceState::Exclusive,
    ));
    for threads in [1, 2, 4] {
        let (error, chain_exits) = wedged_sweep(executor(threads, true), faulted.clone());
        assert!(
            matches!(error, CoreError::InvariantViolation { run: 0, .. }),
            "T = {threads}: position 20's violation must win, got {error}"
        );
        assert_eq!(chain_exits, usize::from(threads > 1), "T = {threads}");
    }
}

/// Runs `call` on a helper thread and fails the test if it has not returned
/// within two minutes: a sweep whose chain waits for a template while its
/// forks wait for a position would otherwise stall the suite.
fn within_deadline<T: Send + 'static>(what: &str, call: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, answer) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = done.send(call());
    });
    // Past the deadline the helper stays blocked and is left behind; the
    // test fails either way.
    let value = answer
        .recv_timeout(Duration::from_secs(120))
        .unwrap_or_else(|_| panic!("{what}: no answer within 120 s, the sweep hangs"));
    helper.join().expect("helper thread");
    value
}

/// Position `k` of four fails — in its runs, or in its warmup — at T = 2
/// and T = 4, where the forks hold the template the chain lent them while
/// the chain warms the next position and then waits to get it back. The
/// sweep returns, within the deadline, exactly the error the sequential
/// reading meets first (the T = 1 sweep's).
#[test]
fn a_pipelined_sweep_failing_at_any_position_returns_the_earliest_error() {
    // Runs of 3 from positions 5, 9, 13 and 17 span commits p+1..=p+3.
    const POSITIONS: [u64; 4] = [5, 9, 13, 17];
    let plan = RunPlan::new(3).with_runs(3);
    let sweep = |threads: usize, config: MachineConfig, limit: u32| {
        let what = format!("T = {threads}, {limit}-commit workload");
        within_deadline(&what, move || {
            sweep_positions_with(
                &executor(threads, true),
                &config,
                || Wedging::new(limit),
                &POSITIONS,
                &plan,
            )
            .unwrap_err()
        })
    };
    for (k, &position) in POSITIONS.iter().enumerate() {
        // Runs fail: a coherence fault planted at commit p_k + 2 lies in
        // position k's runs, and in no earlier position's runs or warmup.
        let faulted = wedging_config().with_fault(FaultSpec::coherence(
            position + 2,
            1,
            0xFA11,
            CoherenceState::Exclusive,
        ));
        // Warmup fails: 2 x limit = p_k - 1 commits fit, so the chain wedges
        // on its way to p_k, after the runs of p_(k-1) have used them all.
        let wedge_limit = ((position - 1) / 2) as u32;
        for (config, limit) in [(faulted, 100), (wedging_config(), wedge_limit)] {
            let reference = sweep(1, config.clone(), limit);
            match &reference {
                CoreError::InvariantViolation { run: 0, .. } if limit == 100 => {}
                CoreError::Sim(SimError::Deadlock { .. }) if limit != 100 => {}
                other => panic!("position {k}: unexpected reference error {other}"),
            }
            for threads in [2, 4] {
                assert_eq!(
                    sweep(threads, config.clone(), limit),
                    reference,
                    "position {k}, T = {threads}, {limit}-commit workload"
                );
            }
        }
    }
}
