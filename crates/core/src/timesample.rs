//! Time sampling (§5.2): runs from multiple starting points, and the ANOVA
//! that decides whether they are necessary.
//!
//! "ANOVA tells us whether it is sufficient to use runs from a single
//! starting point, or whether the sample should contain runs from many
//! starting points."

use std::sync::Arc;

use mtvar_sim::checkpoint::{Checkpoint, Snap};
use mtvar_sim::config::MachineConfig;
use mtvar_sim::machine::Machine;
use mtvar_sim::rng::Xoshiro256StarStar;
use mtvar_sim::workload::Workload;
use mtvar_stats::infer::{anova_one_way, Anova};

use crate::runspace::{Executor, RunPlan, WarmChain};
use crate::{CoreError, Result};

/// How starting points are placed through the workload's lifetime.
///
/// The paper uses systematic sampling and notes that "sampling techniques
/// other than systematic sampling can be used to select representative time
/// samples" as future work; the random and stratified placements implement
/// that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SamplingStrategy {
    /// Fixed spacing: point `i` at `(i+1) · span / points` (the paper's
    /// §5.2 choice).
    Systematic,
    /// Uniformly random positions over the span.
    Random {
        /// Seed for the placement draw.
        seed: u64,
    },
    /// One uniformly random position inside each of `points` equal strata —
    /// random coverage without clustering.
    Stratified {
        /// Seed for the placement draw.
        seed: u64,
    },
}

/// Computes sorted checkpoint positions (cumulative warmup transactions,
/// each in `[1, span_txns]`) for `points` starting points over a lifetime of
/// `span_txns`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidExperiment`] if `points < 2` or the span is
/// too short to give each point a distinct position.
pub fn checkpoint_positions(
    strategy: SamplingStrategy,
    points: usize,
    span_txns: u64,
) -> Result<Vec<u64>> {
    if points < 2 {
        return Err(CoreError::InvalidExperiment {
            what: "time sampling needs at least two starting points".into(),
        });
    }
    if span_txns < points as u64 {
        return Err(CoreError::InvalidExperiment {
            what: format!("a {span_txns}-transaction span cannot host {points} distinct points"),
        });
    }
    let n = points as u64;
    // `i * span / n` in u128: the product overflows u64 on long spans.
    let at = |i: u64| (u128::from(i) * u128::from(span_txns) / u128::from(n)) as u64;
    let mut positions: Vec<u64> = match strategy {
        SamplingStrategy::Systematic => (1..=n).map(at).collect(),
        SamplingStrategy::Random { seed } => {
            let mut rng = Xoshiro256StarStar::new(seed ^ 0x7153_A3B1_E5EE_DF1C);
            (0..n).map(|_| 1 + rng.next_below(span_txns)).collect()
        }
        SamplingStrategy::Stratified { seed } => {
            let mut rng = Xoshiro256StarStar::new(seed ^ 0x7153_A3B1_E5EE_DF1C);
            (0..n)
                .map(|i| {
                    let (lo, hi) = (at(i), at(i + 1));
                    lo + 1 + rng.next_below((hi - lo).max(1))
                })
                .collect()
        }
    };
    positions.sort_unstable();
    // Force strict monotonicity (random draws may collide), then pull the
    // positions the bump pushed past the span back under it from the top.
    for i in 1..positions.len() {
        if positions[i] <= positions[i - 1] {
            positions[i] = positions[i - 1].saturating_add(1);
        }
    }
    let mut ceiling = span_txns;
    for pos in positions.iter_mut().rev() {
        *pos = (*pos).min(ceiling);
        ceiling = *pos - 1;
    }
    Ok(positions)
}

/// Per-checkpoint run groups: `groups[p]` holds the cycles-per-transaction
/// of every perturbed run launched from starting point `p`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSampleStudy {
    groups: Vec<Vec<f64>>,
    /// Warmup transactions executed before each starting point, aligned with
    /// `groups`.
    checkpoints: Vec<u64>,
    /// Total invariant violations of each checkpoint's sweep, aligned with
    /// `groups` (all zeros for externally collected or unmonitored groups).
    violations: Vec<u64>,
}

impl TimeSampleStudy {
    /// Wraps externally collected groups.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidExperiment`] if fewer than two groups or
    /// the label count mismatches.
    pub fn from_groups(groups: Vec<Vec<f64>>, checkpoints: Vec<u64>) -> Result<Self> {
        if groups.len() < 2 {
            return Err(CoreError::InvalidExperiment {
                what: "time-sampling analysis needs at least two starting points".into(),
            });
        }
        if groups.len() != checkpoints.len() {
            return Err(CoreError::InvalidExperiment {
                what: "each group needs a checkpoint label".into(),
            });
        }
        let violations = vec![0; groups.len()];
        Ok(TimeSampleStudy {
            groups,
            checkpoints,
            violations,
        })
    }

    /// The run groups.
    pub fn groups(&self) -> &[Vec<f64>] {
        &self.groups
    }

    /// The checkpoint positions (cumulative warmup transactions).
    pub fn checkpoints(&self) -> &[u64] {
        &self.checkpoints
    }

    /// Total invariant violations per checkpoint sweep, aligned with
    /// [`TimeSampleStudy::groups`]. All zeros when the sweeps ran
    /// unmonitored (use a strict or monitored executor for the counts to
    /// mean anything) or the study was built from external groups.
    pub fn violation_counts(&self) -> &[u64] {
        &self.violations
    }

    /// Whether no checkpoint sweep recorded an invariant violation — as
    /// strong as the monitoring behind the sweeps.
    pub fn is_clean(&self) -> bool {
        self.violations.iter().all(|&v| v == 0)
    }

    /// One-way ANOVA of between-checkpoint vs within-checkpoint variability.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stats`] for degenerate groups.
    pub fn anova(&self) -> Result<Anova> {
        let refs: Vec<&[f64]> = self.groups.iter().map(Vec::as_slice).collect();
        Ok(anova_one_way(&refs)?)
    }

    /// The §5.2 decision: whether between-group (time) variability is
    /// significant at `alpha`, i.e. whether simulations "should be performed
    /// from different starting points".
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stats`] for degenerate groups.
    pub fn requires_time_sampling(&self, alpha: f64) -> Result<bool> {
        Ok(self.anova()?.is_significant(alpha))
    }
}

/// Collects a [`TimeSampleStudy`] (§5.2) over explicit starting points —
/// `positions` are cumulative warmup transactions, strictly increasing, e.g.
/// from [`checkpoint_positions`]. Builds the machine itself from
/// `(config, make_workload)`, warms each position with the one warmup body
/// behind [`Executor::warm_checkpoint`] — so an attached
/// [`CheckpointStore`](crate::checkpoint::CheckpointStore) memoizes the
/// warmed states across sweeps and processes — and forks each position's
/// perturbed run space as [`Executor::run_space_from_snapshot`] would from
/// that position's snapshot.
///
/// Consecutive positions chain even without a store: the machine that
/// warmed position `p[i]` is snapshotted and then simply keeps running to
/// `p[i+1]` (a stored snapshot deeper than that machine is restored
/// instead), so one sweep simulates `max(positions)` warmup transactions in
/// total rather than their sum. Nor does the sweep decode the snapshots it
/// takes: a position the chain simulated forks its runs from the chain's
/// live machine, shared in place ([`Machine::share`]) and forked, and only
/// a position found in the store is decoded. The snapshot still goes to
/// the store and still seeds the runs, and a machine and its restore launch
/// one run space, so results are those of decoded templates.
///
/// On an executor of two or more threads the chain runs on a thread of its
/// own, exactly one position ahead: while the executor's workers run the
/// forks of `p[i]`, the chain thread warms `p[i+1]` and then waits to hand
/// it over. Each live template goes back to the chain thread once its runs
/// are done, before the chain shares its machine again, so the share folds
/// the chain's writes back into the arrays in place, and every buffer is
/// freed on the thread that allocated it. The warmups themselves stay
/// strictly serial, one machine advancing through the positions in order,
/// so every snapshot — and with it every seed and result — is the one a
/// single-threaded sweep takes. On an executor of one thread the chain is
/// advanced on the calling thread and the sweep starts no thread at all.
///
/// Seeds derive from each snapshot's content fingerprint, so the positions'
/// seed streams are decorrelated without manual seed blocking. Warmup is
/// unperturbed under this protocol (the perturbation stream starts
/// at each run's measurement start); see `EXPERIMENTS.md` for how that
/// differs from the legacy perturb-from-cycle-zero semantics.
///
/// # Errors
///
/// Returns [`CoreError::InvalidExperiment`] for fewer than two positions or
/// non-increasing positions, and propagates simulator errors: the error of
/// the earliest position that failed, whether in its warmup or in its runs,
/// regardless of what the chain thread met further ahead.
#[expect(clippy::disallowed_methods, reason = "the chain thread starts here")]
pub fn sweep_positions_with<W, F>(
    executor: &Executor,
    config: &MachineConfig,
    make_workload: F,
    positions: &[u64],
    plan: &RunPlan,
) -> Result<TimeSampleStudy>
where
    W: Workload + Snap + Clone + Send + Sync,
    F: Fn() -> W + Sync,
{
    if positions.len() < 2 {
        return Err(CoreError::InvalidExperiment {
            what: "sweep needs >= 2 starting points".into(),
        });
    }
    if positions.windows(2).any(|w| w[1] <= w[0]) || positions[0] == 0 {
        return Err(CoreError::InvalidExperiment {
            what: "checkpoint positions must be strictly increasing and positive".into(),
        });
    }
    let mut chain = WarmChain::new(executor, config, &make_workload, plan.base_seed);
    // The one sweep loop: fork each position's runs from its template, in
    // order, stopping at the first failure — wherever the positions come
    // from. Each template the chain lent is handed back through `give_back`
    // as soon as its runs are done: before the loop waits for the next
    // position, and before it returns an error.
    let fork_each = |handoffs: &mut dyn Iterator<Item = Handoff<W>>,
                     give_back: &mut dyn FnMut(Machine<W>)| {
        let mut groups = Vec::with_capacity(positions.len());
        let mut violations = Vec::with_capacity(positions.len());
        for handoff in handoffs {
            let (snapshot, template) = handoff?;
            let space = executor.run_space_from_template(
                &snapshot,
                template.as_ref(),
                config.perturbation_max_ns,
                plan,
            );
            if let Some(template) = template {
                give_back(template);
            }
            let space = space?;
            groups.push(space.runtimes());
            violations.push(space.total_violations());
        }
        let mut study = TimeSampleStudy::from_groups(groups, positions.to_vec())?;
        study.violations = violations;
        Ok(study)
    };
    if executor.threads() == 1 {
        // Each template is dropped as soon as its runs are done, so the
        // live machine holds its arrays alone again when it next writes
        // them and takes them back without a copy.
        let mut handoffs = positions.iter().map(|&pos| {
            let snapshot = chain.advance(pos, None)?;
            Ok((snapshot, chain.template(pos)))
        });
        return fork_each(&mut handoffs, &mut drop);
    }
    std::thread::scope(|scope| {
        // Two channels. `ahead` is a rendezvous: the chain thread warms
        // position i+1 while the loop above forks position i, then blocks
        // until the loop comes back for it — never more than one position
        // ahead. `returned` carries each lent template back, and the chain
        // waits for it before it shares its live machine again: with the
        // template gone (its runs are done) nobody else holds the machine's
        // arrays, so the share folds them in place instead of copying them
        // whole. (Where the template drops does not matter to the arena,
        // which is one pool for the process.)
        let (ahead, handoffs) = std::sync::mpsc::sync_channel::<Handoff<W>>(0);
        let (give_back, returned) = std::sync::mpsc::channel::<Machine<W>>();
        let chain_thread = scope.spawn(move || {
            let mut lent = false;
            for &pos in positions {
                let snapshot = chain.advance(pos, None);
                // Wait for the previous template before the next share, so
                // the share folds in place; if the loop has ended instead
                // (failed), stop.
                if lent && returned.recv().is_err() {
                    return;
                }
                let handoff = snapshot.map(|snapshot| (snapshot, chain.template(pos)));
                let failed = handoff.is_err();
                let lends = matches!(handoff, Ok((_, Some(_))));
                // The receiver is gone once the loop has failed: stop warming
                // (a template that never left is dropped right here).
                if ahead.send(handoff).is_err() || failed {
                    return;
                }
                lent = lends;
            }
            // The last template comes back once its runs are done, or the
            // loop fails and drops the sender.
            if lent {
                let _ = returned.recv();
            }
        });
        // The loop hands each template back before it waits for the next
        // position, so the chain thread is never waiting for a template
        // while the loop waits for a position. When the loop ends (early or
        // not), dropping the receiver and the sender releases a chain thread
        // blocked in `send` or in `recv`.
        let study = fork_each(&mut handoffs.into_iter(), &mut |template| {
            // A chain thread that has already stopped no longer takes it.
            let _ = give_back.send(template);
        });
        drop(give_back);
        // Joined by hand rather than left to the scope: the thread has then
        // exited, its live machine's arrays retired to the decode arena,
        // before the sweep returns, and a panic inside a warmup resurfaces
        // as itself.
        if let Err(panic) = chain_thread.join() {
            std::panic::resume_unwind(panic);
        }
        study
    })
}

/// One position as the warm chain hands it to the fork side: the snapshot,
/// and — when the chain simulated the position rather than finding it in
/// the store — a fork of its live machine in that state, the template the
/// position's runs fork from instead of a decode of the snapshot.
type Handoff<W> = Result<(Arc<Checkpoint>, Option<Machine<W>>)>;

#[cfg(test)]
mod tests {
    use super::*;
    use mtvar_sim::config::MachineConfig;
    use mtvar_sim::workload::SharingWorkload;

    #[test]
    fn study_validation() {
        assert!(TimeSampleStudy::from_groups(vec![vec![1.0]], vec![0]).is_err());
        assert!(TimeSampleStudy::from_groups(vec![vec![1.0], vec![2.0]], vec![0]).is_err());
    }

    #[test]
    fn anova_detects_group_shift() {
        let study = TimeSampleStudy::from_groups(
            vec![
                vec![10.0, 10.1, 9.9, 10.0],
                vec![12.0, 12.1, 11.9, 12.0],
                vec![14.0, 14.1, 13.9, 14.0],
            ],
            vec![100, 200, 300],
        )
        .unwrap();
        assert!(study.requires_time_sampling(0.01).unwrap());
        assert!(study.anova().unwrap().f_statistic() > 10.0);
    }

    #[test]
    fn anova_accepts_homogeneous_groups() {
        let study = TimeSampleStudy::from_groups(
            vec![
                vec![10.0, 10.4, 9.6, 10.1],
                vec![10.1, 9.7, 10.3, 10.0],
                vec![9.9, 10.2, 9.8, 10.2],
            ],
            vec![100, 200, 300],
        )
        .unwrap();
        assert!(!study.requires_time_sampling(0.05).unwrap());
    }

    #[test]
    fn sweep_surfaces_per_checkpoint_violations() {
        use mtvar_sim::config::FaultSpec;
        use mtvar_sim::mem::CoherenceState;
        // Snapshots sit at cumulative commits 15 and 30 and each run
        // measures 20 transactions, so runs from the first snapshot span
        // commits 16-35 and runs from the second span 31-50. Commit 33 lies
        // in both windows (and past the sweep's own warmup advances), so the
        // fault fires inside every group's runs and nowhere else.
        let cfg = MachineConfig::hpca2003()
            .with_cpus(2)
            .with_perturbation(4, 0)
            .with_invariant_checks()
            .with_fault(FaultSpec::coherence(
                33,
                1,
                0xFA11,
                CoherenceState::Exclusive,
            ));
        let wl = || SharingWorkload::new(4, 3, 30, 2048, 8);
        let plan = RunPlan::new(20).with_runs(2);
        let study =
            sweep_positions_with(&Executor::sequential(), &cfg, wl, &[15, 30], &plan).unwrap();
        assert!(!study.is_clean());
        assert!(
            study.violation_counts().iter().all(|&v| v > 0),
            "every position's runs cross commit 33: {:?}",
            study.violation_counts()
        );
    }

    #[test]
    fn systematic_positions_are_even() {
        let p = checkpoint_positions(SamplingStrategy::Systematic, 5, 1000).unwrap();
        assert_eq!(p, vec![200, 400, 600, 800, 1000]);
    }

    #[test]
    fn random_positions_are_sorted_distinct_in_span() {
        let p = checkpoint_positions(SamplingStrategy::Random { seed: 7 }, 10, 5000).unwrap();
        assert_eq!(p.len(), 10);
        assert!(p.windows(2).all(|w| w[1] > w[0]));
        assert!(p.iter().all(|&x| x >= 1));
        // Same seed reproduces, different seed differs.
        let q = checkpoint_positions(SamplingStrategy::Random { seed: 7 }, 10, 5000).unwrap();
        assert_eq!(p, q);
        let r = checkpoint_positions(SamplingStrategy::Random { seed: 8 }, 10, 5000).unwrap();
        assert_ne!(p, r);
        // Colliding draws are bumped forward, never past the span's end:
        // eight points over a span of eight fill it exactly.
        for seed in 0..200 {
            let p = checkpoint_positions(SamplingStrategy::Random { seed }, 8, 8).unwrap();
            assert_eq!(p, (1..=8).collect::<Vec<u64>>(), "seed {seed}");
        }
    }

    #[test]
    fn stratified_positions_hit_every_stratum() {
        let points = 8;
        let span = 8000;
        let p =
            checkpoint_positions(SamplingStrategy::Stratified { seed: 3 }, points, span).unwrap();
        for (i, &pos) in p.iter().enumerate() {
            let lo = (i as u64) * span / points as u64;
            let hi = (i as u64 + 1) * span / points as u64;
            assert!(
                pos > lo && pos <= hi + 1,
                "position {pos} escapes stratum [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn positions_validation() {
        assert!(checkpoint_positions(SamplingStrategy::Systematic, 1, 100).is_err());
        assert!(checkpoint_positions(SamplingStrategy::Systematic, 10, 5).is_err());
        // Spans near u64::MAX place points without overflowing.
        let span = u64::MAX / 2;
        let p = checkpoint_positions(SamplingStrategy::Systematic, 4, span).unwrap();
        let exact = [
            2_305_843_009_213_693_951,
            4_611_686_018_427_387_903,
            6_917_529_027_641_081_855,
            9_223_372_036_854_775_807,
        ];
        assert_eq!(p, exact);
        for strategy in [
            SamplingStrategy::Stratified { seed: 5 },
            SamplingStrategy::Random { seed: 5 },
        ] {
            let p = checkpoint_positions(strategy, 4, span).unwrap();
            assert!(p.windows(2).all(|w| w[1] > w[0]) && p[0] >= 1 && p[3] <= span);
        }
    }

    #[test]
    fn sweep_positions_is_store_invariant_and_validates() {
        use crate::checkpoint::CheckpointStore;
        use std::sync::Arc;
        let cfg = MachineConfig::hpca2003()
            .with_cpus(2)
            .with_perturbation(4, 0);
        let wl = || SharingWorkload::new(4, 3, 30, 2048, 8);
        let plan = RunPlan::new(15).with_runs(3);
        let bare = Executor::sequential();
        let a = sweep_positions_with(&bare, &cfg, wl, &[10, 25, 45], &plan).unwrap();
        assert_eq!(a.checkpoints(), &[10, 25, 45]);
        assert_eq!(a.groups().len(), 3);
        assert_eq!(a.groups()[0].len(), 3);
        assert_eq!(a.violation_counts(), &[0, 0, 0]);
        assert!(a.is_clean());

        // A store must change the work done, never the statistics.
        let store = Arc::new(CheckpointStore::new());
        let stored = Executor::sequential().with_checkpoint_store(store.clone());
        let b = sweep_positions_with(&stored, &cfg, wl, &[10, 25, 45], &plan).unwrap();
        assert_eq!(a, b);
        assert_eq!(store.len(), 3, "one snapshot memoized per position");
        let c = sweep_positions_with(&stored, &cfg, wl, &[10, 25, 45], &plan).unwrap();
        assert_eq!(a, c);
        assert_eq!(store.len(), 3);

        assert!(sweep_positions_with(&bare, &cfg, wl, &[10], &plan).is_err());
        assert!(sweep_positions_with(&bare, &cfg, wl, &[10, 10], &plan).is_err());
        assert!(sweep_positions_with(&bare, &cfg, wl, &[0, 10], &plan).is_err());
    }
}
