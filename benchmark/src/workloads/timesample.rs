//! `timesample`: a checkpoint sweep over many starting points.
//!
//! One snapshot encode, one prefix-extending restore, one template decode
//! and eight forks per position surround only about a third kernel time, so
//! this is the launch-dominated workload: snapshot, decode, fork, arena,
//! store and pool changes show here and barely move `compare` or `kernel`.

use std::sync::Arc;

use mtvar_core::checkpoint::CheckpointStore;
use mtvar_core::runspace::{Executor, RunPlan, RunProgress};
use mtvar_core::timesample::{sweep_positions_with, TimeSampleStudy};
use mtvar_serve::protocol::fold_digest;
use mtvar_sim::checkpoint::Checkpoint;
use mtvar_sim::config::MachineConfig;
use mtvar_workloads::profile::ProfiledWorkload;
use mtvar_workloads::Benchmark;

use super::{fold_f64s, Outcome, RunFold, TraceCtx};

pub const NAME: &str = "timesample";
const POSITIONS: u64 = 20;
const SPACING: u64 = 50;

#[derive(Debug)]
pub struct Timesample {
    seed: u64,
    config: MachineConfig,
    positions: Vec<u64>,
    plan: RunPlan,
}

impl Timesample {
    pub fn new(seed: u64) -> Self {
        Timesample {
            seed,
            config: MachineConfig::hpca2003().with_perturbation(4, 0),
            positions: (1..=POSITIONS).map(|i| i * SPACING).collect(),
            plan: RunPlan::new(25).with_runs(8),
        }
    }

    pub fn positions(&self) -> &[u64] {
        &self.positions
    }

    fn workload(&self) -> ProfiledWorkload {
        Benchmark::Oltp.workload(16, self.seed)
    }

    /// One sweep on a fresh, cacheless executor of `threads` threads with a
    /// fresh in-memory checkpoint store.
    ///
    /// Untraced, it is one call of `sweep_positions_with`. Traced, the same
    /// steps are made one by one through public functions so that each can
    /// be timed; both paths must fold to the same digest. The traced path
    /// also hands back the snapshots it took.
    pub fn iterate(
        &self,
        threads: usize,
        trace: Option<TraceCtx<'_>>,
    ) -> (Outcome, Vec<Arc<Checkpoint>>) {
        let fold = RunFold::new(NAME, trace);
        let executor = Executor::with_threads(threads)
            .without_cache()
            .with_checkpoint_store(Arc::new(CheckpointStore::new()))
            .with_progress(fold.clone() as Arc<dyn RunProgress>);
        let mut snapshots = Vec::new();
        let study = match trace {
            None => sweep_positions_with(
                &executor,
                &self.config,
                || self.workload(),
                &self.positions,
                &self.plan,
            )
            .ok(),
            Some(ctx) => self.sweep_traced(&executor, &fold, ctx, &mut snapshots),
        };
        let attempted = (self.positions.len() * self.plan.runs) as u64 + 1;
        let (digest, failed) = match study.as_ref().map(|s| (s, s.anova())) {
            Some((study, Ok(anova))) => {
                let digest = study
                    .groups()
                    .iter()
                    .fold(fold.digest_sum(), |acc, group| fold_f64s(acc, group));
                (
                    fold_digest(digest, anova.f_statistic().to_bits()),
                    attempted - 1 - fold.runs(),
                )
            }
            _ => (0, attempted - fold.runs()),
        };
        let outcome = Outcome {
            work: fold.runs(),
            sim_cycles: fold.cycles(),
            digest,
            attempted,
            failed,
        };
        (outcome, snapshots)
    }

    fn sweep_traced(
        &self,
        executor: &Executor,
        fold: &RunFold,
        ctx: TraceCtx<'_>,
        snapshots: &mut Vec<Arc<Checkpoint>>,
    ) -> Option<TimeSampleStudy> {
        let TraceCtx { tracer, iteration } = ctx;
        tracer.span("timesample.iteration", NAME, iteration, None, |root| {
            let mut groups = Vec::with_capacity(self.positions.len());
            let mut prev: Option<(u64, Arc<Checkpoint>)> = None;
            for &position in &self.positions {
                let snapshot = tracer
                    .span("runspace.warmup", NAME, iteration, Some(root), |_| {
                        executor.warm_checkpoint(
                            &self.config,
                            &|| self.workload(),
                            self.plan.base_seed,
                            position,
                            prev.as_ref().map(|(warmed, ck)| (*warmed, ck.as_ref())),
                        )
                    })
                    .ok()?;
                let space = tracer
                    .span("runspace.sweep", NAME, iteration, Some(root), |sweep| {
                        fold.enter_sweep(sweep);
                        executor.run_space_from_snapshot::<ProfiledWorkload>(
                            &snapshot,
                            self.config.perturbation_max_ns,
                            &self.plan,
                        )
                    })
                    .ok()?;
                groups.push(space.runtimes());
                snapshots.push(Arc::clone(&snapshot));
                prev = Some((position, snapshot));
            }
            tracer.span("stats.anova", NAME, iteration, Some(root), |_| {
                TimeSampleStudy::from_groups(groups, self.positions.clone()).ok()
            })
        })
    }
}
