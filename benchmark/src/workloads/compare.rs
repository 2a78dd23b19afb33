//! `compare`: the paper's A-versus-B experiment, "submit a comparison, get a
//! verdict", on a batch user's cold path.
//!
//! About nine tenths of it is kernel time spread over 40 independent runs,
//! so it is where the run-space pool's parallel speed-up (or collapse) and a
//! kernel gain both reach the user; the snapshot path and the daemon do
//! almost nothing.

use mtvar_core::compare::Comparison;
use mtvar_core::experiment::{Arm, Experiment};
use mtvar_core::runspace::{Executor, RunPlan, RunProgress};
use mtvar_core::wcr::wrong_conclusion_ratio;
use mtvar_serve::protocol::{checksum, fold_digest};
use mtvar_sim::config::MachineConfig;
use mtvar_sim::proc::{OooConfig, ProcessorConfig};
use mtvar_workloads::profile::ProfiledWorkload;
use mtvar_workloads::Benchmark;

use super::{fold_f64s, Outcome, RunFold, TraceCtx};

pub const NAME: &str = "compare";
const ALPHA: f64 = 0.05;

#[derive(Debug)]
pub struct Compare {
    seed: u64,
    arms: Vec<Arm>,
    plan: RunPlan,
    experiment: Experiment,
}

impl Compare {
    pub fn new(seed: u64) -> Self {
        let arm = |name: &str, dram_ns| Arm {
            name: name.to_owned(),
            config: MachineConfig::hpca2003()
                .with_processor(ProcessorConfig::OutOfOrder(OooConfig::with_rob_size(32)))
                .with_dram_latency_ns(dram_ns)
                .with_perturbation(4, 0),
        };
        let arms = vec![arm("dram-80ns", 80), arm("dram-150ns", 150)];
        let plan = RunPlan::new(200).with_runs(20).with_warmup(1000);
        let experiment = Experiment::new("dram latency", arms.clone(), plan)
            .and_then(|e| e.with_alpha(ALPHA))
            .expect("two distinct arms and a valid alpha");
        Compare {
            seed,
            arms,
            plan,
            experiment,
        }
    }

    /// The plan both arms run.
    pub fn plan(&self) -> &RunPlan {
        &self.plan
    }

    /// The first arm's configuration.
    pub fn base_config(&self) -> &MachineConfig {
        &self.arms[0].config
    }

    pub fn workload(&self) -> ProfiledWorkload {
        Benchmark::Oltp.workload(16, self.seed)
    }

    /// One comparison on a fresh, cacheless executor of `threads` threads.
    ///
    /// Untraced, it is one call of `Experiment::run_with`. Traced, the same
    /// steps are made one by one through public functions so that each can
    /// be timed; both paths must fold to the same digest.
    pub fn iterate(&self, threads: usize, trace: Option<TraceCtx<'_>>) -> Outcome {
        let fold = RunFold::new(NAME, trace);
        let executor = Executor::with_threads(threads)
            .without_cache()
            .with_progress(fold.clone() as std::sync::Arc<dyn RunProgress>);
        let results = match trace {
            None => self.run_untraced(&executor),
            Some(ctx) => self.run_traced(&executor, &fold, ctx),
        };
        let attempted = (self.arms.len() * self.plan.runs) as u64 + 1;
        let (digest, failed) = match results {
            Some((runtimes, verdict)) => {
                let mut digest = fold.digest_sum();
                for arm in &runtimes {
                    digest = fold_f64s(digest, arm);
                }
                (
                    fold_digest(digest, checksum(verdict.as_bytes())),
                    attempted - 1 - fold.runs(),
                )
            }
            None => (0, attempted - fold.runs()),
        };
        Outcome {
            work: fold.runs(),
            sim_cycles: fold.cycles(),
            digest,
            attempted,
            failed,
        }
    }

    /// Per-arm runtimes and the rendered verdict, or `None` on an error.
    fn run_untraced(&self, executor: &Executor) -> Option<(Vec<Vec<f64>>, String)> {
        let report = self
            .experiment
            .run_with(executor, || self.workload())
            .ok()?;
        let runtimes = report.arms().iter().map(|a| a.runtimes.clone()).collect();
        let pair = &report.pairs()[0];
        Some((runtimes, format!("{:?} {:?}", pair.verdict, pair.wcr)))
    }

    fn run_traced(
        &self,
        executor: &Executor,
        fold: &RunFold,
        ctx: TraceCtx<'_>,
    ) -> Option<(Vec<Vec<f64>>, String)> {
        let TraceCtx { tracer, iteration } = ctx;
        tracer.span("compare.iteration", NAME, iteration, None, |root| {
            let mut runtimes = Vec::new();
            for arm in &self.arms {
                let space = tracer.span("runspace.sweep", NAME, iteration, Some(root), |sweep| {
                    fold.enter_sweep(sweep);
                    let start = tracer.now_ns();
                    let space = executor.run_space(&arm.config, || self.workload(), &self.plan);
                    // What precedes the first run is the shared warmup: the
                    // simulate, the snapshot and the template decode.
                    if let Some(first_run) = fold.first_run_start_ns() {
                        tracer.record(
                            "runspace.warmup",
                            NAME,
                            iteration,
                            Some(sweep),
                            start,
                            first_run,
                        );
                    }
                    space
                });
                runtimes.push(space.ok()?.runtimes());
            }
            let verdict = tracer.span("stats.verdict", NAME, iteration, Some(root), |_| {
                let verdict = verdict(&self.arms, &runtimes)?;
                let wcr = wrong_conclusion_ratio(&runtimes[0], &runtimes[1]).ok();
                Some(format!("{verdict:?} {wcr:?}"))
            })?;
            Some((runtimes, verdict))
        })
    }
}

fn verdict(arms: &[Arm], runtimes: &[Vec<f64>]) -> Option<mtvar_core::compare::Verdict> {
    Comparison::from_runs(&arms[0].name, &runtimes[0], &arms[1].name, &runtimes[1])
        .and_then(|c| c.verdict(ALPHA))
        .ok()
}
