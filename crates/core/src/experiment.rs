//! Declarative comparison experiments: the one-call form of the paper's
//! whole §5.1 workflow.
//!
//! An [`Experiment`] names a set of configurations, a workload factory and a
//! [`RunPlan`]; [`Experiment::run`] executes the perturbed run space for
//! every configuration and returns an [`ExperimentReport`] holding
//! per-configuration variability, all pairwise wrong-conclusion ratios and
//! methodology verdicts — everything the paper says to look at before
//! claiming one design beats another.

use mtvar_sim::checkpoint::Snap;
use mtvar_sim::config::MachineConfig;
use mtvar_sim::workload::Workload;

use crate::compare::{Comparison, Verdict};
use crate::metrics::VariabilityReport;
use crate::report::Table;
use crate::runspace::{Executor, RunPlan};
use crate::wcr::{wrong_conclusion_ratio, Superior, Wcr};
use crate::{CoreError, Result};

/// A named configuration under test.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// Display name ("2-way", "ROB-64", ...).
    pub name: String,
    /// The machine configuration.
    pub config: MachineConfig,
}

/// A declarative multi-configuration comparison experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    name: String,
    arms: Vec<Arm>,
    plan: RunPlan,
    alpha: f64,
}

impl Experiment {
    /// Creates an experiment with the paper's default significance level
    /// (α = 0.05).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidExperiment`] if fewer than two arms are
    /// supplied or arm names collide.
    pub fn new(name: &str, arms: Vec<Arm>, plan: RunPlan) -> Result<Self> {
        if arms.len() < 2 {
            return Err(CoreError::InvalidExperiment {
                what: "an experiment needs at least two configurations".into(),
            });
        }
        let mut names: Vec<&str> = arms.iter().map(|a| a.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != arms.len() {
            return Err(CoreError::InvalidExperiment {
                what: "configuration names must be unique".into(),
            });
        }
        Ok(Experiment {
            name: name.to_owned(),
            arms,
            plan,
            alpha: 0.05,
        })
    }

    /// Overrides the significance level used for verdicts.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidExperiment`] for `alpha` outside `(0, 1)`.
    pub fn with_alpha(mut self, alpha: f64) -> Result<Self> {
        if !alpha.is_finite() || alpha <= 0.0 || alpha >= 1.0 {
            return Err(CoreError::InvalidExperiment {
                what: "alpha must lie in (0, 1)".into(),
            });
        }
        self.alpha = alpha;
        Ok(self)
    }

    /// The experiment's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs every arm's perturbed run space sequentially and assembles the
    /// report. Equivalent to [`Experiment::run_with`] on a single-threaded
    /// [`Executor`] — and bit-identical to any other thread count.
    ///
    /// `make_workload` is called once per run with the same semantics as
    /// [`crate::runspace::run_space`]; all arms share the same workload
    /// factory, so the comparison isolates the configuration difference.
    ///
    /// # Errors
    ///
    /// Propagates simulator and statistics errors.
    pub fn run<W, F>(&self, make_workload: F) -> Result<ExperimentReport>
    where
        W: Workload + Snap + Clone + Send + Sync,
        F: Fn() -> W + Sync,
    {
        self.run_with(&Executor::sequential(), make_workload)
    }

    /// Runs every arm's perturbed run space on `executor` as one batch and
    /// assembles the report.
    ///
    /// The arms' shared warmups run side by side, one pool job per arm
    /// (through the checkpoint store's single-flight when one is attached,
    /// so arms that warm the same state simulate it once), and then every
    /// arm's runs fan out over the executor's thread pool together. Per-arm
    /// seed streams derive from each configuration's fingerprint, so the
    /// report equals the one assembled from one [`Executor::run_space`] call
    /// per arm, on any thread count. The executor's cache lets repeated or
    /// overlapping experiments — and arms with equal configurations under
    /// different names — re-use runs.
    ///
    /// # Errors
    ///
    /// Propagates simulator and statistics errors: the first one of the
    /// arm-by-arm reading (an arm's warmup, then its runs, lowest run index
    /// first), whatever order the batch met them in.
    pub fn run_with<W, F>(&self, executor: &Executor, make_workload: F) -> Result<ExperimentReport>
    where
        W: Workload + Snap + Clone + Send + Sync,
        F: Fn() -> W + Sync,
    {
        let configs: Vec<&MachineConfig> = self.arms.iter().map(|arm| &arm.config).collect();
        let spaces = executor.run_spaces(&configs, make_workload, &self.plan)?;
        let mut arms = Vec::with_capacity(self.arms.len());
        for (arm, space) in self.arms.iter().zip(spaces) {
            let runtimes = space.runtimes();
            let variability = VariabilityReport::from_runtimes(&runtimes)?;
            arms.push(ArmResult {
                name: arm.name.clone(),
                runtimes,
                variability,
                violations: space.total_violations(),
            });
        }

        let mut pairs = Vec::new();
        for i in 0..arms.len() {
            for j in (i + 1)..arms.len() {
                // Exact ties (identical means, possible when a config knob
                // turns out not to matter) have no WCR direction; report
                // them as such instead of failing the experiment.
                let wcr = match wrong_conclusion_ratio(&arms[i].runtimes, &arms[j].runtimes) {
                    Ok(w) => Some(w),
                    Err(CoreError::InvalidExperiment { .. }) => None,
                    Err(e) => return Err(e),
                };
                let cmp = Comparison::from_runs(
                    &arms[i].name,
                    &arms[i].runtimes,
                    &arms[j].name,
                    &arms[j].runtimes,
                )?;
                let verdict = match cmp.verdict(self.alpha) {
                    Ok(v) => v,
                    // Degenerate (both samples constant): nothing separates.
                    Err(CoreError::Stats(_)) => Verdict::Inconclusive { p_value: 1.0 },
                    Err(e) => return Err(e),
                };
                pairs.push(PairResult {
                    first: arms[i].name.clone(),
                    second: arms[j].name.clone(),
                    wcr,
                    verdict,
                });
            }
        }
        Ok(ExperimentReport {
            name: self.name.clone(),
            alpha: self.alpha,
            arms,
            pairs,
        })
    }
}

/// Per-configuration outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmResult {
    /// Configuration name.
    pub name: String,
    /// Cycles-per-transaction of every run.
    pub runtimes: Vec<f64>,
    /// The paper's variability metrics.
    pub variability: VariabilityReport,
    /// Total invariant violations across this arm's sweep (0 when the runs
    /// were unmonitored — run on a strict executor, or with a monitored
    /// configuration, for the count to be meaningful).
    pub violations: u64,
}

/// Pairwise comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PairResult {
    /// First configuration name.
    pub first: String,
    /// Second configuration name.
    pub second: String,
    /// Wrong-conclusion ratio between the two run sets; `None` when the
    /// sample means are exactly equal (no conclusion to contradict).
    pub wcr: Option<Wcr>,
    /// Methodology verdict at the experiment's α.
    pub verdict: Verdict,
}

/// The assembled result of an [`Experiment`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    name: String,
    alpha: f64,
    arms: Vec<ArmResult>,
    pairs: Vec<PairResult>,
}

impl ExperimentReport {
    /// Per-configuration results, in arm order.
    pub fn arms(&self) -> &[ArmResult] {
        &self.arms
    }

    /// All pairwise comparisons.
    pub fn pairs(&self) -> &[PairResult] {
        &self.pairs
    }

    /// The best (lowest-mean) configuration.
    pub fn best_arm(&self) -> &ArmResult {
        self.arms
            .iter()
            .min_by(|a, b| {
                a.variability
                    .mean
                    .partial_cmp(&b.variability.mean)
                    .expect("finite means")
            })
            .expect("experiments have >= 2 arms")
    }

    /// Whether *every* pairwise comparison is conclusive at the experiment's
    /// α — the condition under which the full ranking can be reported.
    pub fn fully_conclusive(&self) -> bool {
        self.pairs.iter().all(|p| p.verdict.is_conclusive())
    }

    /// Whether no arm recorded an invariant violation — as strong as the
    /// monitoring behind the sweeps (see [`ArmResult::violations`]).
    pub fn is_clean(&self) -> bool {
        self.arms.iter().all(|a| a.violations == 0)
    }

    /// Renders the report as two text tables (per-arm and pairwise).
    pub fn to_table(&self) -> (Table, Table) {
        let mut arms = Table::new(&format!("{} — per-configuration results", self.name));
        arms.set_headers(vec![
            "configuration",
            "mean cyc/txn",
            "CoV",
            "range",
            "runs",
            "violations",
        ]);
        for a in &self.arms {
            arms.add_row(vec![
                a.name.clone(),
                format!("{:.1}", a.variability.mean),
                format!("{:.2}%", a.variability.cov_percent),
                format!("{:.2}%", a.variability.range_percent),
                a.variability.runs.to_string(),
                crate::report::count_or_clean(a.violations),
            ]);
        }
        let mut pairs = Table::new(&format!(
            "{} — pairwise comparisons (alpha = {})",
            self.name, self.alpha
        ));
        pairs.set_headers(vec!["pair", "superior", "WCR", "verdict"]);
        for p in &self.pairs {
            let superior = match p.wcr.map(|w| w.superior) {
                Some(Superior::First) => p.first.as_str(),
                Some(Superior::Second) => p.second.as_str(),
                None => "(exact tie)",
            };
            let verdict = match p.verdict {
                Verdict::Superior {
                    wrong_conclusion_bound,
                    ..
                } => format!("conclusive (p <= {wrong_conclusion_bound:.3})"),
                Verdict::Inconclusive { p_value } => format!("inconclusive (p = {p_value:.3})"),
            };
            pairs.add_row(vec![
                format!("{} vs {}", p.first, p.second),
                superior.to_owned(),
                p.wcr
                    .map_or_else(|| "-".to_owned(), |w| format!("{:.1}%", w.wcr_percent)),
                verdict,
            ]);
        }
        (arms, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtvar_sim::workload::SharingWorkload;

    fn arms() -> Vec<Arm> {
        let base = MachineConfig::hpca2003()
            .with_cpus(4)
            .with_perturbation(4, 0);
        vec![
            Arm {
                name: "slow-dram".into(),
                config: base.clone().with_dram_latency_ns(200),
            },
            Arm {
                name: "fast-dram".into(),
                config: base,
            },
        ]
    }

    fn workload() -> SharingWorkload {
        SharingWorkload::new(8, 42, 40, 4096, 10)
    }

    #[test]
    fn experiment_end_to_end() {
        let plan = RunPlan::new(40).with_runs(4).with_warmup(40);
        let exp = Experiment::new("assoc", arms(), plan).unwrap();
        let report = exp.run(workload).unwrap();
        assert_eq!(report.arms().len(), 2);
        assert_eq!(report.pairs().len(), 1);
        assert!(report.arms()[0].variability.mean > 0.0);
        let (t1, t2) = report.to_table();
        assert_eq!(t1.row_count(), 2);
        assert_eq!(t2.row_count(), 1);
        // best_arm is one of the arms.
        let best = report.best_arm().name.clone();
        assert_eq!(best, "fast-dram", "80 ns DRAM must beat 200 ns");
        // fully_conclusive is a bool either way; just exercise it.
        let _ = report.fully_conclusive();
        // Clean sweeps report as such, all the way into the rendered table.
        assert!(report.is_clean());
        assert!(report.arms().iter().all(|a| a.violations == 0));
        assert!(t1.to_string().contains("violations"));
        assert!(t1.to_string().contains("clean"));
    }

    #[test]
    fn three_arms_give_three_pairs() {
        let mut a = arms();
        a.push(Arm {
            name: "slower-dram".into(),
            config: MachineConfig::hpca2003()
                .with_cpus(4)
                .with_dram_latency_ns(400),
        });
        let plan = RunPlan::new(30).with_runs(3);
        let exp = Experiment::new("assoc3", a, plan).unwrap();
        let report = exp.run(workload).unwrap();
        assert_eq!(report.pairs().len(), 3);
    }

    #[test]
    fn validation() {
        let plan = RunPlan::new(10);
        assert!(Experiment::new("x", vec![], plan).is_err());
        let one = vec![Arm {
            name: "a".into(),
            config: MachineConfig::hpca2003(),
        }];
        assert!(Experiment::new("x", one, plan).is_err());
        let dup = vec![
            Arm {
                name: "a".into(),
                config: MachineConfig::hpca2003(),
            },
            Arm {
                name: "a".into(),
                config: MachineConfig::hpca2003(),
            },
        ];
        assert!(Experiment::new("x", dup, plan).is_err());
        let ok = Experiment::new("x", arms(), plan).unwrap();
        assert!(ok.with_alpha(0.0).is_err());
    }
}
