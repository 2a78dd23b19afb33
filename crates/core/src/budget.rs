//! Fixed-simulation-budget planning — the trade-off the paper leaves as
//! future work (§5.2): "Given a fixed simulation budget (time allowed for
//! all simulations), a tradeoff must be made between the length of each
//! simulation and the number of simulations required to maximize the
//! confidence probability."
//!
//! The machinery: Table 4 shows the coefficient of variation falling with
//! run length; empirically it follows a power law `CoV(L) ≈ a·L^(−b)` (for
//! the paper's OLTP data, `b ≈ 0.74`). Fitting that law to a few pilot
//! lengths ([`CovModel::fit`]) lets [`plan_budget`] search the `(runs n,
//! length L)` frontier under `n·L ≤ budget` for the split minimizing the
//! confidence-interval half-width `t_{n−1} · CoV(L) / √n`.

use mtvar_sim::checkpoint::Snap;
use mtvar_sim::config::MachineConfig;
use mtvar_sim::workload::Workload;
use mtvar_stats::infer::critical_value;

use crate::runspace::{Executor, RunPlan};
use crate::{CoreError, Result};

/// A fitted power-law model of space variability vs run length:
/// `CoV(L) = coefficient · L^(−exponent)`, with CoV in percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CovModel {
    coefficient: f64,
    exponent: f64,
}

impl CovModel {
    /// Constructs a model directly from parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidExperiment`] if `coefficient <= 0` or the
    /// parameters are not finite.
    pub fn new(coefficient: f64, exponent: f64) -> Result<Self> {
        if !coefficient.is_finite() || !exponent.is_finite() || coefficient <= 0.0 {
            return Err(CoreError::InvalidExperiment {
                what: "CoV model needs a positive finite coefficient and finite exponent".into(),
            });
        }
        Ok(CovModel {
            coefficient,
            exponent,
        })
    }

    /// Fits the power law to pilot measurements `(run length, CoV percent)`
    /// by least squares in log-log space (exactly how one would fit the
    /// paper's Table 4 column).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidExperiment`] if fewer than two distinct
    /// lengths are supplied or any value is non-positive.
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), mtvar_core::CoreError> {
    /// use mtvar_core::budget::CovModel;
    ///
    /// // The paper's Table 4: OLTP CoV over 200..1000-transaction runs.
    /// let table4 = [(200, 3.27), (400, 2.87), (600, 2.16), (800, 1.53), (1000, 0.98)];
    /// let model = CovModel::fit(&table4)?;
    /// // Interpolates sensibly between the measured lengths.
    /// let cov_500 = model.cov_percent_at(500);
    /// assert!(cov_500 > 0.98 && cov_500 < 3.27);
    /// # Ok(())
    /// # }
    /// ```
    pub fn fit(points: &[(u64, f64)]) -> Result<Self> {
        // Filter first, then count distinct lengths on what actually enters
        // the regression: counting on the raw input would accept inputs like
        // [(200, 3.0), (400, 0.0)] — two distinct lengths, but only one
        // usable point — and fit a line through a single point.
        let usable_raw: Vec<(u64, f64)> = points
            .iter()
            .filter(|(l, c)| *l > 0 && *c > 0.0 && c.is_finite())
            .copied()
            .collect();
        let distinct_lengths = {
            let mut ls: Vec<u64> = usable_raw.iter().map(|(l, _)| *l).collect();
            ls.sort_unstable();
            ls.dedup();
            ls.len()
        };
        let usable: Vec<(f64, f64)> = usable_raw
            .iter()
            .map(|(l, c)| ((*l as f64).ln(), c.ln()))
            .collect();
        if usable.len() < 2 || distinct_lengths < 2 {
            return Err(CoreError::InvalidExperiment {
                what: "fitting needs at least two pilot lengths with positive CoV".into(),
            });
        }
        let n = usable.len() as f64;
        let sx: f64 = usable.iter().map(|(x, _)| x).sum();
        let sy: f64 = usable.iter().map(|(_, y)| y).sum();
        let sxx: f64 = usable.iter().map(|(x, _)| x * x).sum();
        let sxy: f64 = usable.iter().map(|(x, y)| x * y).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return Err(CoreError::InvalidExperiment {
                what: "pilot lengths are collinear in log space".into(),
            });
        }
        let slope = (n * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / n;
        CovModel::new(intercept.exp(), -slope)
    }

    /// Predicted coefficient of variation (percent) for runs of `txns`
    /// transactions.
    pub fn cov_percent_at(&self, txns: u64) -> f64 {
        self.coefficient * (txns.max(1) as f64).powf(-self.exponent)
    }

    /// The fitted decay exponent `b` (how fast averaging tames variability).
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Measures pilot CoV points by simulation and fits the power law —
    /// the end-to-end form of [`CovModel::fit`].
    ///
    /// For each length in `pilot_lengths`, a run space of `pilot_runs`
    /// perturbed runs (after `warmup` transactions each) executes on
    /// `executor` — in parallel, sharing the executor's result cache — and
    /// contributes one `(length, CoV)` point.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors, and [`CovModel::fit`]'s conditions on
    /// the measured points (at least two distinct lengths with positive
    /// CoV).
    #[expect(clippy::disallowed_methods, reason = "one pilot space per length")]
    pub fn fit_by_pilot<W, F>(
        executor: &Executor,
        config: &MachineConfig,
        make_workload: F,
        pilot_lengths: &[u64],
        pilot_runs: usize,
        warmup: u64,
    ) -> Result<Self>
    where
        W: Workload + Snap + Clone + Send + Sync,
        F: Fn() -> W + Sync,
    {
        let mut points = Vec::with_capacity(pilot_lengths.len());
        for &length in pilot_lengths {
            let plan = RunPlan::new(length)
                .with_runs(pilot_runs)
                .with_warmup(warmup);
            let space = executor.run_space(config, &make_workload, &plan)?;
            let summary = space.summary()?;
            points.push((length, summary.coefficient_of_variation()?));
        }
        CovModel::fit(&points)
    }
}

/// The recommended split of a fixed budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetPlan {
    /// Number of perturbed runs.
    pub runs: usize,
    /// Transactions per run.
    pub transactions_per_run: u64,
    /// Predicted CoV (percent) at that run length.
    pub expected_cov_percent: f64,
    /// Predicted relative half-width (percent of the mean) of the
    /// confidence interval on the mean.
    pub ci_halfwidth_percent: f64,
}

/// Searches the `(runs, length)` frontier under `runs × length ≤
/// total_transactions` for the split minimizing the predicted CI half-width
/// at `confidence`.
///
/// `min_transactions` guards against degenerate ultra-short runs (the
/// paper's §3.1 transaction-quantization warning: "simulation runs should be
/// long enough to mitigate" cold-start and end effects).
///
/// # Errors
///
/// Returns [`CoreError::InvalidExperiment`] if the budget cannot fund at
/// least two runs of `min_transactions`, or [`CoreError::Stats`] for an
/// invalid confidence level.
pub fn plan_budget(
    model: &CovModel,
    total_transactions: u64,
    min_transactions: u64,
    confidence: f64,
) -> Result<BudgetPlan> {
    let min_txns = min_transactions.max(1);
    if total_transactions < 2 * min_txns {
        return Err(CoreError::InvalidExperiment {
            what: format!(
                "budget of {total_transactions} transactions cannot fund two {min_txns}-transaction runs"
            ),
        });
    }
    let max_runs = (total_transactions / min_txns).min(1_000) as usize;
    let mut best: Option<BudgetPlan> = None;
    for runs in 2..=max_runs {
        let length = total_transactions / runs as u64;
        if length < min_txns {
            break;
        }
        let cov = model.cov_percent_at(length);
        let t = critical_value(runs as u64, confidence)?;
        let halfwidth = t * cov / (runs as f64).sqrt();
        if best.is_none_or(|b| halfwidth < b.ci_halfwidth_percent) {
            best = Some(BudgetPlan {
                runs,
                transactions_per_run: length,
                expected_cov_percent: cov,
                ci_halfwidth_percent: halfwidth,
            });
        }
    }
    best.ok_or_else(|| CoreError::InvalidExperiment {
        what: "no feasible split found".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_synthetic_power_law() {
        // cov = 50 * L^-0.5
        let pts: Vec<(u64, f64)> = [100u64, 200, 400, 800, 1600]
            .iter()
            .map(|&l| (l, 50.0 * (l as f64).powf(-0.5)))
            .collect();
        let m = CovModel::fit(&pts).unwrap();
        assert!((m.exponent() - 0.5).abs() < 1e-9);
        assert!((m.cov_percent_at(400) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn fit_of_paper_table4_is_sensible() {
        let table4 = [
            (200u64, 3.27),
            (400, 2.87),
            (600, 2.16),
            (800, 1.53),
            (1000, 0.98),
        ];
        let m = CovModel::fit(&table4).unwrap();
        // The paper's data decays a bit faster than sqrt averaging.
        assert!(
            m.exponent() > 0.4 && m.exponent() < 1.2,
            "b = {}",
            m.exponent()
        );
        // Interpolation stays within the measured envelope.
        let c = m.cov_percent_at(500);
        assert!(c > 0.9 && c < 3.3);
    }

    #[test]
    fn fit_validation() {
        assert!(CovModel::fit(&[]).is_err());
        assert!(CovModel::fit(&[(100, 2.0)]).is_err());
        assert!(CovModel::fit(&[(100, 2.0), (100, 2.5)]).is_err());
        assert!(CovModel::fit(&[(100, -1.0), (200, 0.0)]).is_err());
        assert!(CovModel::new(0.0, 1.0).is_err());
    }

    #[test]
    fn fit_rejects_single_usable_point() {
        // Regression: two distinct raw lengths but only one usable point —
        // the distinct-length check must run on the filtered set, not the
        // raw input, or this "fits" a line through one point.
        assert!(CovModel::fit(&[(200, 3.0), (400, 0.0)]).is_err());
        assert!(CovModel::fit(&[(200, 3.0), (400, f64::NAN)]).is_err());
        assert!(CovModel::fit(&[(0, 3.0), (400, 2.0)]).is_err());
        // Two usable points sharing a length are just as degenerate.
        assert!(CovModel::fit(&[(200, 3.0), (200, 2.5), (400, 0.0)]).is_err());
        // But two usable distinct lengths amid junk still fit.
        assert!(CovModel::fit(&[(200, 3.0), (400, 0.0), (400, 2.0)]).is_ok());
    }

    #[test]
    fn flat_cov_favours_many_short_runs() {
        // Exponent 0: lengthening runs buys nothing, so the planner should
        // push toward many runs (bounded by the minimum length).
        let m = CovModel::new(3.0, 0.0).unwrap();
        let plan = plan_budget(&m, 10_000, 100, 0.95).unwrap();
        assert_eq!(plan.transactions_per_run, 100);
        assert_eq!(plan.runs, 100);
    }

    #[test]
    fn steep_cov_favours_longer_runs() {
        // Exponent 1: doubling length halves CoV — better than the sqrt(n)
        // gain from doubling runs, so the planner picks few long runs (only
        // the fat t tail at tiny n keeps it off the n = 2 extreme).
        let m = CovModel::new(300.0, 1.0).unwrap();
        let plan = plan_budget(&m, 10_000, 100, 0.95).unwrap();
        assert!(plan.runs <= 8, "got {} runs", plan.runs);
        assert!(plan.transactions_per_run >= 1_250);
    }

    #[test]
    fn halfwidth_improves_with_budget() {
        let m = CovModel::new(60.0, 0.6).unwrap();
        let small = plan_budget(&m, 2_000, 50, 0.95).unwrap();
        let large = plan_budget(&m, 20_000, 50, 0.95).unwrap();
        assert!(large.ci_halfwidth_percent < small.ci_halfwidth_percent);
    }

    #[test]
    fn budget_validation() {
        let m = CovModel::new(10.0, 0.5).unwrap();
        assert!(plan_budget(&m, 150, 100, 0.95).is_err());
        assert!(plan_budget(&m, 10_000, 100, 1.5).is_err());
    }

    #[test]
    fn plan_respects_budget() {
        let m = CovModel::new(40.0, 0.7).unwrap();
        let plan = plan_budget(&m, 7_777, 120, 0.95).unwrap();
        assert!(plan.runs as u64 * plan.transactions_per_run <= 7_777);
        assert!(plan.transactions_per_run >= 120);
        assert!(plan.ci_halfwidth_percent > 0.0);
    }
}
