//! Variability metrics (§3.3, §4.2) and time-series windows (§4.3).

use mtvar_sim::stats::RunResult;
use mtvar_stats::describe::Summary;

use crate::{CoreError, Result};

/// The paper's variability metrics over a sample of runtimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariabilityReport {
    /// Number of runs.
    pub runs: u64,
    /// Mean runtime (cycles/transaction).
    pub mean: f64,
    /// Sample standard deviation.
    pub sd: f64,
    /// Minimum runtime.
    pub min: f64,
    /// Maximum runtime.
    pub max: f64,
    /// Coefficient of variation, percent (§3.3).
    pub cov_percent: f64,
    /// Range of variability, percent (§4.2).
    pub range_percent: f64,
}

impl VariabilityReport {
    /// Computes the report from a sample of per-run performance numbers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stats`] for an empty or degenerate sample
    /// (fewer than two runs, zero mean, non-finite values).
    pub fn from_runtimes(runtimes: &[f64]) -> Result<Self> {
        let s = Summary::from_slice(runtimes)?;
        Ok(VariabilityReport {
            runs: s.n(),
            mean: s.mean(),
            sd: s.sd(),
            min: s.min(),
            max: s.max(),
            cov_percent: s.coefficient_of_variation()?,
            range_percent: s.range_of_variability()?,
        })
    }
}

/// Cycles-per-transaction over consecutive `window`-transaction windows of
/// one run — the Figure 8 time-variability series.
///
/// # Errors
///
/// Returns [`CoreError::InvalidExperiment`] if `window == 0` or the run
/// committed fewer than `window` transactions.
pub fn windowed_series(run: &RunResult, window: usize) -> Result<Vec<f64>> {
    if window == 0 {
        return Err(CoreError::InvalidExperiment {
            what: "window must be >= 1 transaction".into(),
        });
    }
    let n = run.commit_cycles.len();
    if n < window {
        return Err(CoreError::InvalidExperiment {
            what: format!("run committed {n} transactions, fewer than the {window}-txn window"),
        });
    }
    let mut series = Vec::with_capacity(n / window);
    let mut i = 0;
    while i + window <= n {
        series.push(
            run.window_cycles_per_transaction(i, i + window)
                .expect("bounds checked"),
        );
        i += window;
    }
    Ok(series)
}

/// Aligns the windowed series of several runs and returns, per window index,
/// the summary across runs (Figure 8's mean ± sd bands). Series are
/// truncated to the shortest run.
///
/// # Errors
///
/// Returns [`CoreError::InvalidExperiment`] if `runs` is empty or any run is
/// shorter than one window.
pub fn windowed_ensemble(runs: &[RunResult], window: usize) -> Result<Vec<Summary>> {
    if runs.is_empty() {
        return Err(CoreError::InvalidExperiment {
            what: "ensemble needs at least one run".into(),
        });
    }
    let series: Vec<Vec<f64>> = runs
        .iter()
        .map(|r| windowed_series(r, window))
        .collect::<Result<_>>()?;
    let len = series.iter().map(Vec::len).min().expect("non-empty");
    let mut out = Vec::with_capacity(len);
    for w in 0..len {
        let col: Vec<f64> = series.iter().map(|s| s[w]).collect();
        out.push(Summary::from_slice(&col)?);
    }
    Ok(out)
}

/// Cycles-per-transaction over consecutive fixed-*duration* windows of one
/// run — the Figures 2–3 view, where the x-axis is wall time and each point
/// averages the transactions completing within an observation interval.
///
/// Returns one entry per full window; `None` where no transaction committed.
///
/// # Errors
///
/// Returns [`CoreError::InvalidExperiment`] if `window_cycles == 0` or the
/// run spans less than one window.
pub fn time_windows(run: &RunResult, window_cycles: u64) -> Result<Vec<Option<f64>>> {
    if window_cycles == 0 {
        return Err(CoreError::InvalidExperiment {
            what: "window must span at least one cycle".into(),
        });
    }
    let span = run.end_cycle.saturating_sub(run.start_cycle);
    let windows = (span / window_cycles) as usize;
    if windows == 0 {
        return Err(CoreError::InvalidExperiment {
            what: format!("run spans {span} cycles, less than one {window_cycles}-cycle window"),
        });
    }
    let mut counts = vec![0u64; windows];
    for &c in &run.commit_cycles {
        let idx = (c.saturating_sub(run.start_cycle)) / window_cycles;
        if let Some(slot) = counts.get_mut(idx as usize) {
            *slot += 1;
        }
    }
    Ok(counts
        .into_iter()
        .map(|n| {
            if n == 0 {
                None
            } else {
                Some(window_cycles as f64 / n as f64)
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtvar_sim::mem::MemStats;
    use mtvar_sim::proc::ProcStats;
    use mtvar_sim::sched::SchedStats;
    use mtvar_sim::sync::LockStats;

    fn run_with_commits(commits: Vec<u64>) -> RunResult {
        RunResult {
            start_cycle: 0,
            end_cycle: *commits.last().unwrap_or(&0),
            transactions: commits.len() as u64,
            commit_cycles: commits,
            mem: MemStats::default(),
            proc: ProcStats::default(),
            locks: LockStats::default(),
            sched: SchedStats::default(),
            sched_events: Vec::new(),
            cpu_busy_ns: 0,
            cpus: 1,
        }
    }

    #[test]
    fn report_matches_paper_definitions() {
        let r = VariabilityReport::from_runtimes(&[95.0, 100.0, 105.0]).unwrap();
        assert_eq!(r.runs, 3);
        assert!((r.mean - 100.0).abs() < 1e-12);
        assert!((r.cov_percent - 5.0).abs() < 1e-9);
        assert!((r.range_percent - 10.0).abs() < 1e-9);
        assert_eq!(r.min, 95.0);
        assert_eq!(r.max, 105.0);
    }

    #[test]
    fn report_rejects_degenerate_samples() {
        assert!(VariabilityReport::from_runtimes(&[]).is_err());
        assert!(VariabilityReport::from_runtimes(&[1.0]).is_err());
    }

    #[test]
    fn windowed_series_basic() {
        // Commits at 100, 200, 400, 800: windows of 2 => (200-0)/2, (800-200)/2.
        let r = run_with_commits(vec![100, 200, 400, 800]);
        let s = windowed_series(&r, 2).unwrap();
        assert_eq!(s, vec![100.0, 300.0]);
        // Window of 3 drops the tail.
        let s3 = windowed_series(&r, 3).unwrap();
        assert_eq!(s3.len(), 1);
    }

    #[test]
    fn windowed_series_validation() {
        let r = run_with_commits(vec![100, 200]);
        assert!(windowed_series(&r, 0).is_err());
        assert!(windowed_series(&r, 3).is_err());
    }

    #[test]
    fn ensemble_summarizes_across_runs() {
        let a = run_with_commits(vec![100, 200, 300, 400]);
        let b = run_with_commits(vec![120, 240, 360, 480]);
        let e = windowed_ensemble(&[a, b], 2).unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].n(), 2);
        assert!((e[0].mean() - (100.0 + 120.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn ensemble_validation() {
        assert!(windowed_ensemble(&[], 2).is_err());
    }

    #[test]
    fn time_windows_buckets_commits() {
        // Commits at 50, 150, 250, 400: the run spans [0, 400), giving two
        // 200-cycle windows. The first holds 2 commits (100 cycles/txn); the
        // second holds only the 250 commit (the one at exactly cycle 400
        // falls on the boundary and is outside the last full window).
        let r = run_with_commits(vec![50, 150, 250, 400]);
        let w = time_windows(&r, 200).unwrap();
        assert_eq!(w, vec![Some(100.0), Some(200.0)]);
    }

    #[test]
    fn time_windows_empty_window_is_none() {
        let r = run_with_commits(vec![50, 450]);
        // Windows [0,150),[150,300),[300,450): middle one has no commit.
        let w = time_windows(&r, 150).unwrap();
        assert_eq!(w.len(), 3);
        assert!(w[0].is_some());
        assert_eq!(w[1], None);
    }

    #[test]
    fn time_windows_validation() {
        let r = run_with_commits(vec![10]);
        assert!(time_windows(&r, 0).is_err());
        assert!(time_windows(&r, 1000).is_err());
    }
}
