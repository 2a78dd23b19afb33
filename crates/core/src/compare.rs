//! The §5.1 comparison methodology: confidence intervals, hypothesis
//! testing, verdicts, and minimum-run estimation.

use mtvar_stats::describe::Summary;
use mtvar_stats::infer::{
    jarque_bera, mean_confidence_interval, two_sample_t_test, ConfidenceInterval, JarqueBera,
    TTest, TTestKind,
};

use crate::runspace::RunSpace;
use crate::wcr::Superior;
use crate::{CoreError, Result};

/// A two-configuration comparison over multi-run samples of a runtime-like
/// metric (lower is better).
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    name_a: String,
    name_b: String,
    a: Summary,
    b: Summary,
    runs_a: Vec<f64>,
    runs_b: Vec<f64>,
}

/// Outcome of a variability-aware comparison at a given significance level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// One configuration is statistically better; the wrong-conclusion
    /// probability is bounded by `wrong_conclusion_bound`.
    Superior {
        /// Which configuration won.
        which: Superior,
        /// Upper bound on the probability this conclusion is wrong
        /// (the one-sided t-test p-value).
        wrong_conclusion_bound: f64,
    },
    /// The data cannot separate the configurations at the requested level —
    /// the paper's "it may not be possible to conclude that one outperforms
    /// the other" case (§4.1.3).
    Inconclusive {
        /// The p-value that failed the significance threshold.
        p_value: f64,
    },
}

impl Verdict {
    /// Whether the comparison reached a conclusion.
    pub fn is_conclusive(&self) -> bool {
        matches!(self, Verdict::Superior { .. })
    }
}

impl Comparison {
    /// Builds a comparison from per-run runtime samples.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stats`] if either sample has fewer than two runs
    /// or contains non-finite values.
    pub fn from_runs(name_a: &str, runs_a: &[f64], name_b: &str, runs_b: &[f64]) -> Result<Self> {
        let a = Summary::from_slice(runs_a)?;
        let b = Summary::from_slice(runs_b)?;
        for s in [&a, &b] {
            if s.n() < 2 {
                return Err(CoreError::Stats(mtvar_stats::StatsError::SampleTooSmall {
                    required: 2,
                    actual: s.n() as usize,
                }));
            }
        }
        Ok(Comparison {
            name_a: name_a.to_owned(),
            name_b: name_b.to_owned(),
            a,
            b,
            runs_a: runs_a.to_vec(),
            runs_b: runs_b.to_vec(),
        })
    }

    /// Builds a comparison from two collected [`RunSpace`]s — the form used
    /// with [`crate::runspace::Executor`] output.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Comparison::from_runs`].
    pub fn from_spaces(name_a: &str, a: &RunSpace, name_b: &str, b: &RunSpace) -> Result<Self> {
        Comparison::from_runs(name_a, &a.runtimes(), name_b, &b.runtimes())
    }

    /// Names of the two configurations.
    pub fn names(&self) -> (&str, &str) {
        (&self.name_a, &self.name_b)
    }

    /// Summaries of the two samples.
    pub fn summaries(&self) -> (&Summary, &Summary) {
        (&self.a, &self.b)
    }

    /// Confidence intervals for the two means at `level` (§5.1.1).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stats`] for an invalid level.
    pub fn confidence_intervals(
        &self,
        level: f64,
    ) -> Result<(ConfidenceInterval, ConfidenceInterval)> {
        Ok((
            mean_confidence_interval(&self.a, level)?,
            mean_confidence_interval(&self.b, level)?,
        ))
    }

    /// Whether the two CIs overlap at `level`. Non-overlap bounds the wrong
    /// conclusion probability by `1 − level` (§5.1.1).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stats`] for an invalid level.
    pub fn intervals_overlap(&self, level: f64) -> Result<bool> {
        let (ca, cb) = self.confidence_intervals(level)?;
        Ok(ca.overlaps(&cb))
    }

    /// The §5.1.2 hypothesis test, oriented so the statistic is positive when
    /// the *apparently better* (lower-mean) configuration is ahead: tests
    /// `H₀: μ_worse = μ_better` against `μ_worse > μ_better`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stats`] if both samples are constant.
    pub fn t_test(&self) -> Result<TTest> {
        let (slow, fast) = if self.a.mean() <= self.b.mean() {
            (&self.b, &self.a)
        } else {
            (&self.a, &self.b)
        };
        Ok(two_sample_t_test(slow, fast, TTestKind::Pooled)?)
    }

    /// Upper bound on the probability that concluding "the lower-mean
    /// configuration is better" is wrong: the one-sided p-value of
    /// [`Comparison::t_test`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stats`] if both samples are constant.
    pub fn wrong_conclusion_bound(&self) -> Result<f64> {
        Ok(self.t_test()?.p_one_sided())
    }

    /// The methodology's decision at significance level `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stats`] if the test statistic is undefined.
    pub fn verdict(&self, alpha: f64) -> Result<Verdict> {
        let p = self.wrong_conclusion_bound()?;
        if p <= alpha {
            Ok(Verdict::Superior {
                which: if self.a.mean() <= self.b.mean() {
                    Superior::First
                } else {
                    Superior::Second
                },
                wrong_conclusion_bound: p,
            })
        } else {
            Ok(Verdict::Inconclusive { p_value: p })
        }
    }

    /// Jarque–Bera normality diagnostics for both samples. The t-test and
    /// CI machinery assumes approximately normal runtimes; a rejection here
    /// (common when a lock convoy forms in only some runs, bimodalizing the
    /// run space) means the verdict's error bound should be treated as
    /// approximate and more runs collected.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stats`] if either sample has fewer than four
    /// runs or is constant.
    pub fn normality(&self) -> Result<(JarqueBera, JarqueBera)> {
        Ok((jarque_bera(&self.runs_a)?, jarque_bera(&self.runs_b)?))
    }

    /// The Table-5 estimate: for each significance level, the minimum number
    /// of runs `n` such that the t-test over the first `n` runs of each
    /// sample rejects the null hypothesis at that level. `None` when even
    /// the full samples do not reject.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidExperiment`] if `levels` is empty.
    pub fn min_runs_for_significance(&self, levels: &[f64]) -> Result<Vec<(f64, Option<usize>)>> {
        if levels.is_empty() {
            return Err(CoreError::InvalidExperiment {
                what: "need at least one significance level".into(),
            });
        }
        let max_n = self.runs_a.len().min(self.runs_b.len());
        let mut out = Vec::with_capacity(levels.len());
        for &alpha in levels {
            let mut found = None;
            for n in 2..=max_n {
                let cmp = Comparison::from_runs("a", &self.runs_a[..n], "b", &self.runs_b[..n])?;
                match cmp.t_test() {
                    Ok(t) if t.rejects_one_sided(alpha) => {
                        found = Some(n);
                        break;
                    }
                    _ => {}
                }
            }
            out.push((alpha, found));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clearly_different() -> Comparison {
        Comparison::from_runs(
            "slow",
            &[10.0, 10.2, 9.9, 10.1, 10.0, 10.3],
            "fast",
            &[9.0, 9.2, 8.9, 9.1, 9.0, 9.3],
        )
        .unwrap()
    }

    fn overlapping() -> Comparison {
        Comparison::from_runs("a", &[10.0, 11.0, 9.5, 10.5], "b", &[10.2, 9.8, 10.8, 9.6]).unwrap()
    }

    #[test]
    fn clear_difference_is_conclusive() {
        let c = clearly_different();
        assert!(!c.intervals_overlap(0.95).unwrap());
        let v = c.verdict(0.05).unwrap();
        match v {
            Verdict::Superior {
                which,
                wrong_conclusion_bound,
            } => {
                assert_eq!(which, Superior::Second);
                assert!(wrong_conclusion_bound < 0.001);
            }
            Verdict::Inconclusive { .. } => panic!("should be conclusive"),
        }
        assert!(v.is_conclusive());
    }

    #[test]
    fn overlap_is_inconclusive() {
        let c = overlapping();
        assert!(c.intervals_overlap(0.95).unwrap());
        let v = c.verdict(0.05).unwrap();
        assert!(!v.is_conclusive());
        if let Verdict::Inconclusive { p_value } = v {
            assert!(p_value > 0.05);
        }
    }

    #[test]
    fn t_test_orientation_is_one_sided_for_the_better_config() {
        let c = clearly_different();
        let t = c.t_test().unwrap();
        assert!(
            t.statistic() > 0.0,
            "statistic should favour the faster config"
        );
        assert!(t.p_one_sided() < 0.001);
        // Pooled df = 2n - 2.
        assert!((t.df() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn min_runs_monotone_in_alpha() {
        // Construct samples where significance arrives gradually.
        let a: Vec<f64> = (0..16)
            .map(|i| 10.0 + 0.4 * ((i % 5) as f64 - 2.0))
            .collect();
        let b: Vec<f64> = (0..16)
            .map(|i| 9.6 + 0.4 * (((i + 2) % 5) as f64 - 2.0))
            .collect();
        let c = Comparison::from_runs("a", &a, "b", &b).unwrap();
        let req = c.min_runs_for_significance(&[0.10, 0.05, 0.01]).unwrap();
        // Tighter levels can never need fewer runs.
        let vals: Vec<Option<usize>> = req.iter().map(|&(_, n)| n).collect();
        for w in vals.windows(2) {
            if let (Some(x), Some(y)) = (w[0], w[1]) {
                assert!(x <= y, "tighter alpha needs at least as many runs");
            }
        }
    }

    #[test]
    fn min_runs_none_when_indistinguishable() {
        let c = overlapping();
        let req = c.min_runs_for_significance(&[0.01]).unwrap();
        assert_eq!(req[0].1, None);
    }

    #[test]
    fn accessors() {
        let c = clearly_different();
        assert_eq!(c.names(), ("slow", "fast"));
        let (a, b) = c.summaries();
        assert!(a.mean() > b.mean());
    }

    #[test]
    fn validation() {
        assert!(Comparison::from_runs("a", &[1.0], "b", &[1.0, 2.0]).is_err());
        let c = clearly_different();
        assert!(c.min_runs_for_significance(&[]).is_err());
    }

    #[test]
    fn normality_diagnostics_run() {
        let c = clearly_different();
        let (ja, jb) = c.normality().unwrap();
        // Tight hand-made samples: normality should not be rejected hard.
        assert!((0.0..=1.0).contains(&ja.p_value()));
        assert!((0.0..=1.0).contains(&jb.p_value()));
        // Too-small samples are rejected.
        let tiny = Comparison::from_runs("a", &[1.0, 2.0], "b", &[2.0, 3.0]).unwrap();
        assert!(tiny.normality().is_err());
    }
}
