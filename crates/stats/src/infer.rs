//! Classical inference: confidence intervals, two-sample t-tests, one-way
//! ANOVA, and the paper's sample-size estimate.
//!
//! These are the §5 tools of the paper:
//!
//! * [`mean_confidence_interval`] — §5.1.1, using the Student-t critical
//!   value for `n < 50` and the normal deviate otherwise (the paper's rule).
//! * [`two_sample_t_test`] — §5.1.2, the hypothesis test that upper-bounds
//!   the wrong-conclusion probability of a comparison experiment.
//! * [`sample_size_for_relative_error`] — §5.1.1, `n = (t·S / (r·Ȳ))²`.
//! * [`anova_one_way`] — §5.2, deciding whether between-checkpoint (time)
//!   variability is distinguishable from within-checkpoint (space)
//!   variability.

use crate::describe::Summary;
use crate::dist::{ContinuousDistribution, Normal, StudentT};
use crate::special::reg_inc_beta_unchecked;
use crate::{Result, StatsError};

/// Sample size at and above which the paper's §5.1.1 rule switches from the
/// Student-t to the normal critical value.
pub const NORMAL_APPROX_THRESHOLD: u64 = 50;

fn check_level(level: f64) -> Result<()> {
    if !level.is_finite() || level <= 0.0 || level >= 1.0 {
        return Err(StatsError::InvalidParameter {
            name: "level",
            value: level,
            expected: "confidence level must lie in (0, 1)",
        });
    }
    Ok(())
}

/// A two-sided confidence interval for a population parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    lower: f64,
    upper: f64,
    level: f64,
}

impl ConfidenceInterval {
    /// Creates an interval from explicit bounds.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `lower > upper` or the
    /// level is outside `(0, 1)`.
    pub fn new(lower: f64, upper: f64, level: f64) -> Result<Self> {
        check_level(level)?;
        if !(lower.is_finite() && upper.is_finite()) {
            return Err(StatsError::NonFiniteInput);
        }
        if lower > upper {
            return Err(StatsError::InvalidParameter {
                name: "lower",
                value: lower,
                expected: "must be <= upper",
            });
        }
        Ok(ConfidenceInterval {
            lower,
            upper,
            level,
        })
    }

    /// Lower bound.
    pub fn lower(&self) -> f64 {
        self.lower
    }

    /// Upper bound.
    pub fn upper(&self) -> f64 {
        self.upper
    }

    /// Confidence level (e.g. `0.95`).
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Interval width, `upper − lower`.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// Interval midpoint.
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lower + self.upper)
    }

    /// Whether `x` lies inside the interval (inclusive).
    pub fn contains(&self, x: f64) -> bool {
        self.lower <= x && x <= self.upper
    }

    /// Whether this interval overlaps `other`.
    ///
    /// Per §5.1.1: if the confidence intervals of two alternatives do *not*
    /// overlap, the probability of a wrong comparison conclusion is at most
    /// `1 − level`.
    pub fn overlaps(&self, other: &ConfidenceInterval) -> bool {
        self.lower <= other.upper && other.lower <= self.upper
    }
}

impl std::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:.6}, {:.6}] ({:.1}% CI)",
            self.lower,
            self.upper,
            self.level * 100.0
        )
    }
}

/// Two-sided critical value for a mean CI over `n` observations at the given
/// confidence level, following the paper's rule: Student-t with `n − 1`
/// degrees of freedom for `n < 50`, the normal deviate otherwise.
///
/// # Errors
///
/// Returns [`StatsError::SampleTooSmall`] if `n < 2` and
/// [`StatsError::InvalidParameter`] for a level outside `(0, 1)`.
pub fn critical_value(n: u64, level: f64) -> Result<f64> {
    check_level(level)?;
    if n < 2 {
        return Err(StatsError::SampleTooSmall {
            required: 2,
            actual: n as usize,
        });
    }
    let p = 0.5 + level / 2.0;
    if n < NORMAL_APPROX_THRESHOLD {
        StudentT::new((n - 1) as f64)?.quantile(p)
    } else {
        Normal::standard().quantile(p)
    }
}

/// The §5.1.1 confidence interval for a population mean:
/// `x̄ ± t·s/√n`.
///
/// # Errors
///
/// Returns [`StatsError::SampleTooSmall`] for fewer than two observations
/// and [`StatsError::InvalidParameter`] for a level outside `(0, 1)`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), mtvar_stats::StatsError> {
/// use mtvar_stats::{describe::Summary, infer::mean_confidence_interval};
///
/// let s = Summary::from_slice(&[4.2, 4.5, 4.3, 4.6, 4.4])?;
/// let ci = mean_confidence_interval(&s, 0.95)?;
/// assert!(ci.contains(s.mean()));
/// # Ok(())
/// # }
/// ```
pub fn mean_confidence_interval(summary: &Summary, level: f64) -> Result<ConfidenceInterval> {
    let t = critical_value(summary.n(), level)?;
    let half = t * summary.standard_error();
    ConfidenceInterval::new(summary.mean() - half, summary.mean() + half, level)
}

/// Which two-sample t-test to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TTestKind {
    /// Pooled-variance test (the paper's §5.1.2 formulation, `2n − 2`
    /// degrees of freedom for equal group sizes).
    #[default]
    Pooled,
    /// Welch's test (unequal variances, Welch–Satterthwaite df).
    Welch,
}

/// Result of a two-sample t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TTest {
    statistic: f64,
    df: f64,
    kind: TTestKind,
}

impl TTest {
    /// The t statistic (positive when the first sample's mean is larger).
    pub fn statistic(&self) -> f64 {
        self.statistic
    }

    /// Degrees of freedom of the reference t distribution.
    pub fn df(&self) -> f64 {
        self.df
    }

    /// Which test variant produced this result.
    pub fn kind(&self) -> TTestKind {
        self.kind
    }

    /// One-sided p-value for the alternative "first mean > second mean".
    ///
    /// In the paper's setting this is the upper bound on the probability of a
    /// wrong conclusion when the sample means already rank the first
    /// configuration above the second.
    pub fn p_one_sided(&self) -> f64 {
        let t = StudentT::new(self.df).expect("df > 0 by construction");
        1.0 - t.cdf(self.statistic)
    }

    /// Two-sided p-value for the alternative "the means differ".
    pub fn p_two_sided(&self) -> f64 {
        let t = StudentT::new(self.df).expect("df > 0 by construction");
        2.0 * (1.0 - t.cdf(self.statistic.abs()))
    }

    /// Whether the one-sided test rejects the null hypothesis of equal means
    /// at significance level `alpha` (i.e. the conclusion "first mean is
    /// larger" carries at most probability `alpha` of being wrong).
    pub fn rejects_one_sided(&self, alpha: f64) -> bool {
        self.p_one_sided() <= alpha
    }
}

/// Runs a two-sample t-test of `H₀: μ_a = μ_b` from two sample summaries.
///
/// With [`TTestKind::Pooled`] and equal sample sizes this is exactly the §5.1.2
/// statistic `t = (ȳ_a − ȳ_b) / √((s_a² + s_b²)/n)` with `2n − 2` degrees of
/// freedom.
///
/// # Errors
///
/// Returns [`StatsError::SampleTooSmall`] if either sample has fewer than two
/// observations, and [`StatsError::InvalidParameter`] if both sample
/// variances are zero (the statistic is undefined).
pub fn two_sample_t_test(a: &Summary, b: &Summary, kind: TTestKind) -> Result<TTest> {
    for s in [a, b] {
        if s.n() < 2 {
            return Err(StatsError::SampleTooSmall {
                required: 2,
                actual: s.n() as usize,
            });
        }
    }
    let (na, nb) = (a.n() as f64, b.n() as f64);
    let (va, vb) = (a.variance(), b.variance());
    if va == 0.0 && vb == 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "variance",
            value: 0.0,
            expected: "at least one sample must have nonzero variance",
        });
    }
    let diff = a.mean() - b.mean();
    let (statistic, df) = match kind {
        TTestKind::Pooled => {
            let sp2 = ((na - 1.0) * va + (nb - 1.0) * vb) / (na + nb - 2.0);
            let se = (sp2 * (1.0 / na + 1.0 / nb)).sqrt();
            (diff / se, na + nb - 2.0)
        }
        TTestKind::Welch => {
            let se2 = va / na + vb / nb;
            let se = se2.sqrt();
            let df = se2 * se2 / ((va / na).powi(2) / (na - 1.0) + (vb / nb).powi(2) / (nb - 1.0));
            (diff / se, df)
        }
    };
    Ok(TTest {
        statistic,
        df,
        kind,
    })
}

/// The paper's §5.1.1 sample-size estimate:
///
/// `n = (t · S / (r · Ȳ))² = (t · CoV / r)²`
///
/// where `cov` is the coefficient of variation `S/Ȳ` **as a fraction** (not
/// percent), `relative_error` is the maximum allowed relative error `r`, and
/// `t` is the normal deviate for the desired confidence probability.
/// Returns the estimate rounded up to a whole number of runs.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] if `cov <= 0`,
/// `relative_error <= 0`, or the confidence level is outside `(0, 1)`.
///
/// # Example
///
/// The paper's worked example: 4% relative error, 95% confidence, 9% CoV
/// gives `(2·0.09/0.04)² ≈ 20` runs.
///
/// ```
/// # fn main() -> Result<(), mtvar_stats::StatsError> {
/// let n = mtvar_stats::infer::sample_size_for_relative_error(0.09, 0.04, 0.95)?;
/// assert_eq!(n, 20);
/// # Ok(())
/// # }
/// ```
pub fn sample_size_for_relative_error(
    cov: f64,
    relative_error: f64,
    confidence: f64,
) -> Result<u64> {
    check_level(confidence)?;
    for (name, v) in [("cov", cov), ("relative_error", relative_error)] {
        if !v.is_finite() || v <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name,
                value: v,
                expected: "must be > 0",
            });
        }
    }
    let z = Normal::standard().quantile(0.5 + confidence / 2.0)?;
    let n = (z * cov / relative_error).powi(2);
    Ok(n.ceil() as u64)
}

/// Result of a one-way analysis of variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anova {
    ss_between: f64,
    ss_within: f64,
    df_between: f64,
    df_within: f64,
    f_statistic: f64,
    p_value: f64,
}

impl Anova {
    /// Between-group sum of squares.
    pub fn ss_between(&self) -> f64 {
        self.ss_between
    }

    /// Within-group sum of squares.
    pub fn ss_within(&self) -> f64 {
        self.ss_within
    }

    /// Between-group degrees of freedom (`k − 1`).
    pub fn df_between(&self) -> f64 {
        self.df_between
    }

    /// Within-group degrees of freedom (`N − k`).
    pub fn df_within(&self) -> f64 {
        self.df_within
    }

    /// Between-group mean square.
    pub fn ms_between(&self) -> f64 {
        self.ss_between / self.df_between
    }

    /// Within-group mean square.
    pub fn ms_within(&self) -> f64 {
        self.ss_within / self.df_within
    }

    /// The F statistic, `MS_between / MS_within`.
    pub fn f_statistic(&self) -> f64 {
        self.f_statistic
    }

    /// The p-value of the F test.
    pub fn p_value(&self) -> f64 {
        self.p_value
    }

    /// Whether between-group variability is significant at level `alpha` —
    /// in the paper's §5.2 reading: whether **time variability** is present
    /// and runs must be sampled from multiple starting points.
    pub fn is_significant(&self, alpha: f64) -> bool {
        self.p_value <= alpha
    }
}

/// One-way ANOVA over `groups` (§5.2).
///
/// Each group is one checkpoint's set of perturbed-run measurements; a
/// significant F statistic means between-group (time) variability cannot be
/// attributed to within-group (space) variability.
///
/// # Errors
///
/// Returns [`StatsError::SampleTooSmall`] if fewer than two groups are
/// supplied or any group is empty, [`StatsError::NonFiniteInput`] for
/// non-finite data, and [`StatsError::InvalidParameter`] if all observations
/// are identical (the F statistic is undefined).
pub fn anova_one_way(groups: &[&[f64]]) -> Result<Anova> {
    if groups.len() < 2 {
        return Err(StatsError::SampleTooSmall {
            required: 2,
            actual: groups.len(),
        });
    }
    let mut total = Summary::new();
    let mut group_summaries = Vec::with_capacity(groups.len());
    for g in groups {
        if g.is_empty() {
            return Err(StatsError::EmptySample);
        }
        let s = Summary::from_slice(g)?;
        total.merge(&s);
        group_summaries.push(s);
    }
    let grand_mean = total.mean();
    let n_total = total.n() as f64;
    let k = groups.len() as f64;
    if n_total - k < 1.0 {
        return Err(StatsError::SampleTooSmall {
            required: groups.len() + 1,
            actual: total.n() as usize,
        });
    }

    let mut ss_between = 0.0;
    let mut ss_within = 0.0;
    for s in &group_summaries {
        let d = s.mean() - grand_mean;
        ss_between += s.n() as f64 * d * d;
        // m2 is n * population variance = Σ (x - x̄_g)².
        ss_within += s.population_variance() * s.n() as f64;
    }

    let df_between = k - 1.0;
    let df_within = n_total - k;
    if ss_within == 0.0 && ss_between == 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "data",
            value: 0.0,
            expected: "observations must not all be identical",
        });
    }
    let f_statistic = if ss_within == 0.0 {
        f64::INFINITY
    } else {
        (ss_between / df_between) / (ss_within / df_within)
    };
    let p_value = if f_statistic.is_infinite() {
        0.0
    } else {
        // Survival function of F(df_between, df_within).
        1.0 - reg_inc_beta_unchecked(
            df_between / 2.0,
            df_within / 2.0,
            df_between * f_statistic / (df_between * f_statistic + df_within),
        )
    };
    Ok(Anova {
        ss_between,
        ss_within,
        df_between,
        df_within,
        f_statistic,
        p_value,
    })
}

/// Result of a Jarque–Bera normality test.
///
/// The §5.1 machinery (t-tests, CIs) assumes approximately normal runtimes;
/// this diagnostic flags samples where that assumption is shaky (e.g. a
/// bimodal run space caused by a lock convoy that forms in some runs only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JarqueBera {
    statistic: f64,
    skewness: f64,
    excess_kurtosis: f64,
    p_value: f64,
}

impl JarqueBera {
    /// The JB statistic `n/6 · (S² + K²/4)`.
    pub fn statistic(&self) -> f64 {
        self.statistic
    }

    /// Sample skewness.
    pub fn skewness(&self) -> f64 {
        self.skewness
    }

    /// Sample excess kurtosis.
    pub fn excess_kurtosis(&self) -> f64 {
        self.excess_kurtosis
    }

    /// Asymptotic p-value against χ²(2). Treat small-sample values as rough
    /// guidance only (JB is asymptotic).
    pub fn p_value(&self) -> f64 {
        self.p_value
    }

    /// Whether normality is rejected at level `alpha`.
    pub fn rejects_normality(&self, alpha: f64) -> bool {
        self.p_value <= alpha
    }
}

/// Runs the Jarque–Bera normality test on a sample.
///
/// # Errors
///
/// Returns [`StatsError::SampleTooSmall`] for fewer than four observations,
/// [`StatsError::NonFiniteInput`] for non-finite data, and
/// [`StatsError::InvalidParameter`] for a constant sample.
pub fn jarque_bera(values: &[f64]) -> Result<JarqueBera> {
    if values.len() < 4 {
        return Err(StatsError::SampleTooSmall {
            required: 4,
            actual: values.len(),
        });
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFiniteInput);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let m2 = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    if m2 == 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "variance",
            value: 0.0,
            expected: "sample must not be constant",
        });
    }
    let m3 = values.iter().map(|v| (v - mean).powi(3)).sum::<f64>() / n;
    let m4 = values.iter().map(|v| (v - mean).powi(4)).sum::<f64>() / n;
    let skewness = m3 / m2.powf(1.5);
    let excess_kurtosis = m4 / (m2 * m2) - 3.0;
    let statistic = n / 6.0 * (skewness * skewness + excess_kurtosis * excess_kurtosis / 4.0);
    // χ²(2) survival function is exp(−x/2).
    let p_value = (-statistic / 2.0).exp();
    Ok(JarqueBera {
        statistic,
        skewness,
        excess_kurtosis,
        p_value,
    })
}

/// Result of a two-way (two-factor, with replication) analysis of variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoWayAnova {
    /// F statistic and p-value for factor A (rows).
    pub factor_a: (f64, f64),
    /// F statistic and p-value for factor B (columns).
    pub factor_b: (f64, f64),
    /// F statistic and p-value for the A×B interaction.
    pub interaction: (f64, f64),
    /// Error (within-cell) mean square.
    pub ms_error: f64,
}

impl TwoWayAnova {
    /// Whether the A×B interaction is significant at `alpha` — in the
    /// paper's §5.2 reading: whether a configuration change *changes the
    /// variability structure* of a workload, so per-combination analyses are
    /// needed.
    pub fn interaction_significant(&self, alpha: f64) -> bool {
        self.interaction.1 <= alpha
    }
}

/// Two-way ANOVA over a full factorial design with equal replication:
/// `cells[a][b]` holds the `r >= 2` replicates of factor levels `(a, b)` —
/// e.g. workloads × system configurations, the combination analysis the
/// paper suggests when "the simulated system configuration has an impact on
/// variability" (§5.2).
///
/// # Errors
///
/// Returns [`StatsError::SampleTooSmall`] unless there are at least two
/// levels per factor and two replicates per cell, and
/// [`StatsError::InvalidParameter`] if cells are ragged or the data is
/// entirely constant.
pub fn anova_two_way(cells: &[Vec<Vec<f64>>]) -> Result<TwoWayAnova> {
    let a_levels = cells.len();
    if a_levels < 2 {
        return Err(StatsError::SampleTooSmall {
            required: 2,
            actual: a_levels,
        });
    }
    let b_levels = cells[0].len();
    if b_levels < 2 {
        return Err(StatsError::SampleTooSmall {
            required: 2,
            actual: b_levels,
        });
    }
    let reps = cells[0].first().map_or(0, Vec::len);
    if reps < 2 {
        return Err(StatsError::SampleTooSmall {
            required: 2,
            actual: reps,
        });
    }
    for row in cells {
        if row.len() != b_levels || row.iter().any(|c| c.len() != reps) {
            return Err(StatsError::InvalidParameter {
                name: "cells",
                value: 0.0,
                expected: "design must be a full factorial with equal replication",
            });
        }
        for cell in row {
            if cell.iter().any(|v| !v.is_finite()) {
                return Err(StatsError::NonFiniteInput);
            }
        }
    }

    let (a, b, r) = (a_levels as f64, b_levels as f64, reps as f64);
    let n = a * b * r;
    let grand: f64 = cells
        .iter()
        .flat_map(|row| row.iter().flat_map(|c| c.iter()))
        .sum::<f64>()
        / n;

    let mut ss_a = 0.0;
    for row in cells {
        let mean_a: f64 = row.iter().flat_map(|c| c.iter()).sum::<f64>() / (b * r);
        ss_a += b * r * (mean_a - grand).powi(2);
    }
    let mut ss_b = 0.0;
    for j in 0..b_levels {
        let mean_b: f64 = cells.iter().flat_map(|row| row[j].iter()).sum::<f64>() / (a * r);
        ss_b += a * r * (mean_b - grand).powi(2);
    }
    let mut ss_error = 0.0;
    let mut ss_cells = 0.0;
    for row in cells {
        for cell in row {
            let mean_c: f64 = cell.iter().sum::<f64>() / r;
            ss_cells += r * (mean_c - grand).powi(2);
            ss_error += cell.iter().map(|v| (v - mean_c).powi(2)).sum::<f64>();
        }
    }
    let ss_ab = (ss_cells - ss_a - ss_b).max(0.0);

    let df_a = a - 1.0;
    let df_b = b - 1.0;
    let df_ab = df_a * df_b;
    let df_e = a * b * (r - 1.0);
    if ss_error == 0.0 && ss_cells == 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "data",
            value: 0.0,
            expected: "observations must not all be identical",
        });
    }
    let ms_e = ss_error / df_e;
    let f_of = |ss: f64, df: f64| -> (f64, f64) {
        if ms_e == 0.0 {
            return (f64::INFINITY, 0.0);
        }
        let f = (ss / df) / ms_e;
        let p = 1.0 - reg_inc_beta_unchecked(df / 2.0, df_e / 2.0, df * f / (df * f + df_e));
        (f, p)
    };
    Ok(TwoWayAnova {
        factor_a: f_of(ss_a, df_a),
        factor_b: f_of(ss_b, df_b),
        interaction: f_of(ss_ab, df_ab),
        ms_error: ms_e,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(v: &[f64]) -> Summary {
        Summary::from_slice(v).unwrap()
    }

    #[test]
    fn ci_basic_properties() {
        let s = summary(&[4.0, 5.0, 6.0, 5.0, 4.5, 5.5]);
        let ci = mean_confidence_interval(&s, 0.95).unwrap();
        assert!(ci.contains(s.mean()));
        assert!((ci.midpoint() - s.mean()).abs() < 1e-12);
        assert!(ci.width() > 0.0);
        // Higher confidence => wider interval.
        let ci99 = mean_confidence_interval(&s, 0.99).unwrap();
        assert!(ci99.width() > ci.width());
    }

    #[test]
    fn ci_matches_hand_computation() {
        // n = 4, mean = 10, s = 2 => 95% CI = 10 ± t_{.975,3} * 2/2
        let s = summary(&[8.0, 9.0, 11.0, 12.0]);
        assert!((s.mean() - 10.0).abs() < 1e-12);
        let sd = s.sd();
        let t = StudentT::new(3.0).unwrap().quantile(0.975).unwrap();
        let ci = mean_confidence_interval(&s, 0.95).unwrap();
        let half = t * sd / 2.0;
        assert!((ci.lower() - (10.0 - half)).abs() < 1e-9);
        assert!((ci.upper() - (10.0 + half)).abs() < 1e-9);
    }

    #[test]
    fn critical_value_switches_to_normal_at_50() {
        let t49 = critical_value(49, 0.95).unwrap();
        let t50 = critical_value(50, 0.95).unwrap();
        let z = Normal::standard().quantile(0.975).unwrap();
        assert!((t50 - z).abs() < 1e-12);
        assert!(t49 > t50); // t distribution has fatter tails
    }

    #[test]
    fn ci_overlap_detection() {
        let a = ConfidenceInterval::new(1.0, 2.0, 0.95).unwrap();
        let b = ConfidenceInterval::new(1.5, 3.0, 0.95).unwrap();
        let c = ConfidenceInterval::new(2.5, 3.0, 0.95).unwrap();
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        // Touching endpoints count as overlap.
        let d = ConfidenceInterval::new(2.0, 2.2, 0.95).unwrap();
        assert!(a.overlaps(&d));
    }

    #[test]
    fn ci_validation() {
        assert!(ConfidenceInterval::new(2.0, 1.0, 0.95).is_err());
        assert!(ConfidenceInterval::new(1.0, 2.0, 0.0).is_err());
        assert!(ConfidenceInterval::new(1.0, 2.0, 1.0).is_err());
        assert!(ConfidenceInterval::new(f64::NAN, 2.0, 0.5).is_err());
        let s = summary(&[1.0]);
        assert!(mean_confidence_interval(&s, 0.95).is_err());
    }

    #[test]
    fn pooled_t_test_reference() {
        // Classic textbook example: equal n, hand-computed statistic.
        let a = summary(&[30.02, 29.99, 30.11, 29.97, 30.01, 29.99]);
        let b = summary(&[29.89, 29.93, 29.72, 29.98, 30.02, 29.98]);
        let t = two_sample_t_test(&a, &b, TTestKind::Pooled).unwrap();
        assert!((t.df() - 10.0).abs() < 1e-12);
        assert!((t.statistic() - 1.959).abs() < 2e-3);
        // Welch df must be <= pooled df and > min(n)-1.
        let w = two_sample_t_test(&a, &b, TTestKind::Welch).unwrap();
        assert!(w.df() <= 10.0 + 1e-9);
        assert!(w.df() > 5.0);
    }

    #[test]
    fn t_test_p_values_sensible() {
        let a = summary(&[10.0, 10.1, 9.9, 10.2, 9.8]);
        let b = summary(&[12.0, 12.1, 11.9, 12.2, 11.8]);
        // b is clearly larger: one-sided p for "a > b" near 1, for "b > a" near 0.
        let ab = two_sample_t_test(&a, &b, TTestKind::Pooled).unwrap();
        assert!(ab.p_one_sided() > 0.999);
        let ba = two_sample_t_test(&b, &a, TTestKind::Pooled).unwrap();
        assert!(ba.p_one_sided() < 1e-6);
        assert!(ba.rejects_one_sided(0.01));
        assert!((ab.p_two_sided() - ba.p_two_sided()).abs() < 1e-12);
    }

    #[test]
    fn t_test_symmetry() {
        let a = summary(&[1.0, 2.0, 3.0]);
        let b = summary(&[2.0, 3.0, 4.0]);
        let ab = two_sample_t_test(&a, &b, TTestKind::Pooled).unwrap();
        let ba = two_sample_t_test(&b, &a, TTestKind::Pooled).unwrap();
        assert!((ab.statistic() + ba.statistic()).abs() < 1e-12);
        assert_eq!(ab.df(), ba.df());
    }

    #[test]
    fn t_test_validation() {
        let tiny = summary(&[1.0]);
        let ok = summary(&[1.0, 2.0]);
        assert!(two_sample_t_test(&tiny, &ok, TTestKind::Pooled).is_err());
        let const_a = summary(&[2.0, 2.0]);
        let const_b = summary(&[3.0, 3.0]);
        assert!(two_sample_t_test(&const_a, &const_b, TTestKind::Welch).is_err());
    }

    #[test]
    fn sample_size_paper_worked_example() {
        // §5.1.1: r = 4%, 95% confidence, CoV ≈ 9% => ≈ 20 runs.
        let n = sample_size_for_relative_error(0.09, 0.04, 0.95).unwrap();
        assert_eq!(n, 20);
    }

    #[test]
    fn sample_size_scales_sensibly() {
        // Halving the allowed error quadruples the runs.
        let n1 = sample_size_for_relative_error(0.10, 0.04, 0.95).unwrap();
        let n2 = sample_size_for_relative_error(0.10, 0.02, 0.95).unwrap();
        assert!(n2 >= 4 * n1 - 4 && n2 <= 4 * n1 + 4);
        // Higher confidence needs more runs.
        let n3 = sample_size_for_relative_error(0.10, 0.04, 0.99).unwrap();
        assert!(n3 > n1);
    }

    #[test]
    fn sample_size_validation() {
        assert!(sample_size_for_relative_error(0.0, 0.04, 0.95).is_err());
        assert!(sample_size_for_relative_error(0.09, -0.1, 0.95).is_err());
        assert!(sample_size_for_relative_error(0.09, 0.04, 1.0).is_err());
    }

    #[test]
    fn anova_reference_example() {
        // Hand-checked one-way ANOVA:
        // groups (1,2,3), (2,3,4), (5,6,7): SSB = 26, SSW = 6, F = 13.
        let g1 = [1.0, 2.0, 3.0];
        let g2 = [2.0, 3.0, 4.0];
        let g3 = [5.0, 6.0, 7.0];
        let a = anova_one_way(&[&g1, &g2, &g3]).unwrap();
        assert!((a.ss_between() - 26.0).abs() < 1e-9);
        assert!((a.ss_within() - 6.0).abs() < 1e-9);
        assert!((a.df_between() - 2.0).abs() < 1e-12);
        assert!((a.df_within() - 6.0).abs() < 1e-12);
        assert!((a.f_statistic() - 13.0).abs() < 1e-9);
        assert!(a.p_value() < 0.01);
        assert!(a.is_significant(0.05));
    }

    #[test]
    fn anova_no_group_effect() {
        // Identical group means: F ≈ 0, not significant.
        let g1 = [1.0, 2.0, 3.0];
        let g2 = [2.0, 1.0, 3.0];
        let a = anova_one_way(&[&g1, &g2]).unwrap();
        assert!(a.f_statistic() < 1e-9);
        assert!(!a.is_significant(0.05));
        assert!(a.p_value() > 0.9);
    }

    #[test]
    fn anova_f_matches_squared_t_for_two_groups() {
        // For k = 2, F = t² (pooled).
        let g1 = [4.0, 5.0, 6.0, 5.5];
        let g2 = [6.0, 7.0, 8.0, 6.5];
        let a = anova_one_way(&[&g1, &g2]).unwrap();
        let t = two_sample_t_test(&summary(&g1), &summary(&g2), TTestKind::Pooled).unwrap();
        assert!((a.f_statistic() - t.statistic().powi(2)).abs() < 1e-9);
        assert!((a.p_value() - t.p_two_sided()).abs() < 1e-9);
    }

    #[test]
    fn anova_validation() {
        let g = [1.0, 2.0];
        assert!(anova_one_way(&[&g]).is_err());
        assert!(anova_one_way(&[&g, &[]]).is_err());
        let c = [3.0, 3.0];
        assert!(anova_one_way(&[&c, &c]).is_err());
    }

    #[test]
    fn anova_handles_zero_within_variance() {
        let g1 = [1.0, 1.0];
        let g2 = [2.0, 2.0];
        let a = anova_one_way(&[&g1, &g2]).unwrap();
        assert!(a.f_statistic().is_infinite());
        assert_eq!(a.p_value(), 0.0);
        assert!(a.is_significant(0.001));
    }

    #[test]
    fn jarque_bera_accepts_near_normal_symmetric_data() {
        // Symmetric, light-tailed sample: skewness ~ 0, kurtosis mild.
        let vals: Vec<f64> = (-20..=20).map(f64::from).collect();
        let jb = jarque_bera(&vals).unwrap();
        assert!(jb.skewness().abs() < 1e-9);
        // Uniform data is platykurtic but with n = 41 JB stays moderate.
        assert!(jb.statistic() < 10.0);
        assert!((0.0..=1.0).contains(&jb.p_value()));
    }

    #[test]
    fn jarque_bera_rejects_heavy_skew() {
        // Strongly right-skewed: a spike plus a far outlier cluster.
        let mut vals = vec![1.0; 50];
        vals.extend_from_slice(&[40.0, 45.0, 50.0, 55.0]);
        let jb = jarque_bera(&vals).unwrap();
        assert!(jb.skewness() > 1.0);
        assert!(jb.rejects_normality(0.01), "p = {}", jb.p_value());
    }

    #[test]
    fn jarque_bera_validation() {
        assert!(jarque_bera(&[1.0, 2.0, 3.0]).is_err());
        assert!(jarque_bera(&[5.0; 10]).is_err());
        assert!(jarque_bera(&[1.0, 2.0, f64::NAN, 3.0]).is_err());
    }

    #[test]
    fn two_way_anova_textbook_example() {
        // 2x2 with 3 replicates; strong A effect, weak B, no interaction.
        let cells = vec![
            vec![vec![10.0, 11.0, 9.0], vec![10.5, 11.5, 9.5]],
            vec![vec![20.0, 21.0, 19.0], vec![20.5, 21.5, 19.5]],
        ];
        let a = anova_two_way(&cells).unwrap();
        assert!(
            a.factor_a.0 > 50.0,
            "A should dominate: F = {}",
            a.factor_a.0
        );
        assert!(a.factor_a.1 < 0.001);
        assert!(a.factor_b.1 > 0.3, "B is weak: p = {}", a.factor_b.1);
        assert!(
            a.interaction.1 > 0.5,
            "no interaction: p = {}",
            a.interaction.1
        );
        assert!(!a.interaction_significant(0.05));
        assert!(a.ms_error > 0.0);
    }

    #[test]
    fn two_way_anova_detects_interaction() {
        // Crossed means: the effect of B reverses with A — pure interaction.
        let cells = vec![
            vec![vec![10.0, 10.2, 9.8], vec![20.0, 20.2, 19.8]],
            vec![vec![20.0, 20.2, 19.8], vec![10.0, 10.2, 9.8]],
        ];
        let a = anova_two_way(&cells).unwrap();
        assert!(a.interaction_significant(0.001));
        assert!(a.factor_a.1 > 0.5 && a.factor_b.1 > 0.5);
    }

    #[test]
    fn two_way_anova_validation() {
        assert!(anova_two_way(&[]).is_err());
        assert!(anova_two_way(&[vec![vec![1.0, 2.0]]]).is_err());
        // Ragged design.
        let ragged = vec![vec![vec![1.0, 2.0], vec![1.0, 2.0]], vec![vec![1.0, 2.0]]];
        assert!(anova_two_way(&ragged).is_err());
        // Single replicate.
        let single = vec![vec![vec![1.0], vec![2.0]], vec![vec![3.0], vec![4.0]]];
        assert!(anova_two_way(&single).is_err());
        // Constant data.
        let constant = vec![
            vec![vec![2.0, 2.0], vec![2.0, 2.0]],
            vec![vec![2.0, 2.0], vec![2.0, 2.0]],
        ];
        assert!(anova_two_way(&constant).is_err());
    }
}
