//! Descriptive statistics: sample summaries, the coefficient of variation,
//! and the paper's *range of variability* metric.
//!
//! §3.3 of the paper defines the **coefficient of variation** as "100 times
//! the ratio of the standard deviation to the mean", and §4.2 defines the
//! **range of variability** as "the difference between the maximum and the
//! minimum runtimes, taken as a percentage of the mean". Both are implemented
//! on [`Summary`].

use crate::{Result, StatsError};

/// A numerically stable summary of a sample of `f64` observations.
///
/// Accumulates with Welford's online algorithm, so it can be built
/// incrementally via [`Summary::push`] / [`Extend`] or in one shot via
/// [`Summary::from_slice`] / [`FromIterator`].
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), mtvar_stats::StatsError> {
/// use mtvar_stats::describe::Summary;
///
/// let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])?;
/// assert_eq!(s.n(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_sd() - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from a slice of observations.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySample`] for an empty slice and
    /// [`StatsError::NonFiniteInput`] if any value is NaN or infinite.
    pub fn from_slice(values: &[f64]) -> Result<Self> {
        if values.is_empty() {
            return Err(StatsError::EmptySample);
        }
        let mut s = Summary::new();
        for &v in values {
            s.try_push(v)?;
        }
        Ok(s)
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite; use [`Summary::try_push`] for a
    /// fallible variant.
    pub fn push(&mut self, value: f64) {
        self.try_push(value)
            .expect("Summary::push requires a finite value");
    }

    /// Adds one observation, rejecting non-finite values.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NonFiniteInput`] if `value` is NaN or infinite.
    pub fn try_push(&mut self, value: f64) -> Result<()> {
        if !value.is_finite() {
            return Err(StatsError::NonFiniteInput);
        }
        self.n += 1;
        let delta = value - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        Ok(())
    }

    /// Merges another summary into this one (parallel Welford combine).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Whether the summary holds no observations.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sample mean.
    ///
    /// Returns NaN for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`n − 1` denominator).
    ///
    /// Returns NaN for fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn sd(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Population variance (`n` denominator).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn population_sd(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest observation (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Standard error of the mean, `s / √n`.
    pub fn standard_error(&self) -> f64 {
        self.sd() / (self.n as f64).sqrt()
    }

    /// The paper's **coefficient of variation** (§3.3): `100 · s / x̄`,
    /// in percent.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::SampleTooSmall`] for fewer than two
    /// observations and [`StatsError::InvalidParameter`] if the mean is zero.
    pub fn coefficient_of_variation(&self) -> Result<f64> {
        if self.n < 2 {
            return Err(StatsError::SampleTooSmall {
                required: 2,
                actual: self.n as usize,
            });
        }
        if self.mean == 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                value: 0.0,
                expected: "must be nonzero for a coefficient of variation",
            });
        }
        Ok(100.0 * self.sd() / self.mean.abs())
    }

    /// The paper's **range of variability** (§4.2): `100 · (max − min) / x̄`,
    /// in percent. "The higher the range of variability, the more likely one
    /// is to make an incorrect conclusion."
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySample`] for an empty summary and
    /// [`StatsError::InvalidParameter`] if the mean is zero.
    pub fn range_of_variability(&self) -> Result<f64> {
        if self.n == 0 {
            return Err(StatsError::EmptySample);
        }
        if self.mean == 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                value: 0.0,
                expected: "must be nonzero for a range of variability",
            });
        }
        Ok(100.0 * (self.max - self.min) / self.mean.abs())
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

/// Returns the `q`-quantile (`0 <= q <= 1`) of a sample using linear
/// interpolation between order statistics (R type-7, the common default).
///
/// # Errors
///
/// Returns [`StatsError::EmptySample`] for an empty slice,
/// [`StatsError::NonFiniteInput`] for non-finite data, and
/// [`StatsError::InvalidParameter`] if `q` is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), mtvar_stats::StatsError> {
/// let med = mtvar_stats::describe::quantile(&[1.0, 2.0, 3.0, 4.0], 0.5)?;
/// assert!((med - 2.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn quantile(values: &[f64], q: f64) -> Result<f64> {
    if values.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFiniteInput);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidParameter {
            name: "q",
            value: q,
            expected: "must lie in [0, 1]",
        });
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values checked finite"));
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Ok(sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// Returns the sample median (the 0.5-[`quantile`]).
///
/// # Errors
///
/// Same as [`quantile`].
pub fn median(values: &[f64]) -> Result<f64> {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.n(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert!((s.variance() - 2.5).abs() < 1e-12);
        assert!((s.population_variance() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert!((s.standard_error() - (2.5f64 / 5.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::from_slice(&[42.0]).unwrap();
        assert_eq!(s.n(), 1);
        assert_eq!(s.mean(), 42.0);
        assert!(s.variance().is_nan());
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn summary_empty_behaviour() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert!(s.mean().is_nan());
        assert!(s.min().is_nan());
        assert!(matches!(
            Summary::from_slice(&[]),
            Err(StatsError::EmptySample)
        ));
        assert!(s.range_of_variability().is_err());
    }

    #[test]
    fn summary_rejects_non_finite() {
        assert!(Summary::from_slice(&[1.0, f64::NAN]).is_err());
        assert!(Summary::from_slice(&[f64::INFINITY]).is_err());
        let mut s = Summary::new();
        assert!(s.try_push(f64::NEG_INFINITY).is_err());
        assert_eq!(s.n(), 0);
    }

    #[test]
    fn coefficient_of_variation_matches_paper_definition() {
        // CoV = 100 * sd / mean.
        let s = Summary::from_slice(&[9.0, 10.0, 11.0]).unwrap();
        let cov = s.coefficient_of_variation().unwrap();
        assert!((cov - 100.0 * 1.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn range_of_variability_matches_paper_definition() {
        let s = Summary::from_slice(&[9.0, 10.0, 11.0]).unwrap();
        let rov = s.range_of_variability().unwrap();
        assert!((rov - 100.0 * 2.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn cov_requires_two_observations_and_nonzero_mean() {
        let s = Summary::from_slice(&[5.0]).unwrap();
        assert!(matches!(
            s.coefficient_of_variation(),
            Err(StatsError::SampleTooSmall { .. })
        ));
        let z = Summary::from_slice(&[-1.0, 1.0]).unwrap();
        assert!(z.coefficient_of_variation().is_err());
    }

    #[test]
    fn merge_equals_single_pass() {
        let all = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.5];
        let whole = Summary::from_slice(&all).unwrap();
        let mut a = Summary::from_slice(&all[..4]).unwrap();
        let b = Summary::from_slice(&all[4..]).unwrap();
        a.merge(&b);
        assert_eq!(a.n(), whole.n());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::from_slice(&[1.0, 2.0]).unwrap();
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn from_iterator_collects() {
        let s: Summary = (1..=10).map(|i| i as f64).collect();
        assert_eq!(s.n(), 10);
        assert!((s.mean() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let data = [10.0, 20.0, 30.0, 40.0];
        assert!((quantile(&data, 0.0).unwrap() - 10.0).abs() < 1e-12);
        assert!((quantile(&data, 1.0).unwrap() - 40.0).abs() < 1e-12);
        assert!((quantile(&data, 0.5).unwrap() - 25.0).abs() < 1e-12);
        assert!((median(&[5.0, 1.0, 3.0]).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_validates_input() {
        assert!(quantile(&[], 0.5).is_err());
        assert!(quantile(&[1.0], 1.5).is_err());
        assert!(quantile(&[1.0, f64::NAN], 0.5).is_err());
    }

    #[test]
    fn welford_is_stable_for_large_offsets() {
        // A classic catastrophic-cancellation case for naive sum-of-squares.
        let offset = 1e9;
        let s = Summary::from_slice(&[offset + 4.0, offset + 7.0, offset + 13.0, offset + 16.0])
            .unwrap();
        assert!((s.variance() - 30.0).abs() < 1e-6);
    }
}
