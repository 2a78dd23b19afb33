//! Sampling methodologies as first-class estimators of a population mean.
//!
//! The HPCA 2003 paper estimates cycles-per-transaction from *full*
//! multi-run experiments: measure every starting point of interest, several
//! perturbed runs each. Modern practice samples instead — measure a
//! *subset* of positions and attach a confidence interval to the resulting
//! estimate. This module implements three such estimators over an abstract
//! **position frame** `0..population`:
//!
//! * [`srs::position_sample`] — simple-random and stratified position
//!   sampling (one knob, [`srs::PositionDesign::strata`], selects between
//!   them).
//! * [`ranked_set::ranked_set_sample`] — ranked-set sampling (Ekman-style):
//!   rank cheap proxies of candidate positions, pay the expensive
//!   measurement only for one position per rank.
//! * [`live::live_sample`] — live sampling (Pac-Sim-style): adaptively
//!   extend measurement until a target confidence-interval half-width is
//!   met.
//!
//! Every estimator consumes a [`PositionOracle`] — the bridge to whatever
//! produces a position's value (an architectural simulator forking runs
//! from a warmup checkpoint, in `mtvar-core`; a closure over synthetic data
//! in the tests below) — and returns an [`Estimate`]: a point estimate, a
//! [`ConfidenceInterval`], and the [`SamplingCost`] paid to obtain it.
//!
//! The estimand throughout is the **population mean** of the frame: the
//! average of the oracle's value over all `population` positions. That is
//! exactly the quantity a full time-sampling study (every position
//! measured) computes, which is what makes these estimators directly
//! comparable to the paper's own methodology: `mtvar-core`'s evaluation
//! harness scores each estimator's wrong-conclusion ratio and empirical CI
//! coverage against that full-run ground truth.
//!
//! # Example
//!
//! A synthetic population with a known mean, sampled three ways:
//!
//! ```
//! use mtvar_stats::sampling::srs::{position_sample, PositionDesign};
//! use mtvar_stats::sampling::Measurement;
//!
//! // Population value at position p is 100 + a deterministic wobble.
//! let mut oracle = |p: u64| Measurement::new(100.0 + (p % 7) as f64, 1.0);
//! let design = PositionDesign {
//!     population: 700,
//!     samples: 14,
//!     strata: 1, // 1 = simple random sampling
//!     seed: 9,
//!     level: 0.95,
//! };
//! let est = position_sample(&design, &mut oracle).unwrap();
//! assert_eq!(est.cost().measurements, 14);
//! assert!(est.ci().contains(103.0)); // true mean of the wobble is 103
//! ```

pub mod live;
pub mod ranked_set;
pub mod srs;

use std::convert::Infallible;
use std::fmt;

use crate::infer::ConfidenceInterval;
use crate::StatsError;

/// One evaluation of a position: the value observed and the cost paid.
///
/// `cost` is in whatever unit the oracle accounts in — `mtvar-core` uses
/// simulated cycles, so an estimator's total cost is directly comparable to
/// the simulated-cycle cost of the full-run methodology it replaces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// The observed value (cycles-per-transaction in the simulator setting).
    pub value: f64,
    /// Cost of obtaining it (simulated cycles in the simulator setting).
    pub cost: f64,
}

impl Measurement {
    /// Bundles a value with its cost.
    pub fn new(value: f64, cost: f64) -> Self {
        Measurement { value, cost }
    }
}

/// Source of position values for the estimators: maps a position index in
/// `0..population` to a [`Measurement`].
///
/// Two channels, with very different costs in the simulator setting:
///
/// * [`PositionOracle::measure`] — the expensive, full-fidelity evaluation
///   (fork perturbed runs from the position's warmup checkpoint and measure
///   cycles-per-transaction).
/// * [`PositionOracle::proxy`] — a cheap stand-in whose *ordering* roughly
///   tracks the real value (a short probe run). Only ranked-set sampling
///   uses it; the default forwards to `measure`, which makes ranking exact
///   but forfeits the cost advantage.
///
/// Any `FnMut(u64) -> Measurement` closure is an oracle (with `Error =
/// Infallible`); use [`ProxyOracle`] to pair distinct measure/proxy
/// closures, or implement the trait directly for fallible sources.
pub trait PositionOracle {
    /// Error produced by a failed evaluation (`Infallible` for closures).
    type Error;

    /// Evaluates a position at full fidelity.
    ///
    /// # Errors
    ///
    /// Whatever the underlying source reports — e.g. a simulator deadlock.
    fn measure(&mut self, position: u64) -> std::result::Result<Measurement, Self::Error>;

    /// Evaluates a cheap ranking proxy for a position. Defaults to
    /// [`PositionOracle::measure`].
    ///
    /// # Errors
    ///
    /// Whatever the underlying source reports.
    fn proxy(&mut self, position: u64) -> std::result::Result<Measurement, Self::Error> {
        self.measure(position)
    }
}

impl<F> PositionOracle for F
where
    F: FnMut(u64) -> Measurement,
{
    type Error = Infallible;

    fn measure(&mut self, position: u64) -> std::result::Result<Measurement, Infallible> {
        Ok(self(position))
    }
}

/// A [`PositionOracle`] built from two closures: an expensive `measure` and
/// a cheap `proxy` — the shape ranked-set sampling wants.
///
/// # Example
///
/// ```
/// use mtvar_stats::sampling::{Measurement, PositionOracle, ProxyOracle};
///
/// let mut oracle = ProxyOracle::new(
///     |p: u64| Measurement::new(p as f64, 100.0), // expensive
///     |p: u64| Measurement::new(p as f64, 1.0),   // cheap, same ordering
/// );
/// assert_eq!(oracle.measure(3).unwrap().cost, 100.0);
/// assert_eq!(oracle.proxy(3).unwrap().cost, 1.0);
/// ```
pub struct ProxyOracle<M, P> {
    measure: M,
    proxy: P,
}

impl<M, P> ProxyOracle<M, P>
where
    M: FnMut(u64) -> Measurement,
    P: FnMut(u64) -> Measurement,
{
    /// Pairs an expensive measurement closure with a cheap proxy closure.
    pub fn new(measure: M, proxy: P) -> Self {
        ProxyOracle { measure, proxy }
    }
}

impl<M, P> fmt::Debug for ProxyOracle<M, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProxyOracle").finish_non_exhaustive()
    }
}

impl<M, P> PositionOracle for ProxyOracle<M, P>
where
    M: FnMut(u64) -> Measurement,
    P: FnMut(u64) -> Measurement,
{
    type Error = Infallible;

    fn measure(&mut self, position: u64) -> std::result::Result<Measurement, Infallible> {
        Ok((self.measure)(position))
    }

    fn proxy(&mut self, position: u64) -> std::result::Result<Measurement, Infallible> {
        Ok((self.proxy)(position))
    }
}

/// What an estimator spent to produce its estimate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SamplingCost {
    /// Full-fidelity measurements taken.
    pub measurements: u64,
    /// Cheap proxy evaluations taken (ranked-set sampling only).
    pub proxy_probes: u64,
    /// Total cost in the oracle's unit, summed over both channels
    /// (simulated cycles in the simulator setting).
    pub simulated: f64,
}

impl SamplingCost {
    fn add_measure(&mut self, m: &Measurement) {
        self.measurements += 1;
        self.simulated += m.cost;
    }

    fn add_proxy(&mut self, m: &Measurement) {
        self.proxy_probes += 1;
        self.simulated += m.cost;
    }
}

/// An estimator's output: point estimate, confidence interval, and cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    point: f64,
    ci: ConfidenceInterval,
    cost: SamplingCost,
}

impl Estimate {
    /// The point estimate of the population mean.
    pub fn point(&self) -> f64 {
        self.point
    }

    /// The confidence interval around the point estimate.
    pub fn ci(&self) -> &ConfidenceInterval {
        &self.ci
    }

    /// What producing the estimate cost.
    pub fn cost(&self) -> &SamplingCost {
        &self.cost
    }

    /// CI half-width as a fraction of the absolute point estimate — the
    /// quantity live sampling drives below its target. Infinite for a zero
    /// point estimate.
    pub fn relative_half_width(&self) -> f64 {
        if self.point == 0.0 {
            f64::INFINITY
        } else {
            0.5 * self.ci.width() / self.point.abs()
        }
    }
}

/// Why an estimator could not produce an estimate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SamplingError<E> {
    /// The sampling design itself is unusable (too few samples, empty
    /// population, samples exceeding population, ...).
    Design {
        /// Description of the violated constraint.
        what: String,
    },
    /// A statistical computation on the collected sample failed (e.g. a
    /// non-finite oracle value).
    Stats(StatsError),
    /// The oracle failed to evaluate a position.
    Oracle(E),
}

impl<E: fmt::Display> fmt::Display for SamplingError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplingError::Design { what } => write!(f, "invalid sampling design: {what}"),
            SamplingError::Stats(e) => write!(f, "sampling statistics error: {e}"),
            SamplingError::Oracle(e) => write!(f, "sampling oracle error: {e}"),
        }
    }
}

impl<E: fmt::Display + fmt::Debug> std::error::Error for SamplingError<E> {}

impl<E> From<StatsError> for SamplingError<E> {
    fn from(e: StatsError) -> Self {
        SamplingError::Stats(e)
    }
}

/// Shorthand for estimator results over an oracle with error `E`.
pub type SamplingResult<T, E> = std::result::Result<T, SamplingError<E>>;

pub(crate) fn design_err<T, E>(what: impl Into<String>) -> SamplingResult<T, E> {
    Err(SamplingError::Design { what: what.into() })
}

// ---------------------------------------------------------------------------
// Seeded randomness (self-contained; this crate has no dependencies)
// ---------------------------------------------------------------------------

/// SplitMix64: the crate-local seeded generator behind position draws.
/// Deterministic for a given seed, so every estimator is reproducible.
/// Public so this crate's integration tests draw from it instead of
/// carrying copies.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)` by rejection (unbiased).
    pub(crate) fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }
}

/// Draws `count` distinct positions uniformly from `range` (a contiguous
/// span `[start, start + len)`) by partial Fisher–Yates, in draw order.
pub(crate) fn sample_without_replacement(
    rng: &mut SplitMix64,
    start: u64,
    len: u64,
    count: usize,
) -> Vec<u64> {
    debug_assert!(count as u64 <= len);
    let mut pool: Vec<u64> = (start..start + len).collect();
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let j = i as u64 + rng.next_below(len - i as u64);
        pool.swap(i, j as usize);
        out.push(pool[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_without_replacement_is_distinct_and_in_range() {
        let mut rng = SplitMix64::new(7);
        let s = sample_without_replacement(&mut rng, 10, 20, 12);
        assert_eq!(s.len(), 12);
        let set: std::collections::HashSet<u64> = s.iter().copied().collect();
        assert_eq!(set.len(), 12, "draws must be distinct: {s:?}");
        assert!(s.iter().all(|&p| (10..30).contains(&p)));
        // Exhaustive draw returns the whole range.
        let mut rng2 = SplitMix64::new(7);
        let all = sample_without_replacement(&mut rng2, 0, 5, 5);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn splitmix_reproduces_for_a_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(3);
        for bound in [1, 2, 7, 1000] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn closure_oracle_and_proxy_oracle() {
        let mut plain = |p: u64| Measurement::new(p as f64 * 2.0, 5.0);
        assert_eq!(PositionOracle::measure(&mut plain, 4).unwrap().value, 8.0);
        // Default proxy forwards to measure.
        assert_eq!(PositionOracle::proxy(&mut plain, 4).unwrap().value, 8.0);

        let mut split = ProxyOracle::new(
            |p: u64| Measurement::new(p as f64, 100.0),
            |p: u64| Measurement::new(p as f64 + 0.5, 1.0),
        );
        assert_eq!(split.measure(2).unwrap().cost, 100.0);
        assert_eq!(split.proxy(2).unwrap().value, 2.5);
        assert!(format!("{split:?}").contains("ProxyOracle"));
    }

    #[test]
    fn estimate_relative_half_width() {
        let ci = ConfidenceInterval::new(90.0, 110.0, 0.95).unwrap();
        let est = Estimate {
            point: 100.0,
            ci,
            cost: SamplingCost::default(),
        };
        assert!((est.relative_half_width() - 0.1).abs() < 1e-12);
        let zero = Estimate {
            point: 0.0,
            ci,
            cost: SamplingCost::default(),
        };
        assert!(zero.relative_half_width().is_infinite());
    }

    #[test]
    fn sampling_error_display_and_conversion() {
        let e: SamplingError<Infallible> = StatsError::EmptySample.into();
        assert!(e.to_string().contains("statistics"));
        let d: SamplingError<Infallible> = SamplingError::Design { what: "bad".into() };
        assert!(d.to_string().contains("bad"));
    }
}
