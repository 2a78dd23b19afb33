//! Simple-random and stratified position sampling.
//!
//! The classical baseline pair. Simple random sampling (SRS) draws `n`
//! positions uniformly without replacement and uses the plain sample mean;
//! stratified sampling first partitions the frame into `H` contiguous,
//! equal-width strata — early / middle / late execution, in the warmup
//! timeline reading — and draws equally from each, so no region of the
//! lifetime can be missed by an unlucky draw. When position values drift
//! with warmup depth (the common case: caches fill, heaps grow, lock
//! convoys form late), stratification removes the between-stratum component
//! from the estimator's variance and the CI tightens at no extra cost.
//!
//! Caveat (see `EXPERIMENTS.md`, *Sampling methodologies*): strata here are
//! **position** strata, contiguous in warmup depth. If the workload's
//! phases are not aligned with position — e.g. a phase that recurs
//! periodically — position strata are internally heterogeneous and the
//! advantage over SRS evaporates, though correctness (coverage) is
//! unaffected.

use crate::describe::Summary;
use crate::infer::{critical_value, mean_confidence_interval, ConfidenceInterval};

use super::{
    design_err, sample_without_replacement, Estimate, PositionOracle, SamplingCost, SamplingError,
    SamplingResult, SplitMix64,
};

/// Design of a simple-random (`strata == 1`) or stratified (`strata > 1`)
/// position sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionDesign {
    /// Size of the position frame; positions are `0..population`.
    pub population: u64,
    /// Number of positions to measure. Must be a multiple of `strata`, with
    /// at least two measurements per stratum.
    pub samples: usize,
    /// Number of contiguous equal-width strata (`1` = simple random
    /// sampling).
    pub strata: usize,
    /// Seed of the position draw; a design is reproducible per seed.
    pub seed: u64,
    /// Confidence level of the returned interval (e.g. `0.95`).
    pub level: f64,
}

impl PositionDesign {
    /// A simple-random design: `samples` positions from `0..population` at
    /// the 95% confidence level.
    pub fn simple_random(population: u64, samples: usize, seed: u64) -> Self {
        PositionDesign {
            population,
            samples,
            strata: 1,
            seed,
            level: 0.95,
        }
    }

    /// A stratified design: `samples` positions split equally over `strata`
    /// contiguous strata, at the 95% confidence level.
    pub fn stratified(population: u64, samples: usize, strata: usize, seed: u64) -> Self {
        PositionDesign {
            population,
            samples,
            strata,
            seed,
            level: 0.95,
        }
    }

    fn validate<E>(&self) -> SamplingResult<(), E> {
        if self.population == 0 {
            return design_err("position frame is empty");
        }
        if self.strata == 0 {
            return design_err("need at least one stratum");
        }
        if !self.samples.is_multiple_of(self.strata) || self.samples / self.strata < 2 {
            return design_err(format!(
                "samples ({}) must be a multiple of strata ({}) with at least 2 per stratum",
                self.samples, self.strata
            ));
        }
        if self.strata as u64 > self.population {
            return design_err(format!(
                "{} strata cannot partition a {}-position frame",
                self.strata, self.population
            ));
        }
        // Every stratum must be able to host its allocation without
        // replacement; the narrowest stratum has floor(N/H) positions.
        let narrowest = self.population / self.strata as u64;
        if (self.samples / self.strata) as u64 > narrowest {
            return design_err(format!(
                "{} samples per stratum exceed the narrowest stratum ({} positions)",
                self.samples / self.strata,
                narrowest
            ));
        }
        Ok(())
    }
}

/// Estimates the population mean by simple-random or stratified position
/// sampling, per `design`.
///
/// With `strata == 1` this is SRS: sample mean, §5.1.1-style t interval
/// with `n − 1` degrees of freedom. With `strata > 1` the frame is split
/// into contiguous equal-width strata (stratum `h` covers
/// `[h·N/H, (h+1)·N/H)`), `n/H` positions are drawn from each, and the
/// estimator is the stratum-weighted mean with standard error
/// `√(Σ_h W_h² s_h²/n_h)` and `n − H` degrees of freedom.
///
/// Both variants sample **without replacement** but apply no finite
/// population correction, which makes the intervals slightly conservative
/// (wider) at large sampling fractions — the safe direction for a
/// methodology whose failure mode is unwarranted confidence.
///
/// # Errors
///
/// [`SamplingError::Design`] for an infeasible design,
/// [`SamplingError::Oracle`] if a measurement fails, and
/// [`SamplingError::Stats`] for degenerate samples (e.g. non-finite
/// values).
///
/// # Example
///
/// A frame whose values trend upward with position — stratification
/// tightens the interval relative to SRS on the same budget:
///
/// ```
/// use mtvar_stats::sampling::srs::{position_sample, PositionDesign};
/// use mtvar_stats::sampling::Measurement;
///
/// let mut oracle = |p: u64| Measurement::new(p as f64, 1.0);
/// let srs = position_sample(&PositionDesign::simple_random(1000, 12, 5), &mut oracle).unwrap();
/// let strat =
///     position_sample(&PositionDesign::stratified(1000, 12, 4, 5), &mut oracle).unwrap();
/// assert!(strat.ci().width() < srs.ci().width());
/// assert!(strat.ci().contains(499.5)); // true frame mean
/// ```
pub fn position_sample<O: PositionOracle>(
    design: &PositionDesign,
    oracle: &mut O,
) -> SamplingResult<Estimate, O::Error> {
    design.validate()?;
    let mut rng = SplitMix64::new(design.seed ^ 0x5A3D_9E0B_11C7_F642);
    let mut cost = SamplingCost::default();

    if design.strata == 1 {
        let positions = sample_without_replacement(&mut rng, 0, design.population, design.samples);
        let mut summary = Summary::new();
        for p in positions {
            let m = oracle.measure(p).map_err(SamplingError::Oracle)?;
            cost.add_measure(&m);
            summary.try_push(m.value)?;
        }
        let ci = mean_confidence_interval(&summary, design.level)?;
        return Ok(Estimate {
            point: summary.mean(),
            ci,
            cost,
        });
    }

    let h = design.strata as u64;
    let per = design.samples / design.strata;
    let mut point = 0.0;
    let mut se2 = 0.0;
    for s in 0..h {
        let lo = s * design.population / h;
        let hi = (s + 1) * design.population / h;
        let weight = (hi - lo) as f64 / design.population as f64;
        let positions = sample_without_replacement(&mut rng, lo, hi - lo, per);
        let mut summary = Summary::new();
        for p in positions {
            let m = oracle.measure(p).map_err(SamplingError::Oracle)?;
            cost.add_measure(&m);
            summary.try_push(m.value)?;
        }
        point += weight * summary.mean();
        se2 += weight * weight * summary.variance() / per as f64;
    }
    let df = (design.samples - design.strata) as u64;
    // critical_value takes the sample count whose n−1 is the wanted df.
    let t = critical_value(df + 1, design.level)?;
    let half = t * se2.sqrt();
    let ci = ConfidenceInterval::new(point - half, point + half, design.level)?;
    Ok(Estimate { point, ci, cost })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::Measurement;

    #[test]
    fn srs_recovers_constant_population_cost_and_count() {
        let mut oracle = |_p: u64| Measurement::new(7.0, 3.0);
        let d = PositionDesign::simple_random(100, 10, 1);
        let e = position_sample(&d, &mut oracle);
        // A constant sample has zero variance; the CI collapses to a point.
        let e = e.unwrap();
        assert_eq!(e.point(), 7.0);
        assert_eq!(e.ci().width(), 0.0);
        assert_eq!(e.cost().measurements, 10);
        assert_eq!(e.cost().proxy_probes, 0);
        assert!((e.cost().simulated - 30.0).abs() < 1e-12);
    }

    #[test]
    fn srs_is_reproducible_per_seed() {
        let mut oracle = |p: u64| Measurement::new(p as f64, 1.0);
        let d = PositionDesign::simple_random(500, 8, 11);
        let a = position_sample(&d, &mut oracle).unwrap();
        let b = position_sample(&d, &mut oracle).unwrap();
        assert_eq!(a, b);
        let other = PositionDesign { seed: 12, ..d };
        let c = position_sample(&other, &mut oracle).unwrap();
        assert_ne!(a.point(), c.point());
    }

    #[test]
    fn stratified_point_is_unbiased_on_linear_trend() {
        // Linear trend: every stratum mean is its midpoint, so the weighted
        // stratified estimate with full-stratum enumeration is exact.
        let mut oracle = |p: u64| Measurement::new(p as f64, 1.0);
        let d = PositionDesign::stratified(40, 40, 4, 3); // exhaustive draw
        let e = position_sample(&d, &mut oracle).unwrap();
        assert!((e.point() - 19.5).abs() < 1e-12);
        assert_eq!(e.cost().measurements, 40);
    }

    #[test]
    fn stratified_handles_uneven_stratum_widths() {
        // population 10, 3 strata -> widths 3, 3, 4; weights must follow.
        let mut oracle = |p: u64| Measurement::new(p as f64, 1.0);
        let d = PositionDesign::stratified(10, 6, 3, 2);
        let e = position_sample(&d, &mut oracle).unwrap();
        assert!(e.point() >= 0.0 && e.point() <= 9.0);
        assert_eq!(e.cost().measurements, 6);
    }

    #[test]
    fn design_validation() {
        let mut o = |_p: u64| Measurement::new(1.0, 1.0);
        let bad = |d: PositionDesign| {
            matches!(
                position_sample(&d, &mut |_p: u64| Measurement::new(1.0, 1.0)),
                Err(SamplingError::Design { .. })
            )
        };
        assert!(bad(PositionDesign::simple_random(0, 4, 0)));
        assert!(bad(PositionDesign::simple_random(100, 1, 0)));
        assert!(bad(PositionDesign::stratified(100, 10, 3, 0))); // 10 % 3 != 0
        assert!(bad(PositionDesign::stratified(100, 3, 3, 0))); // 1 per stratum
        assert!(bad(PositionDesign::stratified(4, 8, 8, 0))); // strata > frame
        assert!(bad(PositionDesign::simple_random(4, 8, 0))); // n > N per stratum
        assert!(bad(PositionDesign {
            strata: 0,
            ..PositionDesign::simple_random(10, 4, 0)
        }));
        // A feasible design still works with the same oracle.
        assert!(position_sample(&PositionDesign::simple_random(10, 4, 0), &mut o).is_ok());
    }

    #[test]
    fn invalid_level_is_a_stats_error() {
        let mut o = |_p: u64| Measurement::new(1.5, 1.0);
        let d = PositionDesign {
            level: 1.5,
            ..PositionDesign::simple_random(10, 4, 0)
        };
        assert!(matches!(
            position_sample(&d, &mut o),
            Err(SamplingError::Stats(_))
        ));
    }
}
