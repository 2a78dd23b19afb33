//! Ranked-set sampling: spend cheap proxies to decide where to spend
//! expensive measurements.
//!
//! Ekman's observation, transplanted to simulation sampling: when a cheap
//! *ranking* of candidate positions is available — a short probe run whose
//! cycles-per-transaction roughly orders positions, even if its absolute
//! value is noisy — a balanced ranked-set sample beats a simple random
//! sample of the same measurement budget. The mechanism: draw `m` candidate
//! positions, rank them by proxy, and measure only the candidate of rank
//! `i`; repeating for each rank `i = 1..m` (one *cycle*) yields `m`
//! measurements deliberately spread across the value distribution, so the
//! sample mean's variance drops below the SRS variance whenever the
//! ranking is better than random.
//!
//! Cost structure per cycle: `m` expensive measurements plus `m²` cheap
//! proxy probes. The method pays off exactly when
//! `proxy_cost × m² ≪ measure_cost × m` — which is why the simulator-side
//! proxy is a few-transaction probe forked from the same warmup checkpoint
//! the real measurement uses.

use crate::describe::Summary;
use crate::infer::{critical_value, mean_confidence_interval, ConfidenceInterval};

use super::{
    design_err, sample_without_replacement, Estimate, PositionOracle, SamplingCost, SamplingError,
    SamplingResult, SplitMix64,
};

/// Design of a balanced ranked-set sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedSetDesign {
    /// Size of the position frame; positions are `0..population`.
    pub population: u64,
    /// Set size `m`: candidates ranked per set, and measurements per cycle.
    pub set_size: usize,
    /// Cycles `r`: full rank rotations. Total measurements are `r·m`,
    /// total proxy probes `r·m²`.
    pub cycles: usize,
    /// Seed of the candidate draws; a design is reproducible per seed.
    pub seed: u64,
    /// Confidence level of the returned interval (e.g. `0.95`).
    pub level: f64,
}

impl RankedSetDesign {
    /// A balanced design with set size `m` and `cycles` rotations at the
    /// 95% confidence level.
    pub fn new(population: u64, set_size: usize, cycles: usize, seed: u64) -> Self {
        RankedSetDesign {
            population,
            set_size,
            cycles,
            seed,
            level: 0.95,
        }
    }

    fn validate<E>(&self) -> SamplingResult<(), E> {
        if self.population == 0 {
            return design_err("position frame is empty");
        }
        if self.set_size < 2 {
            return design_err("ranked-set sampling needs set size >= 2");
        }
        if self.cycles == 0 {
            return design_err("ranked-set sampling needs at least one cycle");
        }
        if (self.set_size as u64) > self.population {
            return design_err(format!(
                "a ranking set of {} candidates exceeds the {}-position frame",
                self.set_size, self.population
            ));
        }
        if self.set_size * self.cycles < 2 {
            return design_err("need at least two measurements overall");
        }
        Ok(())
    }
}

/// Estimates the population mean by balanced ranked-set sampling, per
/// `design`.
///
/// For each cycle and each rank `i`, a fresh set of `m` candidate
/// positions is drawn without replacement, every candidate's
/// [`PositionOracle::proxy`] is evaluated, the set is sorted by proxy
/// value (stable, so proxy ties resolve by draw order — deterministic),
/// and the `i`-th ranked candidate is passed to
/// [`PositionOracle::measure`]. The point estimate is the mean of the
/// `r·m` measurements.
///
/// The interval uses the rank-stratified variance estimator
/// `Var(ȳ) = (1/m²) Σᵢ sᵢ²/r` (each rank is a stratum of `r`
/// measurements), with `m·(r−1)` degrees of freedom — this is what
/// captures ranked-set sampling's variance advantage. It needs `r ≥ 2`;
/// with a single cycle the estimator falls back to the plain SRS interval
/// over the `m` measurements, which is conservative (it ignores the
/// rank stratification).
///
/// # Errors
///
/// [`SamplingError::Design`] for an infeasible design,
/// [`SamplingError::Oracle`] if a probe or measurement fails, and
/// [`SamplingError::Stats`] for degenerate samples.
///
/// # Example
///
/// A noisy-but-informative proxy: ranking by it concentrates measurements
/// across the spread, and the estimate lands on the true mean:
///
/// ```
/// use mtvar_stats::sampling::ranked_set::{ranked_set_sample, RankedSetDesign};
/// use mtvar_stats::sampling::{Measurement, ProxyOracle};
///
/// let value = |p: u64| (p % 10) as f64;
/// let mut oracle = ProxyOracle::new(
///     move |p: u64| Measurement::new(value(p), 50.0),       // expensive truth
///     move |p: u64| Measurement::new(value(p) + 0.1, 1.0),  // cheap, order-true
/// );
/// let est = ranked_set_sample(&RankedSetDesign::new(1000, 4, 3, 7), &mut oracle).unwrap();
/// assert_eq!(est.cost().measurements, 12);  // r·m
/// assert_eq!(est.cost().proxy_probes, 48);  // r·m²
/// assert!(est.ci().contains(4.5)); // true mean of p % 10
/// ```
pub fn ranked_set_sample<O: PositionOracle>(
    design: &RankedSetDesign,
    oracle: &mut O,
) -> SamplingResult<Estimate, O::Error> {
    design.validate()?;
    let m = design.set_size;
    let r = design.cycles;
    let mut rng = SplitMix64::new(design.seed ^ 0xC13F_A98D_2270_6E51);
    let mut cost = SamplingCost::default();
    // by_rank[i] collects the r measurements assigned to rank i.
    let mut by_rank: Vec<Vec<f64>> = vec![Vec::with_capacity(r); m];

    for _cycle in 0..r {
        for rank in 0..m {
            let candidates = sample_without_replacement(&mut rng, 0, design.population, m);
            let mut proxied: Vec<(f64, u64)> = Vec::with_capacity(m);
            for p in candidates {
                let probe = oracle.proxy(p).map_err(SamplingError::Oracle)?;
                cost.add_proxy(&probe);
                if !probe.value.is_finite() {
                    return Err(SamplingError::Stats(crate::StatsError::NonFiniteInput));
                }
                proxied.push((probe.value, p));
            }
            // Stable sort: ties keep draw order, so the pick is
            // deterministic even for a constant (useless) proxy.
            proxied.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite proxies"));
            let chosen = proxied[rank].1;
            let measured = oracle.measure(chosen).map_err(SamplingError::Oracle)?;
            cost.add_measure(&measured);
            by_rank[rank].push(measured.value);
        }
    }

    let mut all = Summary::new();
    for rank in &by_rank {
        for &v in rank {
            all.try_push(v)?;
        }
    }
    let point = all.mean();

    if r < 2 {
        // Single cycle: no within-rank replication, fall back to the plain
        // (conservative) SRS interval over the m measurements.
        let ci = mean_confidence_interval(&all, design.level)?;
        return Ok(Estimate { point, ci, cost });
    }

    // Rank-stratified variance: Var(ȳ_rss) = (1/m²) Σᵢ sᵢ²/r.
    let mut var = 0.0;
    for rank in &by_rank {
        let s = Summary::from_slice(rank)?;
        var += s.variance() / r as f64;
    }
    var /= (m * m) as f64;
    let df = (m * (r - 1)) as u64;
    let t = critical_value(df + 1, design.level)?;
    let half = t * var.sqrt();
    let ci = ConfidenceInterval::new(point - half, point + half, design.level)?;
    Ok(Estimate { point, ci, cost })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::{Measurement, ProxyOracle};

    #[test]
    fn perfect_ranking_beats_srs_variance_on_spread_population() {
        // With an order-true proxy, the rank-stratified variance is far
        // below the plain sample variance of the same measurements.
        let mut oracle = ProxyOracle::new(
            |p: u64| Measurement::new((p % 100) as f64, 10.0),
            |p: u64| Measurement::new((p % 100) as f64, 1.0),
        );
        let d = RankedSetDesign::new(10_000, 5, 4, 13);
        let e = ranked_set_sample(&d, &mut oracle).unwrap();
        assert!(e.ci().contains(49.5) || (e.point() - 49.5).abs() < 15.0);
        assert_eq!(e.cost().measurements, 20);
        assert_eq!(e.cost().proxy_probes, 100);
        assert!((e.cost().simulated - (20.0 * 10.0 + 100.0 * 1.0)).abs() < 1e-9);
    }

    #[test]
    fn single_cycle_falls_back_to_plain_interval() {
        let mut oracle = |p: u64| Measurement::new((p % 7) as f64, 1.0);
        let d = RankedSetDesign::new(700, 4, 1, 3);
        let e = ranked_set_sample(&d, &mut oracle).unwrap();
        assert_eq!(e.cost().measurements, 4);
        assert_eq!(e.cost().proxy_probes, 16);
        assert!(e.ci().width() > 0.0 || e.point().fract() == 0.0);
    }

    #[test]
    fn reproducible_per_seed() {
        let mk = || {
            ProxyOracle::new(
                |p: u64| Measurement::new((p % 31) as f64, 5.0),
                |p: u64| Measurement::new((p % 31) as f64 * 0.5, 1.0),
            )
        };
        let d = RankedSetDesign::new(310, 3, 3, 21);
        let a = ranked_set_sample(&d, &mut mk()).unwrap();
        let b = ranked_set_sample(&d, &mut mk()).unwrap();
        assert_eq!(a, b);
        let c = ranked_set_sample(&RankedSetDesign { seed: 22, ..d }, &mut mk()).unwrap();
        assert_ne!(a.point(), c.point());
    }

    #[test]
    fn constant_proxy_is_deterministic_and_unbiased_like_srs() {
        // A useless (constant) proxy degrades RSS to SRS; it must still
        // produce a valid, deterministic estimate.
        let mk = || {
            ProxyOracle::new(
                |p: u64| Measurement::new((p % 11) as f64, 5.0),
                |_p: u64| Measurement::new(0.0, 1.0),
            )
        };
        let d = RankedSetDesign::new(1100, 3, 4, 8);
        let a = ranked_set_sample(&d, &mut mk()).unwrap();
        let b = ranked_set_sample(&d, &mut mk()).unwrap();
        assert_eq!(a, b);
        assert!(a.point() >= 0.0 && a.point() <= 10.0);
    }

    #[test]
    fn design_validation() {
        let bad = |d: RankedSetDesign| {
            matches!(
                ranked_set_sample(&d, &mut |_p: u64| Measurement::new(1.0, 1.0)),
                Err(SamplingError::Design { .. })
            )
        };
        assert!(bad(RankedSetDesign::new(0, 3, 2, 0)));
        assert!(bad(RankedSetDesign::new(100, 1, 2, 0)));
        assert!(bad(RankedSetDesign::new(100, 3, 0, 0)));
        assert!(bad(RankedSetDesign::new(2, 3, 2, 0)));
    }

    #[test]
    fn non_finite_proxy_is_a_stats_error() {
        let mut oracle = ProxyOracle::new(
            |_p: u64| Measurement::new(1.0, 1.0),
            |_p: u64| Measurement::new(f64::NAN, 1.0),
        );
        assert!(matches!(
            ranked_set_sample(&RankedSetDesign::new(100, 3, 2, 0), &mut oracle),
            Err(SamplingError::Stats(_))
        ));
    }
}
