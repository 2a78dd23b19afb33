//! Live sampling: adaptively extend measurement until the estimate is good
//! enough.
//!
//! Pac-Sim's central idea, restated for position sampling: fix the
//! *precision target* instead of the *budget*. Measure a small initial
//! batch of random positions, compute the confidence interval, and keep
//! adding batches until the CI half-width falls below a target fraction of
//! the point estimate (or the budget runs out). Low-variability workloads
//! stop almost immediately; high-variability ones automatically buy the
//! extra measurements they need — the same runs-vs-precision trade the
//! paper's §5.1.1 sample-size formula `n = (t·CoV/r)²` makes statically,
//! but driven by the *observed* variability instead of a pilot estimate.

use crate::describe::Summary;
use crate::infer::mean_confidence_interval;

use super::{
    design_err, sample_without_replacement, Estimate, PositionOracle, SamplingCost, SamplingError,
    SamplingResult, SplitMix64,
};

/// Design of a live (adaptive) position sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveDesign {
    /// Size of the position frame; positions are `0..population`.
    pub population: u64,
    /// Measurements in the first batch (at least 2 — a CI needs variance).
    pub initial: usize,
    /// Measurements added per extension round (at least 1).
    pub batch: usize,
    /// Stop once the CI half-width is at most this fraction of the absolute
    /// point estimate (e.g. `0.02` for ±2%).
    pub target_half_width: f64,
    /// Hard ceiling on measurements (clamped to the population size).
    pub max_samples: usize,
    /// Seed of the position draw; a design is reproducible per seed.
    pub seed: u64,
    /// Confidence level of the interval (e.g. `0.95`).
    pub level: f64,
}

impl LiveDesign {
    /// A design targeting `target_half_width` relative precision at the 95%
    /// confidence level, starting from 4 measurements and extending by 2.
    pub fn new(population: u64, target_half_width: f64, max_samples: usize, seed: u64) -> Self {
        LiveDesign {
            population,
            initial: 4,
            batch: 2,
            target_half_width,
            max_samples,
            seed,
            level: 0.95,
        }
    }

    fn validate<E>(&self) -> SamplingResult<(), E> {
        if self.population == 0 {
            return design_err("position frame is empty");
        }
        if self.initial < 2 {
            return design_err("live sampling needs an initial batch of at least 2");
        }
        if self.batch == 0 {
            return design_err("live sampling needs a positive extension batch");
        }
        if self.max_samples < self.initial {
            return design_err(format!(
                "max_samples ({}) is below the initial batch ({})",
                self.max_samples, self.initial
            ));
        }
        if (self.initial as u64) > self.population {
            return design_err(format!(
                "initial batch of {} exceeds the {}-position frame",
                self.initial, self.population
            ));
        }
        if !self.target_half_width.is_finite() || self.target_half_width <= 0.0 {
            return design_err("target_half_width must be a positive fraction");
        }
        Ok(())
    }
}

/// Outcome of a live sample: the estimate plus how the adaptation ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveOutcome {
    /// The estimate at the point the loop stopped.
    pub estimate: Estimate,
    /// Whether the precision target was met (`false`: the budget or the
    /// population ran out first — the CI is honest but wider than asked).
    pub converged: bool,
    /// Extension rounds taken after the initial batch.
    pub rounds: usize,
}

/// Estimates the population mean by live sampling, per `design`.
///
/// Positions are drawn without replacement from a seeded permutation of
/// the frame, so the adaptive extension never re-measures a position and
/// exhausting the frame degrades gracefully into a census. After the
/// initial batch, each round appends `batch` measurements and re-tests
/// `half_width(CI) ≤ target_half_width · |mean|`; the loop stops on
/// success, on reaching `max_samples`, or on exhausting the population.
///
/// The repeated looks at the data make the final interval slightly
/// anti-conservative in the strict sequential-analysis sense (the stopping
/// rule is data-dependent); the evaluation harness in `mtvar-core` measures
/// the realized coverage empirically rather than assuming it.
///
/// # Errors
///
/// [`SamplingError::Design`] for an infeasible design,
/// [`SamplingError::Oracle`] if a measurement fails, and
/// [`SamplingError::Stats`] for degenerate samples.
///
/// # Example
///
/// A low-variability frame converges on the initial batch; a spread one
/// needs extension rounds:
///
/// ```
/// use mtvar_stats::sampling::live::{live_sample, LiveDesign};
/// use mtvar_stats::sampling::Measurement;
///
/// let mut calm = |p: u64| Measurement::new(100.0 + 0.001 * (p % 3) as f64, 1.0);
/// let out = live_sample(&LiveDesign::new(1000, 0.01, 50, 7), &mut calm).unwrap();
/// assert!(out.converged);
/// assert_eq!(out.rounds, 0);
/// assert_eq!(out.estimate.cost().measurements, 4);
///
/// let mut spread = |p: u64| Measurement::new(100.0 + (p % 40) as f64, 1.0);
/// let out = live_sample(&LiveDesign::new(1000, 0.02, 50, 7), &mut spread).unwrap();
/// assert!(out.rounds > 0, "a spread population must need extension");
/// ```
pub fn live_sample<O: PositionOracle>(
    design: &LiveDesign,
    oracle: &mut O,
) -> SamplingResult<LiveOutcome, O::Error> {
    design.validate()?;
    let cap = (design.max_samples as u64).min(design.population) as usize;
    let mut rng = SplitMix64::new(design.seed ^ 0x90D4_4CB3_5EF0_187A);
    // One draw up front of every position the loop could ever need keeps
    // the sequence independent of when the stopping rule fires.
    let order = sample_without_replacement(&mut rng, 0, design.population, cap);

    let mut cost = SamplingCost::default();
    let mut summary = Summary::new();
    let mut taken = 0usize;
    let take = |n: usize,
                taken: &mut usize,
                summary: &mut Summary,
                cost: &mut SamplingCost,
                oracle: &mut O|
     -> SamplingResult<(), O::Error> {
        for _ in 0..n {
            let m = oracle
                .measure(order[*taken])
                .map_err(SamplingError::Oracle)?;
            cost.add_measure(&m);
            summary.try_push(m.value)?;
            *taken += 1;
        }
        Ok(())
    };

    take(
        design.initial.min(cap),
        &mut taken,
        &mut summary,
        &mut cost,
        oracle,
    )?;
    let mut rounds = 0usize;
    loop {
        let ci = mean_confidence_interval(&summary, design.level)?;
        let half = 0.5 * ci.width();
        let converged =
            summary.mean() != 0.0 && half <= design.target_half_width * summary.mean().abs();
        if converged || taken >= cap {
            return Ok(LiveOutcome {
                estimate: Estimate {
                    point: summary.mean(),
                    ci,
                    cost,
                },
                converged,
                rounds,
            });
        }
        let n = design.batch.min(cap - taken);
        take(n, &mut taken, &mut summary, &mut cost, oracle)?;
        rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::Measurement;

    #[test]
    fn tight_population_converges_immediately() {
        let mut oracle = |_p: u64| Measurement::new(50.0, 2.0);
        let out = live_sample(&LiveDesign::new(100, 0.05, 20, 1), &mut oracle).unwrap();
        assert!(out.converged);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.estimate.cost().measurements, 4);
        assert!((out.estimate.cost().simulated - 8.0).abs() < 1e-12);
        assert_eq!(out.estimate.point(), 50.0);
    }

    #[test]
    fn budget_exhaustion_reports_unconverged() {
        // Huge spread, tiny budget: cannot reach ±0.1%.
        let mut oracle = |p: u64| Measurement::new(100.0 + (p % 50) as f64, 1.0);
        let d = LiveDesign::new(1000, 0.001, 8, 3);
        let out = live_sample(&d, &mut oracle).unwrap();
        assert!(!out.converged);
        assert_eq!(out.estimate.cost().measurements, 8);
        assert_eq!(out.rounds, 2); // 4 initial + 2 + 2
    }

    #[test]
    fn population_exhaustion_degrades_to_census() {
        let mut oracle = |p: u64| Measurement::new((p % 5) as f64 * 10.0, 1.0);
        let d = LiveDesign::new(6, 0.0001, 100, 5);
        let out = live_sample(&d, &mut oracle).unwrap();
        assert_eq!(out.estimate.cost().measurements, 6, "census of the frame");
        assert!(!out.converged);
    }

    #[test]
    fn reproducible_per_seed_and_monotone_in_target() {
        let mk = |seed| LiveDesign::new(500, 0.03, 60, seed);
        let mut o1 = |p: u64| Measurement::new(100.0 + (p % 20) as f64, 1.0);
        let a = live_sample(&mk(9), &mut o1).unwrap();
        let b = live_sample(&mk(9), &mut o1).unwrap();
        assert_eq!(a, b);
        // A looser target can never need more measurements.
        let loose = LiveDesign {
            target_half_width: 0.3,
            ..mk(9)
        };
        let c = live_sample(&loose, &mut o1).unwrap();
        assert!(c.estimate.cost().measurements <= a.estimate.cost().measurements);
    }

    #[test]
    fn design_validation() {
        let bad = |d: LiveDesign| {
            matches!(
                live_sample(&d, &mut |_p: u64| Measurement::new(1.0, 1.0)),
                Err(SamplingError::Design { .. })
            )
        };
        assert!(bad(LiveDesign::new(0, 0.05, 10, 0)));
        assert!(bad(LiveDesign {
            initial: 1,
            ..LiveDesign::new(100, 0.05, 10, 0)
        }));
        assert!(bad(LiveDesign {
            batch: 0,
            ..LiveDesign::new(100, 0.05, 10, 0)
        }));
        assert!(bad(LiveDesign::new(100, 0.05, 3, 0))); // max < initial
        assert!(bad(LiveDesign::new(2, 0.05, 10, 0))); // initial > frame
        assert!(bad(LiveDesign::new(100, 0.0, 10, 0)));
        assert!(bad(LiveDesign::new(100, f64::NAN, 10, 0)));
    }
}
