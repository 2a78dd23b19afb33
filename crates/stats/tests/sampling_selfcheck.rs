//! Self-validation of the sampling estimators: on a synthetic position
//! frame with an exactly known population mean, each estimator's 95%
//! confidence interval must achieve (near-)nominal empirical coverage, and
//! its point estimates must be unbiased. Mirrors `selfcheck.rs`: everything
//! is seeded and deterministic; coverage bounds leave ~4 binomial standard
//! deviations of slack around the nominal level.

use mtvar_stats::dist::{ContinuousDistribution, Normal};
use mtvar_stats::sampling::live::{live_sample, LiveDesign};
use mtvar_stats::sampling::ranked_set::{ranked_set_sample, RankedSetDesign};
use mtvar_stats::sampling::srs::{position_sample, PositionDesign};
use mtvar_stats::sampling::{Measurement, ProxyOracle, SplitMix64};

/// Uniform strictly inside (0, 1), safe to feed to `quantile`.
fn next_open01(rng: &mut SplitMix64) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
}

const POPULATION: u64 = 200;
const TRIALS: usize = 300;

/// A synthetic cycles-per-transaction frame: an upward warmup trend plus
/// position-intrinsic noise, fixed once per seed. The population mean is
/// known exactly by enumeration — the yardstick every CI is scored against.
fn synthetic_frame(seed: u64, trend: f64, noise_sd: f64) -> Vec<f64> {
    let z = Normal::standard();
    let mut rng = SplitMix64::new(seed);
    (0..POPULATION)
        .map(|p| 100.0 + trend * p as f64 + noise_sd * z.quantile(next_open01(&mut rng)).unwrap())
        .collect()
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[test]
fn srs_coverage_is_nominal_and_unbiased() {
    let frame = synthetic_frame(0xA5, 0.05, 3.0);
    let truth = mean(&frame);
    let mut covered = 0usize;
    let mut point_sum = 0.0;
    for trial in 0..TRIALS {
        let design = PositionDesign::simple_random(POPULATION, 8, trial as u64);
        let mut oracle = |p: u64| Measurement::new(frame[p as usize], 1.0);
        let est = position_sample(&design, &mut oracle).unwrap();
        covered += usize::from(est.ci().contains(truth));
        point_sum += est.point();
    }
    let coverage = covered as f64 / TRIALS as f64;
    assert!(
        (0.90..=1.0).contains(&coverage),
        "SRS 95% CI covered the population mean in {coverage:.3} of {TRIALS} trials"
    );
    let bias = (point_sum / TRIALS as f64 - truth).abs();
    assert!(
        bias < 0.5,
        "mean of {TRIALS} SRS points drifts {bias:.3} from the population mean {truth:.3}"
    );
}

#[test]
fn stratified_coverage_is_nominal_and_beats_srs_width_on_trend() {
    // A strong position trend: exactly the regime where contiguous position
    // strata remove between-stratum variance and the CI should tighten.
    let frame = synthetic_frame(0xB7, 0.2, 2.0);
    let truth = mean(&frame);
    let mut covered = 0usize;
    let mut strat_width = 0.0;
    let mut srs_width = 0.0;
    for trial in 0..TRIALS {
        let mut oracle = |p: u64| Measurement::new(frame[p as usize], 1.0);
        let strat = position_sample(
            &PositionDesign::stratified(POPULATION, 8, 4, trial as u64),
            &mut oracle,
        )
        .unwrap();
        let srs = position_sample(
            &PositionDesign::simple_random(POPULATION, 8, trial as u64),
            &mut oracle,
        )
        .unwrap();
        covered += usize::from(strat.ci().contains(truth));
        strat_width += strat.ci().width();
        srs_width += srs.ci().width();
    }
    let coverage = covered as f64 / TRIALS as f64;
    assert!(
        (0.90..=1.0).contains(&coverage),
        "stratified 95% CI covered in {coverage:.3} of {TRIALS} trials"
    );
    assert!(
        strat_width < 0.8 * srs_width,
        "on a position trend, stratified CIs (mean width {:.2}) should be well \
         inside SRS CIs (mean width {:.2})",
        strat_width / TRIALS as f64,
        srs_width / TRIALS as f64
    );
}

#[test]
fn ranked_set_coverage_is_nominal_with_noisy_proxy() {
    let frame = synthetic_frame(0xC9, 0.05, 3.0);
    let truth = mean(&frame);
    let proxy_noise = synthetic_frame(0xDD, 0.0, 1.0); // mean ~100, sd 1
    let mut covered = 0usize;
    let mut point_sum = 0.0;
    for trial in 0..TRIALS {
        // Proxy: the true value plus independent noise — order-informative
        // but wrong in absolute terms, like a short probe run.
        let mut oracle = ProxyOracle::new(
            |p: u64| Measurement::new(frame[p as usize], 10.0),
            |p: u64| Measurement::new(frame[p as usize] + proxy_noise[p as usize] - 100.0, 1.0),
        );
        let design = RankedSetDesign::new(POPULATION, 4, 2, trial as u64);
        let est = ranked_set_sample(&design, &mut oracle).unwrap();
        covered += usize::from(est.ci().contains(truth));
        point_sum += est.point();
    }
    let coverage = covered as f64 / TRIALS as f64;
    assert!(
        (0.88..=1.0).contains(&coverage),
        "ranked-set 95% CI covered in {coverage:.3} of {TRIALS} trials"
    );
    let bias = (point_sum / TRIALS as f64 - truth).abs();
    assert!(
        bias < 0.5,
        "mean of {TRIALS} ranked-set points drifts {bias:.3} from {truth:.3}"
    );
}

#[test]
fn live_coverage_is_near_nominal_and_adapts_to_variability() {
    let calm = synthetic_frame(0xE1, 0.0, 1.0);
    let noisy = synthetic_frame(0xE2, 0.0, 8.0);
    let truth_noisy = mean(&noisy);
    let mut covered = 0usize;
    let mut calm_cost = 0u64;
    let mut noisy_cost = 0u64;
    for trial in 0..TRIALS {
        let design = LiveDesign::new(POPULATION, 0.02, 60, trial as u64);
        let mut noisy_oracle = |p: u64| Measurement::new(noisy[p as usize], 1.0);
        let out = live_sample(&design, &mut noisy_oracle).unwrap();
        covered += usize::from(out.estimate.ci().contains(truth_noisy));
        noisy_cost += out.estimate.cost().measurements;
        let mut calm_oracle = |p: u64| Measurement::new(calm[p as usize], 1.0);
        let calm_out = live_sample(&design, &mut calm_oracle).unwrap();
        assert!(
            calm_out.converged,
            "trial {trial}: ±2% on sd≈1 must converge"
        );
        calm_cost += calm_out.estimate.cost().measurements;
    }
    // Sequential stopping makes the final interval slightly anti-conservative
    // (the stopping rule peeks at the data), so the floor is looser than the
    // fixed-n estimators' — that degradation is exactly what this guards.
    let coverage = covered as f64 / TRIALS as f64;
    assert!(
        (0.85..=1.0).contains(&coverage),
        "live 95% CI covered in {coverage:.3} of {TRIALS} trials"
    );
    assert!(
        noisy_cost > 2 * calm_cost,
        "an 8x-noisier population must buy measurements: {noisy_cost} vs {calm_cost}"
    );
}

#[test]
fn census_recovers_population_mean_exactly() {
    // Degenerate check: sampling the whole frame is a census, and the point
    // estimate must equal the enumerated mean to float precision.
    let frame = synthetic_frame(0xF3, 0.1, 2.0);
    let truth = mean(&frame);
    let mut oracle = |p: u64| Measurement::new(frame[p as usize], 1.0);
    let est = position_sample(
        &PositionDesign::simple_random(POPULATION, POPULATION as usize, 1),
        &mut oracle,
    )
    .unwrap();
    assert!((est.point() - truth).abs() < 1e-9);
    assert_eq!(est.cost().measurements, POPULATION);
}
