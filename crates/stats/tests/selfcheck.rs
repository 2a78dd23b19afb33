//! Statistical self-validation: the inference routines against values
//! computed by hand (closed forms a textbook reader can re-derive), plus
//! empirical calibration experiments showing the procedures deliver their
//! nominal guarantees — a 95% confidence interval really covers ~95% of the
//! time, and α = 0.05 tests really reject true nulls ~5% of the time.
//!
//! Everything here is exact or seeded; no test depends on wall-clock,
//! threading, or platform floating-point quirks beyond 1e-9 tolerances on
//! closed-form values.

use mtvar_stats::describe::Summary;
use mtvar_stats::dist::{ContinuousDistribution, Normal};
use mtvar_stats::infer::{
    anova_one_way, mean_confidence_interval, sample_size_for_relative_error, two_sample_t_test,
    TTestKind,
};
use mtvar_stats::sampling::SplitMix64;

const TOL: f64 = 1e-9;

/// One N(mean, sd²) draw by inverse-transform sampling, from a uniform
/// strictly inside (0, 1). Drives the seeded calibration experiments below.
fn next_normal(rng: &mut SplitMix64, z: &Normal, mean: f64, sd: f64) -> f64 {
    let open01 = ((rng.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
    mean + sd * z.quantile(open01).unwrap()
}

// ---------------------------------------------------------------------------
// Hand-computed closed forms
// ---------------------------------------------------------------------------

#[test]
fn pooled_t_matches_hand_computation() {
    // a = [2,4,6,8]: mean 5, s² = 20/3.  b = [1,2,3,4]: mean 2.5, s² = 5/3.
    // Pooled s² = (3·20/3 + 3·5/3)/6 = 25/6; se = √(25/6 · 1/2) = 5/(2√3);
    // t = 2.5 / (5/(2√3)) = √3, df = 6.
    let a = Summary::from_slice(&[2.0, 4.0, 6.0, 8.0]).unwrap();
    let b = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]).unwrap();
    let t = two_sample_t_test(&a, &b, TTestKind::Pooled).unwrap();
    assert!(
        (t.statistic() - 3.0_f64.sqrt()).abs() < TOL,
        "t = {}",
        t.statistic()
    );
    assert!((t.df() - 6.0).abs() < TOL, "df = {}", t.df());
}

#[test]
fn welch_t_matches_hand_computation() {
    // Same data; Welch's se² = 20/12 + 5/12 = 25/12 gives the same √3
    // statistic, but Welch–Satterthwaite df
    //   = (25/12)² / [(20/12)²/3 + (5/12)²/3] = 625/(425/3) = 75/17.
    let a = Summary::from_slice(&[2.0, 4.0, 6.0, 8.0]).unwrap();
    let b = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]).unwrap();
    let t = two_sample_t_test(&a, &b, TTestKind::Welch).unwrap();
    assert!((t.statistic() - 3.0_f64.sqrt()).abs() < TOL);
    assert!((t.df() - 75.0 / 17.0).abs() < TOL, "df = {}", t.df());
}

#[test]
fn t_test_p_value_matches_df2_closed_form() {
    // a = [1,2], b = [3,4]: t = -2√2 with df = 2. The t CDF with two
    // degrees of freedom has the closed form
    //   F(t) = 1/2 + t / (2√2 · √(1 + t²/2)),
    // so P(|T| > 2√2) = 1 - 2/√5 ≈ 0.105572809.
    let a = Summary::from_slice(&[1.0, 2.0]).unwrap();
    let b = Summary::from_slice(&[3.0, 4.0]).unwrap();
    let t = two_sample_t_test(&a, &b, TTestKind::Pooled).unwrap();
    assert!((t.statistic() + 2.0 * 2.0_f64.sqrt()).abs() < TOL);
    assert!((t.df() - 2.0).abs() < TOL);
    let expected_p = 1.0 - 2.0 / 5.0_f64.sqrt();
    assert!(
        (t.p_two_sided() - expected_p).abs() < TOL,
        "p = {}, expected {expected_p}",
        t.p_two_sided()
    );
}

#[test]
fn anova_matches_hand_computation() {
    // Groups [0,2,4], [4,6,8], [8,10,12]: group means 2, 6, 10, grand mean
    // 6. SSB = 3·(16+0+16) = 96; each group contributes 8 within → SSW = 24;
    // df = (2, 6); F = (96/2)/(24/6) = 12. The F(2, d) survival function has
    // the closed form (1 + 2f/d)^(-d/2), so p = (1 + 4)⁻³ = 0.008 exactly.
    let anova = anova_one_way(&[&[0.0, 2.0, 4.0], &[4.0, 6.0, 8.0], &[8.0, 10.0, 12.0]]).unwrap();
    assert!(
        (anova.ss_between() - 96.0).abs() < TOL,
        "SSB = {}",
        anova.ss_between()
    );
    assert!(
        (anova.ss_within() - 24.0).abs() < TOL,
        "SSW = {}",
        anova.ss_within()
    );
    assert!((anova.df_between() - 2.0).abs() < TOL);
    assert!((anova.df_within() - 6.0).abs() < TOL);
    assert!(
        (anova.f_statistic() - 12.0).abs() < TOL,
        "F = {}",
        anova.f_statistic()
    );
    assert!(
        (anova.p_value() - 0.008).abs() < TOL,
        "p = {}",
        anova.p_value()
    );
}

// ---------------------------------------------------------------------------
// Empirical calibration
// ---------------------------------------------------------------------------

#[test]
fn confidence_interval_coverage_is_nominal() {
    // Draw 1500 samples of n = 10 from N(100, 15²), build the 95% t-based
    // interval each time, and count how often it covers the true mean. The
    // t interval is exact for normal data, so empirical coverage must sit
    // near 0.95 (binomial sd of the estimate ≈ 0.0056; ±2% is ~3.6σ).
    const EXPERIMENTS: usize = 1500;
    const N: usize = 10;
    let z = Normal::standard();
    let mut rng = SplitMix64::new(0x5E1F_C0DE_0000_0001);
    let mut covered = 0usize;
    for _ in 0..EXPERIMENTS {
        let sample: Vec<f64> = (0..N)
            .map(|_| next_normal(&mut rng, &z, 100.0, 15.0))
            .collect();
        let summary = Summary::from_slice(&sample).unwrap();
        let ci = mean_confidence_interval(&summary, 0.95).unwrap();
        if ci.contains(100.0) {
            covered += 1;
        }
    }
    let coverage = covered as f64 / EXPERIMENTS as f64;
    assert!(
        (0.93..=0.97).contains(&coverage),
        "95% CI covered the true mean in {coverage:.4} of {EXPERIMENTS} experiments",
    );
}

#[test]
fn t_test_type_i_error_rate_is_nominal() {
    // Both groups drawn from the same N(0, 1): an α = 0.05 two-sided pooled
    // t-test must reject in ~5% of replications (binomial sd ≈ 0.0077).
    const REPS: usize = 800;
    const N: usize = 8;
    let z = Normal::standard();
    let mut rng = SplitMix64::new(0x5E1F_C0DE_0000_0002);
    let mut rejections = 0usize;
    for _ in 0..REPS {
        let a: Vec<f64> = (0..N)
            .map(|_| next_normal(&mut rng, &z, 0.0, 1.0))
            .collect();
        let b: Vec<f64> = (0..N)
            .map(|_| next_normal(&mut rng, &z, 0.0, 1.0))
            .collect();
        let sa = Summary::from_slice(&a).unwrap();
        let sb = Summary::from_slice(&b).unwrap();
        let t = two_sample_t_test(&sa, &sb, TTestKind::Pooled).unwrap();
        if t.p_two_sided() < 0.05 {
            rejections += 1;
        }
    }
    let rate = rejections as f64 / REPS as f64;
    assert!(
        (0.03..=0.075).contains(&rate),
        "t-test rejected a true null in {rate:.4} of {REPS} replications",
    );
}

#[test]
fn anova_type_i_error_rate_is_nominal() {
    // Three groups from the same N(0, 1): one-way ANOVA at α = 0.05 must
    // likewise reject in ~5% of replications.
    const REPS: usize = 600;
    const N: usize = 6;
    let z = Normal::standard();
    let mut rng = SplitMix64::new(0x5E1F_C0DE_0000_0003);
    let mut rejections = 0usize;
    for _ in 0..REPS {
        let g: Vec<Vec<f64>> = (0..3)
            .map(|_| {
                (0..N)
                    .map(|_| next_normal(&mut rng, &z, 0.0, 1.0))
                    .collect()
            })
            .collect();
        let groups: Vec<&[f64]> = g.iter().map(Vec::as_slice).collect();
        let anova = anova_one_way(&groups).unwrap();
        if anova.p_value() < 0.05 {
            rejections += 1;
        }
    }
    let rate = rejections as f64 / REPS as f64;
    assert!(
        (0.025..=0.085).contains(&rate),
        "ANOVA rejected a true null in {rate:.4} of {REPS} replications",
    );
}

#[test]
fn sample_size_estimate_achieves_its_promised_power() {
    // Type-II calibration of the §5.1.1 minimum-run estimator, end to end.
    // The paper's worked example: a 9% CoV workload measured to 4% relative
    // error at 95% confidence needs n = (2·0.09/0.04)² ≈ 20 runs. The
    // type-II error of running an experiment is missing the target — the
    // sample mean landing further than r·μ from the truth — so with the
    // estimated n the miss rate must be ~5%, and with a fraction of n it
    // must be visibly worse (the error the estimator exists to prevent).
    const REPS: usize = 1500;
    const MEAN: f64 = 100.0;
    const SD: f64 = 9.0; // CoV = 9% of MEAN, the paper's OLTP figure
    const REL_ERR: f64 = 0.04;

    let n = sample_size_for_relative_error(SD / MEAN, REL_ERR, 0.95).unwrap() as usize;
    assert_eq!(n, 20, "the paper's worked example");

    let z = Normal::standard();
    let mut rng = SplitMix64::new(0x5E1F_C0DE_0000_0005);
    let hits = |runs: usize, rng: &mut SplitMix64| -> f64 {
        let mut within = 0usize;
        for _ in 0..REPS {
            let mean: f64 = (0..runs)
                .map(|_| next_normal(rng, &z, MEAN, SD))
                .sum::<f64>()
                / runs as f64;
            if (mean - MEAN).abs() <= REL_ERR * MEAN {
                within += 1;
            }
        }
        within as f64 / REPS as f64
    };

    // With the estimated n: achieved probability ≈ the requested confidence.
    // Closed form: P(|Z| <= 0.04·100·√20/9) = P(|Z| <= 1.988) ≈ 0.953;
    // binomial sd of the estimate ≈ 0.0056, so ±2% is comfortable.
    let achieved = hits(n, &mut rng);
    assert!(
        (0.93..=0.97).contains(&achieved),
        "n = {n} runs hit the 4% target in {achieved:.4} of {REPS} experiments",
    );

    // With a quarter of the estimated budget the experiment is underpowered:
    // P(|Z| <= 4·√5/9) ≈ 0.68, nowhere near the promised 95%.
    let underpowered = hits(n / 4, &mut rng);
    assert!(
        (0.60..=0.76).contains(&underpowered),
        "n/4 = {} runs hit the target in {underpowered:.4} — the estimator \
         would be vacuous if this were still ~0.95",
        n / 4,
    );
}

#[test]
fn ci_coverage_degrades_when_interval_is_misused() {
    // Sanity check on the coverage experiment itself: an 80% interval must
    // NOT cover 95% of the time, confirming the harness can detect
    // miscalibration and the 95% result above is not vacuous.
    const EXPERIMENTS: usize = 1000;
    const N: usize = 10;
    let z = Normal::standard();
    let mut rng = SplitMix64::new(0x5E1F_C0DE_0000_0004);
    let mut covered = 0usize;
    for _ in 0..EXPERIMENTS {
        let sample: Vec<f64> = (0..N)
            .map(|_| next_normal(&mut rng, &z, 100.0, 15.0))
            .collect();
        let summary = Summary::from_slice(&sample).unwrap();
        let ci = mean_confidence_interval(&summary, 0.80).unwrap();
        if ci.contains(100.0) {
            covered += 1;
        }
    }
    let coverage = covered as f64 / EXPERIMENTS as f64;
    assert!(
        (0.76..=0.84).contains(&coverage),
        "80% CI covered in {coverage:.4} of {EXPERIMENTS} experiments",
    );
}
