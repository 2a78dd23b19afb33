//! Randomized property tests of the statistics substrate's invariants.
//!
//! Formerly written against the `proptest` crate; rewritten as deterministic
//! seeded sweeps so the suite builds with no network access. Every case is a
//! pure function of the fixed seeds below, so failures reproduce exactly.

use mtvar_stats::describe::{quantile, Summary};
use mtvar_stats::dist::{ChiSquare, ContinuousDistribution, FisherF, Normal, StudentT};
use mtvar_stats::infer::{
    anova_one_way, anova_two_way, jarque_bera, mean_confidence_interval, two_sample_t_test,
    TTestKind,
};
use mtvar_stats::sampling::SplitMix64;
use mtvar_stats::special::{erf, erfc, reg_inc_beta, reg_lower_gamma};

/// Case generator over the crate's own seeded stream.
struct Gen(SplitMix64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(SplitMix64::new(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform f64 in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in [lo, hi).
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform usize in [lo, hi).
    fn index(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// A vector of finite values in ±1e6, length in [min_len, 40).
    fn finite_sample(&mut self, min_len: usize) -> Vec<f64> {
        let n = self.index(min_len, 40);
        (0..n).map(|_| self.range(-1.0e6, 1.0e6)).collect()
    }
}

const CASES: usize = 200;

#[test]
fn erf_is_odd_bounded_and_monotone() {
    let mut g = Gen::new(0xE5F_0001);
    for _ in 0..CASES {
        let x = g.range(-30.0, 30.0);
        let e = erf(x);
        assert!((-1.0..=1.0).contains(&e));
        assert!((erf(-x) + e).abs() < 1e-12);
        assert!((e + erfc(x) - 1.0).abs() < 1e-10);
        let a = g.range(-5.0, 5.0);
        let d = g.range(1e-6, 1.0);
        assert!(erf(a + d) >= erf(a));
    }
}

#[test]
fn incomplete_gamma_in_unit_interval() {
    let mut g = Gen::new(0xE5F_0002);
    for _ in 0..CASES {
        let a = g.range(0.05, 50.0);
        let x = g.range(0.0, 200.0);
        let p = reg_lower_gamma(a, x).unwrap();
        assert!((0.0..=1.0 + 1e-12).contains(&p), "P({a}, {x}) = {p}");
    }
}

#[test]
fn incomplete_beta_symmetry_and_monotonicity() {
    let mut g = Gen::new(0xE5F_0003);
    for _ in 0..CASES {
        let a = g.range(0.1, 30.0);
        let b = g.range(0.1, 30.0);
        let x = g.unit();
        let lhs = reg_inc_beta(a, b, x).unwrap();
        let rhs = 1.0 - reg_inc_beta(b, a, 1.0 - x).unwrap();
        assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
        assert!((0.0..=1.0 + 1e-12).contains(&lhs));

        let a = g.range(0.2, 20.0);
        let b = g.range(0.2, 20.0);
        let x = g.range(0.0, 0.98);
        let d = g.range(1e-4, 0.02);
        let lo = reg_inc_beta(a, b, x).unwrap();
        let hi = reg_inc_beta(a, b, (x + d).min(1.0)).unwrap();
        assert!(hi >= lo - 1e-12);
    }
}

#[test]
fn normal_t_and_chi_square_quantiles_round_trip() {
    let mut g = Gen::new(0xE5F_0004);
    for _ in 0..CASES {
        let p = g.range(0.0001, 0.9999);
        let mean = g.range(-100.0, 100.0);
        let sd = g.range(0.01, 50.0);
        let d = Normal::new(mean, sd).unwrap();
        let x = d.quantile(p).unwrap();
        assert!((d.cdf(x) - p).abs() < 1e-9);

        let p = g.range(0.001, 0.999);
        let df = g.range(1.0, 200.0);
        let t = StudentT::new(df).unwrap();
        let x = t.quantile(p).unwrap();
        assert!((t.cdf(x) - p).abs() < 1e-8);

        let df = g.range(0.5, 100.0);
        let c = ChiSquare::new(df).unwrap();
        let x = c.quantile(p).unwrap();
        assert!(x >= 0.0);
        assert!((c.cdf(x) - p).abs() < 1e-8);
    }
}

#[test]
fn f_cdf_monotone() {
    let mut g = Gen::new(0xE5F_0005);
    for _ in 0..CASES {
        let d1 = g.range(0.5, 40.0);
        let d2 = g.range(0.5, 40.0);
        let x = g.range(0.0, 20.0);
        let dx = g.range(0.001, 2.0);
        let d = FisherF::new(d1, d2).unwrap();
        assert!(d.cdf(x + dx) >= d.cdf(x));
    }
}

#[test]
fn summary_matches_naive_moments() {
    let mut g = Gen::new(0xE5F_0006);
    for _ in 0..CASES {
        let values = g.finite_sample(2);
        let s = Summary::from_slice(&values).unwrap();
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        assert!((s.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
        assert!(s.min() <= s.mean() + 1e-9 && s.mean() <= s.max() + 1e-9);
    }
}

#[test]
fn summary_merge_is_order_independent() {
    let mut g = Gen::new(0xE5F_0007);
    for _ in 0..CASES {
        let a = g.finite_sample(1);
        let b = g.finite_sample(1);
        let sa = Summary::from_slice(&a).unwrap();
        let sb = Summary::from_slice(&b).unwrap();
        let mut ab = sa;
        ab.merge(&sb);
        let mut ba = sb;
        ba.merge(&sa);
        assert_eq!(ab.n(), ba.n());
        assert!((ab.mean() - ba.mean()).abs() <= 1e-6 * (1.0 + ab.mean().abs()));
        assert!(
            (ab.m2_equivalent() - ba.m2_equivalent()).abs()
                <= 1e-4 * (1.0 + ab.m2_equivalent().abs())
        );
    }
}

#[test]
fn ci_tightens_with_confidence_and_contains_mean() {
    let mut g = Gen::new(0xE5F_0008);
    for _ in 0..CASES {
        let values = g.finite_sample(3);
        let s = Summary::from_slice(&values).unwrap();
        if !(s.sd().is_finite() && s.sd() > 0.0) {
            continue;
        }
        let ci90 = mean_confidence_interval(&s, 0.90).unwrap();
        let ci99 = mean_confidence_interval(&s, 0.99).unwrap();
        assert!(ci90.contains(s.mean()));
        assert!(ci99.width() >= ci90.width());
    }
}

#[test]
fn t_test_is_antisymmetric() {
    let mut g = Gen::new(0xE5F_0009);
    for _ in 0..CASES {
        let a = g.finite_sample(2);
        let b = g.finite_sample(2);
        let sa = Summary::from_slice(&a).unwrap();
        let sb = Summary::from_slice(&b).unwrap();
        if !(sa.variance() > 0.0 || sb.variance() > 0.0) {
            continue;
        }
        let ab = two_sample_t_test(&sa, &sb, TTestKind::Welch).unwrap();
        let ba = two_sample_t_test(&sb, &sa, TTestKind::Welch).unwrap();
        assert!((ab.statistic() + ba.statistic()).abs() < 1e-9);
        assert!((ab.p_two_sided() - ba.p_two_sided()).abs() < 1e-9);
        assert!((0.0..=1.0).contains(&ab.p_one_sided()));
    }
}

#[test]
fn anova_p_value_in_unit_interval() {
    let mut g = Gen::new(0xE5F_000A);
    for _ in 0..CASES {
        let g1 = g.finite_sample(2);
        let g2 = g.finite_sample(2);
        let g3 = g.finite_sample(2);
        let groups = [g1.as_slice(), g2.as_slice(), g3.as_slice()];
        if let Ok(a) = anova_one_way(&groups) {
            assert!((0.0..=1.0).contains(&a.p_value()));
            assert!(a.f_statistic() >= 0.0);
            assert!(a.ss_between() >= -1e-6);
            assert!(a.ss_within() >= -1e-6);
        }
    }
}

#[test]
fn jarque_bera_outputs_are_coherent() {
    let mut g = Gen::new(0xE5F_000B);
    for _ in 0..CASES {
        let values = g.finite_sample(4);
        if !values.iter().any(|&v| (v - values[0]).abs() > 1e-9) {
            continue;
        }
        let jb = jarque_bera(&values).unwrap();
        assert!(jb.statistic() >= 0.0);
        assert!((0.0..=1.0).contains(&jb.p_value()));
        // Shifting and positively scaling a sample must not change JB.
        let transformed: Vec<f64> = values.iter().map(|v| 3.0 * v / 1e3 + 7.0).collect();
        let jb2 = jarque_bera(&transformed).unwrap();
        assert!((jb.statistic() - jb2.statistic()).abs() < 1e-6 * (1.0 + jb.statistic()));
    }
}

#[test]
fn two_way_anova_p_values_are_probabilities() {
    let mut g = Gen::new(0xE5F_000C);
    for _ in 0..CASES {
        let r = g.index(3, 6);
        let c00: Vec<f64> = (0..r).map(|_| g.range(0.0, 100.0)).collect();
        let seed = g.next_u64();
        // Build a 2x2 equal-replication design from one cell plus simple
        // deterministic transforms (keeps the generator cheap).
        let shift = (seed % 17) as f64;
        let c01: Vec<f64> = c00.iter().map(|v| v + shift).collect();
        let c10: Vec<f64> = c00.iter().map(|v| v * 1.5 + 1.0).collect();
        let c11: Vec<f64> = c00.iter().map(|v| v * 0.5 + 2.0).collect();
        let cells = vec![vec![c00.clone(), c01], vec![c10, c11]];
        match anova_two_way(&cells) {
            Ok(a) => {
                for (f, p) in [a.factor_a, a.factor_b, a.interaction] {
                    assert!(f >= 0.0);
                    assert!((0.0..=1.0).contains(&p));
                }
                assert!(a.ms_error >= 0.0);
            }
            Err(_) => {
                // Only possible when the constructed data is constant.
                assert!(c00.iter().all(|&v| (v - c00[0]).abs() < 1e-12) && r >= 2);
            }
        }
    }
}

#[test]
fn quantile_is_monotone_in_q() {
    let mut g = Gen::new(0xE5F_000D);
    for _ in 0..CASES {
        let values = g.finite_sample(1);
        let q1 = g.unit();
        let q2 = g.unit();
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&values, lo).unwrap();
        let b = quantile(&values, hi).unwrap();
        assert!(a <= b + 1e-9);
    }
}

/// Test-only helper: expose the accumulated sum of squared deviations so the
/// merge property can compare second moments.
trait M2Equivalent {
    fn m2_equivalent(&self) -> f64;
}

impl M2Equivalent for Summary {
    fn m2_equivalent(&self) -> f64 {
        if self.n() < 2 {
            0.0
        } else {
            self.variance() * (self.n() - 1) as f64
        }
    }
}
