//! The **wrong conclusion ratio** (§4.1): "the percentage of comparison
//! experiment pairs that reach an incorrect conclusion."
//!
//! For two configurations A and B with `N` runs each, the correct conclusion
//! is the relationship between the two sample means; WCR enumerates all `N²`
//! cross pairs `(aᵢ, bⱼ)` and reports the percentage whose single-run
//! comparison points the other way. It estimates the probability of a wrong
//! conclusion when a researcher ignores variability and compares single
//! simulations.

use mtvar_stats::describe::Summary;

use crate::runspace::RunSpace;
use crate::{CoreError, Result};

/// Which configuration a comparison ranks better (lower runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Superior {
    /// The first configuration's mean is lower (faster).
    First,
    /// The second configuration's mean is lower (faster).
    Second,
}

/// Result of a wrong-conclusion-ratio enumeration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wcr {
    /// Which configuration the run averages rank better.
    pub superior: Superior,
    /// Percentage of cross pairs contradicting the averages (0–100).
    pub wcr_percent: f64,
    /// Number of contradicting pairs.
    pub wrong_pairs: u64,
    /// Total pairs enumerated (`N_a × N_b`).
    pub total_pairs: u64,
}

/// [`wrong_conclusion_ratio`] over two collected [`RunSpace`]s — the form
/// used with [`crate::runspace::Executor`] output.
///
/// A WCR is only as trustworthy as the runs beneath it: check
/// [`RunSpace::is_clean`] on both spaces (or collect them with a strict
/// executor, [`crate::runspace::Executor::with_invariant_checks`]) before
/// drawing conclusions from runs whose invariants may have fired.
///
/// # Errors
///
/// Same conditions as [`wrong_conclusion_ratio`].
pub fn wcr_from_spaces(a: &RunSpace, b: &RunSpace) -> Result<Wcr> {
    wrong_conclusion_ratio(&a.runtimes(), &b.runtimes())
}

/// Enumerates the wrong-conclusion ratio between two run sets of the
/// *runtime-like* metric (lower is better).
///
/// Ties — single-run pairs with exactly equal values — are counted as wrong
/// with weight ½ (they provide no evidence either way); exact float ties are
/// vanishingly rare in practice.
///
/// # Errors
///
/// Returns [`CoreError::InvalidExperiment`] if either sample is empty or the
/// two means are exactly equal (no correct conclusion exists), and
/// [`CoreError::Stats`] for non-finite inputs.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), mtvar_core::CoreError> {
/// use mtvar_core::wcr::{wrong_conclusion_ratio, Superior};
///
/// // B is faster on average, but the ranges overlap.
/// let a = [10.0, 11.0, 12.0];
/// let b = [9.0, 10.5, 11.5];
/// let w = wrong_conclusion_ratio(&a, &b)?;
/// assert_eq!(w.superior, Superior::Second);
/// assert!(w.wcr_percent > 0.0 && w.wcr_percent < 50.0);
/// # Ok(())
/// # }
/// ```
pub fn wrong_conclusion_ratio(a: &[f64], b: &[f64]) -> Result<Wcr> {
    let sa = Summary::from_slice(a)?;
    let sb = Summary::from_slice(b)?;
    if sa.mean() == sb.mean() {
        return Err(CoreError::InvalidExperiment {
            what: "the two configurations have identical means; no conclusion to contradict".into(),
        });
    }
    // Correct conclusion: the lower mean is the superior configuration.
    let first_superior = sa.mean() < sb.mean();
    let mut wrong_halves: u64 = 0; // counted in halves so ties weigh 1/2
    for &x in a {
        for &y in b {
            let pair_first_better = x < y;
            if x == y {
                wrong_halves += 1;
            } else if pair_first_better != first_superior {
                wrong_halves += 2;
            }
        }
    }
    let total_pairs = (a.len() * b.len()) as u64;
    Ok(Wcr {
        superior: if first_superior {
            Superior::First
        } else {
            Superior::Second
        },
        wcr_percent: 100.0 * wrong_halves as f64 / 2.0 / total_pairs as f64,
        wrong_pairs: wrong_halves / 2,
        total_pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_ranges_give_zero_wcr() {
        let fast = [1.0, 1.1, 1.2];
        let slow = [2.0, 2.1, 2.2];
        let w = wrong_conclusion_ratio(&fast, &slow).unwrap();
        assert_eq!(w.superior, Superior::First);
        assert_eq!(w.wcr_percent, 0.0);
        assert_eq!(w.total_pairs, 9);
    }

    #[test]
    fn fully_interleaved_gives_high_wcr() {
        // Means differ slightly but every pair comparison is a coin flip.
        let a = [1.0, 3.0, 5.0, 7.0];
        let b = [2.0, 4.0, 6.0, 8.0]; // mean 5 vs 4: b slower
        let w = wrong_conclusion_ratio(&a, &b).unwrap();
        assert_eq!(w.superior, Superior::First);
        // Pairs where a > b: (3,2),(5,2),(5,4),(7,2),(7,4),(7,6) = 6/16.
        assert!((w.wcr_percent - 37.5).abs() < 1e-9);
        assert_eq!(w.wrong_pairs, 6);
    }

    #[test]
    fn direction_is_symmetric() {
        let a = [10.0, 12.0];
        let b = [9.0, 11.0];
        let ab = wrong_conclusion_ratio(&a, &b).unwrap();
        let ba = wrong_conclusion_ratio(&b, &a).unwrap();
        assert_eq!(ab.superior, Superior::Second);
        assert_eq!(ba.superior, Superior::First);
        assert!((ab.wcr_percent - ba.wcr_percent).abs() < 1e-12);
    }

    #[test]
    fn ties_count_half() {
        let a = [1.0, 2.0];
        let b = [2.0, 3.0]; // mean 1.5 vs 2.5, a superior
                            // Pairs: (1,2)+, (1,3)+, (2,2) tie, (2,3)+ => 0.5/4 = 12.5%.
        let w = wrong_conclusion_ratio(&a, &b).unwrap();
        assert!((w.wcr_percent - 12.5).abs() < 1e-9);
    }

    #[test]
    fn wcr_bounds() {
        // Property: WCR is always within [0, 100].
        let a = [5.0, 6.0, 7.0, 8.0];
        let b = [6.5, 6.6, 6.7, 5.9];
        let w = wrong_conclusion_ratio(&a, &b).unwrap();
        assert!((0.0..=100.0).contains(&w.wcr_percent));
    }

    #[test]
    fn validation() {
        assert!(wrong_conclusion_ratio(&[], &[1.0]).is_err());
        assert!(wrong_conclusion_ratio(&[1.0], &[]).is_err());
        assert!(wrong_conclusion_ratio(&[1.0, 2.0], &[1.5, 1.5]).is_err());
        assert!(wrong_conclusion_ratio(&[f64::NAN], &[1.0]).is_err());
    }
}
