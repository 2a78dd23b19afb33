//! A cascaded indirect branch predictor (Driesen & Hölzle, ISCA 1998),
//! matching the 64-entry indirect predictor TFsim models (§3.2.4).
//!
//! Two stages: a first-stage table indexed by PC alone, and a tagged
//! second-stage table indexed by PC xor a path history of recent targets.
//! The second stage overrides the first on a tag hit; entries are promoted
//! into the second stage when the first stage mispredicts.

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Stage1Entry {
    target: u32,
    valid: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Stage2Entry {
    tag: u16,
    target: u32,
    valid: bool,
}

/// The cascaded two-stage indirect branch predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadedIndirect {
    stage1: Vec<Stage1Entry>,
    stage2: Vec<Stage2Entry>,
    path_history: u32,
    predictions: u64,
    mispredictions: u64,
}

impl CascadedIndirect {
    /// Creates a predictor with `2^stage1_bits` first-stage and
    /// `2^stage2_bits` second-stage entries.
    ///
    /// # Panics
    ///
    /// Panics if either size exceeds 20 bits.
    pub fn new(stage1_bits: u32, stage2_bits: u32) -> Self {
        assert!(
            stage1_bits <= 20 && stage2_bits <= 20,
            "predictor too large"
        );
        CascadedIndirect {
            stage1: vec![Stage1Entry::default(); 1 << stage1_bits],
            stage2: vec![Stage2Entry::default(); 1 << stage2_bits],
            path_history: 0,
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// The paper's 64-entry configuration (two 64-entry stages).
    pub fn tfsim_default() -> Self {
        CascadedIndirect::new(6, 6)
    }

    #[inline]
    fn s1_index(&self, pc: u32) -> usize {
        (pc as usize) & (self.stage1.len() - 1)
    }

    #[inline]
    fn s2_index(&self, pc: u32) -> usize {
        ((pc ^ self.path_history) as usize) & (self.stage2.len() - 1)
    }

    #[inline]
    fn tag(pc: u32) -> u16 {
        (pc >> 3) as u16
    }

    /// Predicts the target of the indirect branch at `pc`; `None` when the
    /// predictor has no information (counts as a mispredict on update).
    pub fn predict(&self, pc: u32) -> Option<u32> {
        let s2 = &self.stage2[self.s2_index(pc)];
        if s2.valid && s2.tag == Self::tag(pc) {
            return Some(s2.target);
        }
        let s1 = &self.stage1[self.s1_index(pc)];
        if s1.valid {
            return Some(s1.target);
        }
        None
    }

    /// Updates with the actual `target`; returns whether the prediction made
    /// beforehand was correct.
    pub fn update(&mut self, pc: u32, target: u32) -> bool {
        let predicted = self.predict(pc);
        let correct = predicted == Some(target);
        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
        }

        let s1_idx = self.s1_index(pc);
        let s1_correct = self.stage1[s1_idx].valid && self.stage1[s1_idx].target == target;
        // Stage-1 is a plain last-target table.
        self.stage1[s1_idx] = Stage1Entry {
            target,
            valid: true,
        };
        // Cascade: allocate in stage 2 only when stage 1 was wrong
        // (polymorphic branch), or update an existing hit.
        let s2_idx = self.s2_index(pc);
        let s2 = &mut self.stage2[s2_idx];
        let s2_hit = s2.valid && s2.tag == Self::tag(pc);
        if s2_hit || !s1_correct {
            *s2 = Stage2Entry {
                tag: Self::tag(pc),
                target,
                valid: true,
            };
        }

        // Path history mixes in low target bits.
        self.path_history = (self.path_history << 3) ^ (target & 0x3F);
        correct
    }

    /// Fraction of mispredicted indirect branches so far.
    pub fn misprediction_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

crate::impl_snap!(Stage1Entry { target, valid });
crate::impl_snap!(Stage2Entry { tag, target, valid });
crate::impl_snap!(CascadedIndirect {
    stage1,
    stage2,
    path_history,
    predictions,
    mispredictions,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monomorphic_branch_is_learned_by_stage1() {
        let mut p = CascadedIndirect::tfsim_default();
        p.update(0x10, 42);
        let correct = (0..50).filter(|_| p.update(0x10, 42)).count();
        assert_eq!(correct, 50);
    }

    #[test]
    fn cold_predictor_returns_none() {
        let p = CascadedIndirect::tfsim_default();
        assert_eq!(p.predict(0x99), None);
    }

    #[test]
    fn polymorphic_branch_with_stable_pattern_improves_in_stage2() {
        let mut p = CascadedIndirect::new(6, 10);
        // A branch that cycles through 3 targets — pure last-target predicts
        // 0% on a 3-cycle; the history-indexed stage should learn it.
        let targets = [7u32, 13, 29];
        for i in 0..600usize {
            p.update(0x20, targets[i % 3]);
        }
        let correct = (600..1200usize)
            .filter(|&i| p.update(0x20, targets[i % 3]))
            .count();
        assert!(correct > 450, "only {correct}/600 correct");
    }

    #[test]
    fn distinguishes_branch_sites() {
        let mut p = CascadedIndirect::tfsim_default();
        for _ in 0..10 {
            p.update(0x1, 100);
            p.update(0x2, 200);
        }
        assert_eq!(p.predict(0x1), Some(100));
        assert_eq!(p.predict(0x2), Some(200));
    }

    #[test]
    fn misprediction_rate_tracked() {
        let mut p = CascadedIndirect::tfsim_default();
        p.update(0x5, 1); // cold: mispredict
        p.update(0x5, 1); // learned
        assert!((p.misprediction_rate() - 0.5).abs() < 1e-12);
    }
}
