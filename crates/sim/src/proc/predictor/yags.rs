//! The YAGS ("Yet Another Global Scheme") direct branch predictor
//! (Eden & Mudge, ISCA 1998), the direct predictor TFsim models (§3.2.4).
//!
//! YAGS keeps a choice PHT indexed by PC, plus two small tagged *direction
//! caches* — one for branches that deviate toward taken, one toward
//! not-taken — indexed by PC xor global history. A branch first consults the
//! choice PHT; the corresponding direction cache can override on a tag hit.

use super::Counter2;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct DirEntry {
    tag: u16,
    counter: Counter2,
    valid: bool,
}

/// A YAGS direct branch predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct Yags {
    choice: Vec<Counter2>,
    taken_cache: Vec<DirEntry>,
    not_taken_cache: Vec<DirEntry>,
    history: u32,
    history_bits: u32,
    predictions: u64,
    mispredictions: u64,
}

impl Yags {
    /// Creates a predictor with `choice_bits` of choice-PHT index and
    /// `cache_bits` of direction-cache index (sizes are `2^bits` entries).
    ///
    /// # Panics
    ///
    /// Panics if either size exceeds 24 bits (an obvious misconfiguration).
    pub fn new(choice_bits: u32, cache_bits: u32) -> Self {
        assert!(choice_bits <= 24 && cache_bits <= 24, "predictor too large");
        Yags {
            choice: vec![Counter2::weakly_taken(); 1 << choice_bits],
            taken_cache: vec![DirEntry::default(); 1 << cache_bits],
            not_taken_cache: vec![DirEntry::default(); 1 << cache_bits],
            history: 0,
            history_bits: cache_bits.min(16),
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// The TFsim-like default: 4K-entry choice PHT, 1K-entry direction
    /// caches.
    pub fn tfsim_default() -> Self {
        Yags::new(12, 10)
    }

    #[inline]
    fn choice_index(&self, pc: u32) -> usize {
        (pc as usize) & (self.choice.len() - 1)
    }

    #[inline]
    fn cache_index(&self, pc: u32) -> usize {
        ((pc ^ self.history) as usize) & (self.taken_cache.len() - 1)
    }

    #[inline]
    fn tag(pc: u32) -> u16 {
        (pc >> 4) as u16
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&self, pc: u32) -> bool {
        let choice = self.choice[self.choice_index(pc)].predict();
        let idx = self.cache_index(pc);
        let tag = Self::tag(pc);
        // The cache consulted is the one holding *exceptions* to the choice.
        let entry = if choice {
            &self.not_taken_cache[idx]
        } else {
            &self.taken_cache[idx]
        };
        if entry.valid && entry.tag == tag {
            entry.counter.predict()
        } else {
            choice
        }
    }

    /// Updates the predictor with the actual outcome; returns `true` when
    /// the prediction made beforehand was correct.
    pub fn update(&mut self, pc: u32, taken: bool) -> bool {
        let predicted = self.predict(pc);
        let correct = predicted == taken;
        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
        }

        let cidx = self.choice_index(pc);
        let choice = self.choice[cidx].predict();
        let idx = self.cache_index(pc);
        let tag = Self::tag(pc);

        // Update the exception cache if it hit, or allocate on a
        // choice-mispredict (standard YAGS policy).
        let cache = if choice {
            &mut self.not_taken_cache[idx]
        } else {
            &mut self.taken_cache[idx]
        };
        let cache_hit = cache.valid && cache.tag == tag;
        if cache_hit {
            cache.counter.update(taken);
        } else if taken != choice {
            *cache = DirEntry {
                tag,
                counter: {
                    let mut c = Counter2::weakly_taken();
                    // Bias the fresh entry toward the observed outcome.
                    c.update(taken);
                    if !taken {
                        c.update(false);
                    }
                    c
                },
                valid: true,
            };
        }
        // The choice PHT is updated unless the exception cache both hit and
        // was correct while the choice was wrong.
        if !(cache_hit && taken != choice) {
            self.choice[cidx].update(taken);
        }

        // Global history shifts in the outcome.
        self.history = ((self.history << 1) | u32::from(taken)) & ((1 << self.history_bits) - 1);
        correct
    }

    /// Fraction of mispredicted branches so far (0 if none predicted).
    pub fn misprediction_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }

    /// Total predictions made.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }
}

crate::impl_snap!(DirEntry {
    tag,
    counter,
    valid,
});
crate::impl_snap!(Yags {
    choice,
    taken_cache,
    not_taken_cache,
    history,
    history_bits,
    predictions,
    mispredictions,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken() {
        let mut y = Yags::new(8, 6);
        for _ in 0..8 {
            y.update(0x40, true);
        }
        assert!(y.predict(0x40));
        // After warmup, it keeps predicting correctly.
        let correct = (0..100).filter(|_| y.update(0x40, true)).count();
        assert_eq!(correct, 100);
    }

    #[test]
    fn learns_always_not_taken() {
        let mut y = Yags::new(8, 6);
        for _ in 0..8 {
            y.update(0x80, false);
        }
        let correct = (0..100).filter(|_| y.update(0x80, false)).count();
        assert_eq!(correct, 100);
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut y = Yags::new(8, 8);
        // Alternating T/NT is history-predictable; after warmup the
        // misprediction rate should drop well below 50%.
        let mut taken = false;
        for _ in 0..64 {
            y.update(0x100, taken);
            taken = !taken;
        }
        let correct = (0..200)
            .filter(|_| {
                let c = y.update(0x100, taken);
                taken = !taken;
                c
            })
            .count();
        assert!(correct > 150, "only {correct}/200 correct");
    }

    #[test]
    fn random_branches_mispredict_roughly_half() {
        let mut y = Yags::tfsim_default();
        let mut rng = crate::rng::Xoshiro256StarStar::new(5);
        for i in 0..5000 {
            y.update(0x200 + (i % 13), rng.next_bool(0.5));
        }
        let r = y.misprediction_rate();
        assert!((0.35..0.65).contains(&r), "rate {r}");
    }

    #[test]
    fn tracks_counts() {
        let mut y = Yags::new(6, 4);
        y.update(1, true);
        y.update(1, true);
        assert_eq!(y.predictions(), 2);
        assert!(y.misprediction_rate() <= 0.5);
    }
}
