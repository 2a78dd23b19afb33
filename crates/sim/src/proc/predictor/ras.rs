//! A return-address stack predictor, matching the 64-entry RAS TFsim models
//! (§3.2.4).

/// A fixed-depth circular return-address stack.
///
/// Overflow wraps (oldest entries are overwritten), underflow mispredicts —
/// both behaviours of real hardware RASes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReturnAddressStack {
    stack: Vec<u32>,
    top: usize,
    depth: usize,
    live: usize,
    predictions: u64,
    mispredictions: u64,
}

impl ReturnAddressStack {
    /// Creates a RAS with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RAS capacity must be > 0");
        ReturnAddressStack {
            stack: vec![0; capacity],
            top: 0,
            depth: capacity,
            live: 0,
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// The paper's 64-entry configuration.
    pub fn tfsim_default() -> Self {
        ReturnAddressStack::new(64)
    }

    /// Pushes a return address at a call.
    pub fn push(&mut self, return_pc: u32) {
        self.stack[self.top] = return_pc;
        self.top = (self.top + 1) % self.depth;
        self.live = (self.live + 1).min(self.depth);
    }

    /// Pops a predicted return address at a return and checks it against the
    /// `actual` return target; returns whether the prediction was correct.
    pub fn pop_and_check(&mut self, actual: u32) -> bool {
        self.predictions += 1;
        if self.live == 0 {
            self.mispredictions += 1;
            return false;
        }
        self.top = (self.top + self.depth - 1) % self.depth;
        self.live -= 1;
        let predicted = self.stack[self.top];
        let correct = predicted == actual;
        if !correct {
            self.mispredictions += 1;
        }
        correct
    }

    /// Current number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the stack holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Fraction of mispredicted returns so far.
    pub fn misprediction_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

crate::impl_snap!(ReturnAddressStack {
    stack,
    top,
    depth,
    live,
    predictions,
    mispredictions,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_calls_predict_perfectly() {
        let mut ras = ReturnAddressStack::new(8);
        ras.push(100);
        ras.push(200);
        assert!(ras.pop_and_check(200));
        assert!(ras.pop_and_check(100));
        assert_eq!(ras.misprediction_rate(), 0.0);
    }

    #[test]
    fn underflow_mispredicts() {
        let mut ras = ReturnAddressStack::new(4);
        assert!(!ras.pop_and_check(123));
        assert!(ras.is_empty());
        assert_eq!(ras.misprediction_rate(), 1.0);
    }

    #[test]
    fn overflow_wraps_and_clobbers_oldest() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3); // clobbers 1
        assert!(ras.pop_and_check(3));
        assert!(ras.pop_and_check(2));
        // The original bottom entry was lost.
        assert!(!ras.pop_and_check(1));
    }

    #[test]
    fn deep_recursion_within_capacity() {
        let mut ras = ReturnAddressStack::tfsim_default();
        for i in 0..64u32 {
            ras.push(i);
        }
        assert_eq!(ras.len(), 64);
        for i in (0..64u32).rev() {
            assert!(ras.pop_and_check(i));
        }
    }
}
