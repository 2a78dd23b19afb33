//! Branch-prediction structures used by the out-of-order processor model,
//! mirroring the TFsim configuration in §3.2.4 of the paper:
//!
//! * a YAGS direct branch predictor ([`Yags`]),
//! * a 64-entry cascaded indirect branch predictor ([`CascadedIndirect`]),
//! * a 64-entry return-address stack ([`ReturnAddressStack`]).

mod cascaded;
mod ras;
mod yags;

pub use cascaded::CascadedIndirect;
pub use ras::ReturnAddressStack;
pub use yags::Yags;

/// A saturating 2-bit counter used throughout the predictors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Counter2(u8);

impl Counter2 {
    /// Weakly-taken initial state.
    pub(crate) fn weakly_taken() -> Self {
        Counter2(2)
    }

    #[inline]
    pub(crate) fn predict(self) -> bool {
        self.0 >= 2
    }

    #[inline]
    pub(crate) fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

impl crate::checkpoint::Snap for Counter2 {
    fn encode_snap(&self, enc: &mut crate::checkpoint::Encoder) {
        enc.put_u8(self.0);
    }
    fn decode_snap(
        dec: &mut crate::checkpoint::Decoder<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        let v = dec.get_u8()?;
        if v > 3 {
            return Err(crate::checkpoint::CheckpointError::Corrupt {
                what: "Counter2 out of range".into(),
            });
        }
        Ok(Counter2(v))
    }
    fn snap_size_hint(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_both_ways() {
        let mut c = Counter2::weakly_taken();
        assert!(c.predict());
        c.update(false);
        assert!(!c.predict()); // 1: weakly not-taken
        c.update(false);
        c.update(false);
        assert!(!c.predict()); // saturated at 0
        c.update(true);
        assert!(!c.predict()); // 1
        c.update(true);
        assert!(c.predict()); // 2
        c.update(true);
        c.update(true);
        assert!(c.predict()); // saturated at 3
    }
}
