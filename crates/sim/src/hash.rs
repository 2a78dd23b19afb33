//! The workspace's one content hash and one 64-bit mixer.
//!
//! Checkpoint fingerprints, spill-frame validation, golden digests,
//! configuration fingerprints and every derived perturbation seed
//! are built from these few functions, so they live here once and every
//! crate calls in. Changing a constant re-keys every stored checkpoint,
//! spilled result and golden digest; the known-answer tests below pin them.

use std::fmt;

/// The SplitMix64 increment (2⁶⁴ / φ, odd).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The SplitMix64 output mix: a bijective 64-bit finalizer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One full SplitMix64 step applied to `z`: add [`GOLDEN_GAMMA`], then
/// [`mix64`]. Both the output function of [`crate::rng::SplitMix64`] and
/// the finisher of [`Fnv1a`].
#[inline]
pub fn finalize64(z: u64) -> u64 {
    mix64(z.wrapping_add(GOLDEN_GAMMA))
}

/// Folds one per-run digest into a sweep-level digest. Order-sensitive
/// (runs fold in run-index order), so two sweeps agree iff every run agrees.
#[inline]
pub fn fold_digest(acc: u64, run_digest: u64) -> u64 {
    acc.rotate_left(7) ^ run_digest
}

/// Streaming 64-bit FNV-1a, finished with [`finalize64`] so low-entropy
/// inputs still avalanche.
///
/// Hashing a concatenation equals chaining [`Fnv1a::update`] calls, so
/// callers hash header then body, or word after word, without assembling
/// them. Also a [`fmt::Write`] sink, for fingerprinting a `Debug` rendering
/// without allocating it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// A hasher over the empty input.
    #[inline]
    pub fn new() -> Self {
        Fnv1a::default()
    }

    /// Folds `bytes` into the running state.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// The finished hash of everything fed so far.
    #[inline]
    pub fn finish(self) -> u64 {
        finalize64(self.0)
    }

    /// One-shot hash of `bytes`.
    #[inline]
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.update(bytes);
        h.finish()
    }
}

impl fmt::Write for Fnv1a {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    fn pattern() -> Vec<u8> {
        (0..1024u32).map(|i| i as u8).collect()
    }

    #[test]
    fn known_answers() {
        assert_eq!(Fnv1a::hash(b""), 0xC381_7C01_6BA4_FF30);
        assert_eq!(Fnv1a::hash(b"abc"), 0x29E3_2C04_EC3F_9C30);
        assert_eq!(Fnv1a::hash(&pattern()), 0xF88C_FB1E_BBAC_3CEF);
        assert_eq!(finalize64(7), 0x63CB_E1E4_5932_0DD7);
        assert_eq!(fold_digest(1, 2), 0x82);
    }

    #[test]
    fn every_way_of_feeding_bytes_agrees() {
        let bytes = pattern();
        let whole = Fnv1a::hash(&bytes);
        for split in [0, 1, 100, bytes.len()] {
            let mut chained = Fnv1a::new();
            chained.update(&bytes[..split]);
            chained.update(&bytes[split..]);
            assert_eq!(chained.finish(), whole, "split at {split}");
        }
        let mut written = Fnv1a::new();
        write!(written, "{}-{:?}", bytes.len(), 'c').unwrap();
        assert_eq!(written.finish(), Fnv1a::hash(b"1024-'c'"));
    }
}
