//! Machine checkpoints: a stable binary snapshot encoding.
//!
//! The paper's methodology launches every measured run from a checkpoint
//! taken after warmup (§3.3: "identical initial conditions + small
//! perturbations"). This module provides the serialization substrate:
//!
//! * [`Snap`] — a hand-rolled, version-stable binary codec trait implemented
//!   by every state-holding simulator type. All integers are fixed-width
//!   little-endian, floats round-trip through their IEEE-754 bit patterns,
//!   and enums carry explicit tag bytes, so an encoding produced today
//!   decodes bit-identically forever (no `serde`, no layout dependence).
//!   [`impl_snap!`](crate::impl_snap) derives it for structs, tagged enums
//!   and newtypes, so each such type's wire format is one invocation.
//! * [`Checkpoint`] — an opaque container for one encoded
//!   [`Machine`](crate::machine::Machine): a payload plus a content
//!   fingerprint, persisted with [`Checkpoint::to_bytes`] /
//!   [`Checkpoint::from_bytes`].
//! * [`frame`] / [`unframe`] — the workspace's one frame, `magic |
//!   version | payload_len | payload_fingerprint | payload`, shared by
//!   checkpoint files, run-result records and the service's wire messages
//!   ([`frame_payload_len`] is its one header check). Magic, version,
//!   length and fingerprint are all validated on load, so a truncated or
//!   corrupted frame is rejected with a [`CheckpointError`] instead of
//!   yielding a broken machine or a wrong result.
//!
//! Determinism contract: restoring a checkpoint and continuing must be
//! bit-identical to never having snapshotted. Every RNG stream, LRU clock,
//! predictor table and event-queue entry is therefore part of the encoding.

use std::collections::VecDeque;
use std::fmt;

use crate::hash::Fnv1a;

/// Magic bytes opening a framed checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"MTVARCKP";

/// Current encoding version. Bump when any [`Snap`] implementation changes
/// its wire format; old checkpoints are then rejected instead of misread.
///
/// Version history:
///
/// * **1** — monolithic frame: `magic | version | payload_len | fingerprint
///   | payload`.
/// * **2** — sectioned frame: the header additionally carried a section
///   table (kind, length and per-section fingerprint for every per-node and
///   per-subsystem range of the payload) plus a checksum over the whole
///   header.
/// * **3** — the version-1 layout again, written by [`frame`] and shared
///   with the run-result store; nothing read the section table. The
///   *payload* bytes are unchanged through all three versions, so payload
///   fingerprints (and everything derived from them: store keys, run seeds,
///   golden statistics) carry over without re-blessing. Only the framed
///   on-disk form changed, which is why each bump rejects old spill files
///   instead of misreading their headers.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Why a checkpoint could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The byte stream ended before the value was complete.
    Truncated,
    /// The framed header does not start with the expected magic
    /// ([`CHECKPOINT_MAGIC`] for checkpoint files).
    BadMagic,
    /// The encoding version is not supported by this build.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The stored fingerprint does not match the payload contents.
    FingerprintMismatch {
        /// Fingerprint recorded in the header.
        stored: u64,
        /// Fingerprint recomputed over the payload.
        actual: u64,
    },
    /// A decoded value was structurally invalid (bad enum tag, invalid
    /// UTF-8, trailing bytes, ...).
    Corrupt {
        /// Description of the inconsistency.
        what: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint data is truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(f, "unsupported checkpoint version {found}")
            }
            CheckpointError::FingerprintMismatch { stored, actual } => write!(
                f,
                "checkpoint fingerprint mismatch (stored {stored:#018x}, actual {actual:#018x})"
            ),
            CheckpointError::Corrupt { what } => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CheckpointError> for crate::SimError {
    fn from(e: CheckpointError) -> Self {
        crate::SimError::BadCheckpoint {
            what: e.to_string(),
        }
    }
}

/// Appends fixed-width little-endian values to a byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Creates an empty encoder with `capacity` bytes pre-reserved. Machine
    /// snapshots know their rough size up front (the L2 arrays dominate);
    /// reserving once replaces the doubling-regrowth copies of a payload
    /// built from zero.
    pub fn with_capacity(capacity: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes verbatim (length is the caller's responsibility).
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Number of bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the byte buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads fixed-width little-endian values back out of a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Truncated`] past the end of the buffer.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Truncated`] past the end of the buffer.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Truncated`] past the end of the buffer.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Truncated`] past the end of the buffer.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Truncated`] past the end of the buffer.
    #[inline]
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        self.take(n)
    }

    /// Asserts the whole buffer was consumed — trailing garbage means the
    /// encoding and decoding disagree on the schema.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Corrupt`] if bytes remain.
    pub fn finish(&self) -> Result<(), CheckpointError> {
        if self.remaining() != 0 {
            return Err(CheckpointError::Corrupt {
                what: format!("{} trailing byte(s) after decode", self.remaining()),
            });
        }
        Ok(())
    }
}

/// A type with a stable binary snapshot encoding.
///
/// Implementations must be exact inverses: `decode(encode(x)) == x` for
/// every reachable value, and the byte format must never change without a
/// [`CHECKPOINT_VERSION`] bump.
pub trait Snap: Sized {
    /// Appends this value's encoding to `enc`.
    fn encode_snap(&self, enc: &mut Encoder);

    /// Reads one value of this type from `dec`.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] if the stream is truncated or the bytes
    /// are not a valid encoding of this type.
    fn decode_snap(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError>;

    /// Estimate of this value's encoded size in bytes, used to seed encoder
    /// capacity so snapshot encoding never regrows its buffer mid-encode
    /// (gated by the alloc-budget suite). Estimates must be exact or high,
    /// never low: primitives return their width, containers sum their
    /// elements, and [`impl_snap!`](crate::impl_snap) derives the sum of
    /// the field hints (plus the tag byte for enums).
    fn snap_size_hint(&self) -> usize;
}

/// Implements [`Snap`] by encoding the listed fields in order; the
/// invocation is the wire-format spec. Three shapes are accepted:
///
/// * **Struct** — `impl_snap!(Type { field, ... })`: the named fields.
/// * **Tagged enum** — `impl_snap!(enum Type { tag => Variant, ... })`: the
///   variant's tag byte, then its fields. Unit, tuple (`Variant(a, b)`,
///   naming a binding per field) and struct (`Variant { a, b }`) variants
///   mix freely; an unlisted tag decodes to [`CheckpointError::Corrupt`].
/// * **Newtype** — `impl_snap!(Type(Inner))`: exactly `Inner`'s encoding.
///
/// The derived [`Snap::snap_size_hint`] sums the field hints (plus one for
/// an enum's tag), so it is exact whenever theirs are. Dependent crates use
/// it for their own state types too.
///
/// ```
/// use mtvar_sim::checkpoint::{CheckpointError, Decoder, Encoder, Snap};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Circle(u32),
///     Rect { w: u32, h: u32 },
/// }
/// mtvar_sim::impl_snap!(enum Shape {
///     0 => Dot,
///     1 => Circle(radius),
///     7 => Rect { w, h },
/// });
///
/// #[derive(Debug, PartialEq)]
/// struct Meters(u64);
/// mtvar_sim::impl_snap!(Meters(u64));
///
/// let value = (Shape::Rect { w: 3, h: 4 }, Meters(2));
/// let mut enc = Encoder::new();
/// value.encode_snap(&mut enc);
/// let bytes = enc.into_bytes();
/// // The tag byte, `w`, `h`, then the newtype's u64.
/// assert_eq!(bytes, [7, 3, 0, 0, 0, 4, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]);
/// assert_eq!(value.snap_size_hint(), bytes.len());
/// assert_eq!(Snap::decode_snap(&mut Decoder::new(&bytes)), Ok(value));
///
/// assert_eq!(
///     Shape::decode_snap(&mut Decoder::new(&[2])),
///     Err(CheckpointError::Corrupt { what: "invalid Shape tag 2".into() })
/// );
/// assert_eq!(Shape::decode_snap(&mut Decoder::new(&[])), Err(CheckpointError::Truncated));
/// ```
//
// The enum arm comes first: once a `ty` fragment fails to parse (as `enum`
// does), `macro_rules` reports an error instead of trying the next arm.
#[macro_export]
macro_rules! impl_snap {
    (enum $name:ident {
        $( $tag:literal => $variant:ident
            $( ( $($tfield:ident),+ $(,)? ) )?
            $( { $($sfield:ident),+ $(,)? } )?
        ),+ $(,)?
    }) => {
        impl $crate::checkpoint::Snap for $name {
            fn encode_snap(&self, enc: &mut $crate::checkpoint::Encoder) {
                // The tag has its own match: a lookup table, not a branch per
                // variant, for field-less enums such as a cache line's state.
                enc.put_u8(match self {
                    $( Self::$variant { .. } => $tag, )+
                });
                match self {
                    $( Self::$variant $( ( $($tfield),+ ) )? $( { $($sfield),+ } )? => {
                        $($( $crate::checkpoint::Snap::encode_snap($tfield, enc); )+)?
                        $($( $crate::checkpoint::Snap::encode_snap($sfield, enc); )+)?
                    } )+
                }
            }
            fn decode_snap(
                dec: &mut $crate::checkpoint::Decoder<'_>,
            ) -> ::std::result::Result<Self, $crate::checkpoint::CheckpointError> {
                match dec.get_u8()? {
                    $( $tag => {
                        $($( let $tfield = $crate::checkpoint::Snap::decode_snap(dec)?; )+)?
                        $($( let $sfield = $crate::checkpoint::Snap::decode_snap(dec)?; )+)?
                        Ok(Self::$variant $( ( $($tfield),+ ) )? $( { $($sfield),+ } )?)
                    } )+
                    tag => Err($crate::checkpoint::CheckpointError::Corrupt {
                        what: ::std::format!("invalid {} tag {tag}", ::std::stringify!($name)),
                    }),
                }
            }
            fn snap_size_hint(&self) -> usize {
                match self {
                    $( Self::$variant $( ( $($tfield),+ ) )? $( { $($sfield),+ } )? => {
                        1 $($( + $crate::checkpoint::Snap::snap_size_hint($tfield) )+)?
                          $($( + $crate::checkpoint::Snap::snap_size_hint($sfield) )+)?
                    } )+
                }
            }
        }
    };
    ($name:ident ( $inner:ty )) => {
        impl $crate::checkpoint::Snap for $name {
            fn encode_snap(&self, enc: &mut $crate::checkpoint::Encoder) {
                $crate::checkpoint::Snap::encode_snap(&self.0, enc);
            }
            fn decode_snap(
                dec: &mut $crate::checkpoint::Decoder<'_>,
            ) -> ::std::result::Result<Self, $crate::checkpoint::CheckpointError> {
                Ok(Self(<$inner as $crate::checkpoint::Snap>::decode_snap(dec)?))
            }
            fn snap_size_hint(&self) -> usize {
                $crate::checkpoint::Snap::snap_size_hint(&self.0)
            }
        }
    };
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::checkpoint::Snap for $ty {
            fn encode_snap(&self, enc: &mut $crate::checkpoint::Encoder) {
                $( $crate::checkpoint::Snap::encode_snap(&self.$field, enc); )+
            }
            fn decode_snap(
                dec: &mut $crate::checkpoint::Decoder<'_>,
            ) -> ::std::result::Result<Self, $crate::checkpoint::CheckpointError> {
                $( let $field = $crate::checkpoint::Snap::decode_snap(dec)?; )+
                Ok(Self { $($field),+ })
            }
            fn snap_size_hint(&self) -> usize {
                0 $( + $crate::checkpoint::Snap::snap_size_hint(&self.$field) )+
            }
        }
    };
}

impl Snap for u8 {
    fn encode_snap(&self, enc: &mut Encoder) {
        enc.put_u8(*self);
    }
    fn decode_snap(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        dec.get_u8()
    }
    fn snap_size_hint(&self) -> usize {
        1
    }
}

impl Snap for u16 {
    fn encode_snap(&self, enc: &mut Encoder) {
        enc.put_u16(*self);
    }
    fn decode_snap(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        dec.get_u16()
    }
    fn snap_size_hint(&self) -> usize {
        2
    }
}

impl Snap for u32 {
    fn encode_snap(&self, enc: &mut Encoder) {
        enc.put_u32(*self);
    }
    fn decode_snap(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        dec.get_u32()
    }
    fn snap_size_hint(&self) -> usize {
        4
    }
}

impl Snap for u64 {
    fn encode_snap(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }
    fn decode_snap(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        dec.get_u64()
    }
    fn snap_size_hint(&self) -> usize {
        8
    }
}

impl Snap for usize {
    fn encode_snap(&self, enc: &mut Encoder) {
        enc.put_u64(*self as u64);
    }
    fn decode_snap(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        usize::try_from(dec.get_u64()?).map_err(|_| CheckpointError::Corrupt {
            what: "usize value exceeds this platform's width".into(),
        })
    }
    fn snap_size_hint(&self) -> usize {
        8
    }
}

impl Snap for bool {
    fn encode_snap(&self, enc: &mut Encoder) {
        enc.put_u8(u8::from(*self));
    }
    fn decode_snap(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        match dec.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CheckpointError::Corrupt {
                what: format!("invalid bool byte {b}"),
            }),
        }
    }
    fn snap_size_hint(&self) -> usize {
        1
    }
}

impl Snap for f64 {
    fn encode_snap(&self, enc: &mut Encoder) {
        enc.put_u64(self.to_bits());
    }
    fn decode_snap(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        Ok(f64::from_bits(dec.get_u64()?))
    }
    fn snap_size_hint(&self) -> usize {
        8
    }
}

impl Snap for String {
    fn encode_snap(&self, enc: &mut Encoder) {
        enc.put_u64(self.len() as u64);
        enc.put_bytes(self.as_bytes());
    }
    fn decode_snap(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        let len = decode_len(dec)?;
        let bytes = dec.get_bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CheckpointError::Corrupt {
            what: "string is not valid UTF-8".into(),
        })
    }
    fn snap_size_hint(&self) -> usize {
        8 + self.len()
    }
}

impl<T: Snap> Snap for Option<T> {
    fn encode_snap(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.encode_snap(enc);
            }
        }
    }
    fn decode_snap(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        match dec.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_snap(dec)?)),
            b => Err(CheckpointError::Corrupt {
                what: format!("invalid Option tag {b}"),
            }),
        }
    }
    fn snap_size_hint(&self) -> usize {
        1 + self.as_ref().map_or(0, Snap::snap_size_hint)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn encode_snap(&self, enc: &mut Encoder) {
        self.0.encode_snap(enc);
        self.1.encode_snap(enc);
    }
    fn decode_snap(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        Ok((A::decode_snap(dec)?, B::decode_snap(dec)?))
    }
    fn snap_size_hint(&self) -> usize {
        self.0.snap_size_hint() + self.1.snap_size_hint()
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn encode_snap(&self, enc: &mut Encoder) {
        enc.put_u64(self.len() as u64);
        for v in self {
            v.encode_snap(enc);
        }
    }
    fn decode_snap(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        let len = decode_len(dec)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode_snap(dec)?);
        }
        Ok(out)
    }
    fn snap_size_hint(&self) -> usize {
        8 + self.iter().map(Snap::snap_size_hint).sum::<usize>()
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn encode_snap(&self, enc: &mut Encoder) {
        enc.put_u64(self.len() as u64);
        for v in self {
            v.encode_snap(enc);
        }
    }
    fn decode_snap(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        let len = decode_len(dec)?;
        let mut out = VecDeque::with_capacity(len);
        for _ in 0..len {
            out.push_back(T::decode_snap(dec)?);
        }
        Ok(out)
    }
    fn snap_size_hint(&self) -> usize {
        8 + self.iter().map(Snap::snap_size_hint).sum::<usize>()
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn encode_snap(&self, enc: &mut Encoder) {
        for v in self {
            v.encode_snap(enc);
        }
    }
    fn decode_snap(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decode_snap(dec)?);
        }
        match <[T; N]>::try_from(out) {
            Ok(a) => Ok(a),
            Err(_) => unreachable!("vector was built with exactly N elements"),
        }
    }
    fn snap_size_hint(&self) -> usize {
        self.iter().map(Snap::snap_size_hint).sum()
    }
}

/// Reads a container length, rejecting values that could not possibly fit in
/// the remaining bytes (every element encodes to at least one byte) so a
/// corrupted length cannot trigger a huge allocation.
fn decode_len(dec: &mut Decoder<'_>) -> Result<usize, CheckpointError> {
    let len = dec.get_u64()?;
    if len > dec.remaining() as u64 {
        return Err(CheckpointError::Truncated);
    }
    Ok(len as usize)
}

impl<T: Snap> Snap for Box<T> {
    fn encode_snap(&self, enc: &mut Encoder) {
        (**self).encode_snap(enc);
    }
    fn decode_snap(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        Ok(Box::new(T::decode_snap(dec)?))
    }
    fn snap_size_hint(&self) -> usize {
        (**self).snap_size_hint()
    }
}

/// Bytes ahead of the payload in a [`frame`]: `magic(8) | version(4) |
/// payload_len(8) | payload_fingerprint(8)`.
pub const FRAME_HEADER_BYTES: usize = 28;

/// Wraps `payload` in the workspace's one frame:
///
/// ```text
/// magic(8) | version(4) | payload_len(8) | payload_fingerprint(8) | payload
/// ```
///
/// Integers are little-endian and the fingerprint is [`Fnv1a::hash`] of the
/// payload. Checkpoint files ([`Checkpoint::to_bytes`]), run-result records
/// and the service's wire messages all write through here, each under its
/// own magic and version; [`unframe`] is the matching reader.
pub fn frame(magic: [u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&Fnv1a::hash(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Checks the header of a [`frame`] written under `magic` and `version` and
/// returns its payload length: the one parse of the header layout, shared by
/// [`unframe`] and by stream readers that must size a buffer from the
/// [`FRAME_HEADER_BYTES`] they have read so far.
///
/// The checks run in field order — the magic, the version (an older layout
/// is rejected, never misread), the payload length against `usize` (so a
/// wrapped length cannot mis-slice on 32-bit targets) — and a `header`
/// shorter than [`FRAME_HEADER_BYTES`] is [`CheckpointError::Truncated`].
///
/// # Errors
///
/// Returns a [`CheckpointError`] describing the first failed check.
pub fn frame_payload_len(
    magic: [u8; 8],
    version: u32,
    header: &[u8],
) -> Result<usize, CheckpointError> {
    let mut dec = Decoder::new(header);
    if dec.get_bytes(8)? != magic {
        return Err(CheckpointError::BadMagic);
    }
    let found = dec.get_u32()?;
    if found != version {
        return Err(CheckpointError::UnsupportedVersion { found });
    }
    let payload_len = dec.get_u64()?;
    let payload_len = payload_len
        .try_into()
        .map_err(|_| CheckpointError::Corrupt {
            what: format!("payload length {payload_len} exceeds this platform's usize"),
        })?;
    // The fingerprint closes the header; `unframe` checks it.
    dec.get_u64()?;
    Ok(payload_len)
}

/// Validates a [`frame`] written under `magic` and `version`, returning its
/// payload and the payload's fingerprint.
///
/// Any single corruption fails at least one check: the header
/// ([`frame_payload_len`]); the payload length against the bytes actually
/// present, before anything is sized from it — short is
/// [`CheckpointError::Truncated`], trailing bytes are
/// [`CheckpointError::Corrupt`]; and the fingerprint over the payload.
///
/// # Errors
///
/// Returns a [`CheckpointError`] describing the first failed check.
pub fn unframe(
    magic: [u8; 8],
    version: u32,
    bytes: &[u8],
) -> Result<(&[u8], u64), CheckpointError> {
    let payload_len = frame_payload_len(magic, version, bytes)?;
    let mut dec = Decoder::new(&bytes[FRAME_HEADER_BYTES - 8..]);
    let stored = dec.get_u64()?;
    let payload = dec.get_bytes(payload_len)?;
    dec.finish()?;
    let actual = Fnv1a::hash(payload);
    if actual != stored {
        return Err(CheckpointError::FingerprintMismatch { stored, actual });
    }
    Ok((payload, stored))
}

/// One serialized machine state: an opaque payload plus its content
/// fingerprint.
///
/// Produced by [`Machine::snapshot`](crate::machine::Machine::snapshot) and
/// consumed by [`Machine::restore`](crate::machine::Machine::restore).
/// The framed byte form ([`Checkpoint::to_bytes`]) is safe to persist:
/// [`Checkpoint::from_bytes`] re-verifies magic, version, length and the
/// payload fingerprint, so a truncated or bit-flipped file — in header or
/// payload — is detected instead of silently restoring a wrong machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    payload: Vec<u8>,
    fingerprint: u64,
}

impl Checkpoint {
    /// Wraps an encoded payload, computing its fingerprint.
    pub fn from_payload(payload: Vec<u8>) -> Self {
        let fingerprint = Fnv1a::hash(&payload);
        Checkpoint {
            payload,
            fingerprint,
        }
    }

    /// The encoded machine state.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Content fingerprint of the payload (FNV-1a + splitmix finalizer).
    /// Two checkpoints have the same fingerprint exactly when their encoded
    /// state is byte-identical.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty (never true for a real machine).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Serializes to the spill [`frame`] under [`CHECKPOINT_MAGIC`] and
    /// [`CHECKPOINT_VERSION`].
    pub fn to_bytes(&self) -> Vec<u8> {
        frame(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &self.payload)
    }

    /// Parses a frame written by [`Checkpoint::to_bytes`], with every check
    /// of [`unframe`]. A frame of any other [`CHECKPOINT_VERSION`] is
    /// [`CheckpointError::UnsupportedVersion`].
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] describing the first failed check.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let (payload, fingerprint) = unframe(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, bytes)?;
        Ok(Checkpoint {
            payload: payload.to_vec(),
            fingerprint,
        })
    }
}

/// Test helpers shared by the modules that own a tagged encoding.
#[cfg(test)]
pub(crate) mod pins {
    use super::*;

    /// Byte length and [`Fnv1a::hash`] of `values` encoded back to back,
    /// after checking that the stream decodes back to `values`.
    pub(crate) fn encoding_pin<T: Snap + PartialEq + fmt::Debug>(values: &[T]) -> (usize, u64) {
        let mut enc = Encoder::new();
        values.iter().for_each(|v| v.encode_snap(&mut enc));
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        for v in values {
            assert_eq!(&T::decode_snap(&mut dec).expect("decode"), v);
        }
        dec.finish().expect("fully consumed");
        (bytes.len(), Fnv1a::hash(&bytes))
    }

    /// Asserts that `tag` (one past `T`'s largest, then zero padding)
    /// decodes to `Corrupt`, and an empty buffer to `Truncated`.
    pub(crate) fn assert_rejects_bad_tag<T: Snap + fmt::Debug>(tag: u8) {
        let name = std::any::type_name::<T>();
        let mut bytes = vec![tag];
        bytes.resize(65, 0);
        let corrupt = T::decode_snap(&mut Decoder::new(&bytes));
        assert!(
            matches!(corrupt, Err(CheckpointError::Corrupt { .. })),
            "{name}"
        );
        let empty = T::decode_snap(&mut Decoder::new(&[]));
        assert!(matches!(empty, Err(CheckpointError::Truncated)), "{name}");
    }
}

#[cfg(test)]
mod tests {
    use super::pins::{assert_rejects_bad_tag, encoding_pin};
    use super::*;
    use crate::check::InvariantKind;
    use crate::config::FaultKind;
    use crate::ids::{BlockAddr, CpuId, LockId, ThreadId};
    use crate::mem::{CoherenceProtocol, CoherenceState};
    use crate::ops::{AccessKind, BranchInfo, Op};
    use crate::proc::{OooConfig, ProcCore, ProcessorConfig};
    use crate::sched::{SchedEventKind, ThreadState};

    /// One value of every variant, encoded back to back per type; the table
    /// pins each stream's length and hash.
    #[test]
    fn tagged_and_newtype_encodings_are_pinned() {
        use AccessKind::*;
        use CoherenceProtocol::*;
        use CoherenceState::*;
        use InvariantKind::*;
        use SchedEventKind::*;
        use ThreadState::*;
        let pins = [
            encoding_pin(&[
                Coherence,
                Inclusion,
                TimeRegression,
                Conservation,
                Scheduling,
            ]),
            encoding_pin(&[Read, Write]),
            encoding_pin(&[
                Op::Compute {
                    instructions: 17,
                    code_block: BlockAddr(0x1234),
                },
                Op::Memory {
                    addr: BlockAddr(0xBEEF),
                    kind: Write,
                    dependent: true,
                },
                Op::Branch(BranchInfo {
                    pc: 0x40,
                    taken: true,
                }),
                Op::IndirectBranch {
                    pc: 0x41,
                    target: 0x99,
                },
                Op::Call { return_pc: 0x42 },
                Op::Return { return_pc: 0x42 },
                Op::Lock(LockId(3)),
                Op::Unlock(LockId(3)),
                Op::TxnEnd,
                Op::Io(5_000),
                Op::Yield,
            ]),
            encoding_pin(&[
                FaultKind::CoherenceState {
                    cpu: 1,
                    block: 0xFA11,
                    state: Exclusive,
                },
                FaultKind::SchedulerDoubleRun { cpu: 2 },
            ]),
            encoding_pin(&[
                ProcessorConfig::Simple,
                ProcessorConfig::OutOfOrder(OooConfig::with_rob_size(64)),
            ]),
            encoding_pin(&[Mosi, Mesi, Moesi, DirMosi, DirMesi, DirMoesi]),
            encoding_pin(&[Modified, Exclusive, Owned, Shared, Invalid]),
            encoding_pin(&[Ready, Running(CpuId(5)), Blocked(LockId(6)), Sleeping]),
            encoding_pin(&[Dispatch, Preempt, BlockLock(LockId(7)), Sleep, Wake, Yield]),
            encoding_pin(&[CpuId(0), CpuId(63)]),
            encoding_pin(&[ThreadId(1), ThreadId(u32::MAX)]),
            encoding_pin(&[LockId(0), LockId(9)]),
            encoding_pin(&[BlockAddr(0x40), BlockAddr(u64::MAX)]),
        ];
        let expected = [
            (5, 0xe383_6862_3001_02bb),  // InvariantKind
            (2, 0x5326_f9e0_796e_dfd6),  // AccessKind
            (70, 0x9819_dedc_64f2_ec97), // Op
            (19, 0x2fdc_00c6_3481_4d45), // FaultKind
            (22, 0xf270_8398_3286_d164), // ProcessorConfig
            (6, 0x7cf1_b7ac_2725_33bf),  // CoherenceProtocol
            (5, 0xe383_6862_3001_02bb),  // CoherenceState
            (12, 0x0145_de85_dfdb_0270), // ThreadState
            (10, 0xed56_e7d0_9341_4b3c), // SchedEventKind
            (8, 0x69d6_8ab4_c088_aa54),  // CpuId
            (8, 0x2343_69ff_e2d4_54a0),  // ThreadId
            (8, 0xeb5b_b8f6_4262_1ac4),  // LockId
            (16, 0xad16_9620_6c4e_ab80), // BlockAddr
        ];
        assert_eq!(pins, expected);
    }

    #[test]
    fn a_tag_past_the_largest_is_corrupt_and_an_empty_buffer_truncated() {
        let table: [(u8, fn(u8)); 12] = [
            (2, assert_rejects_bad_tag::<bool>),
            (2, assert_rejects_bad_tag::<Option<u64>>),
            (5, assert_rejects_bad_tag::<InvariantKind>),
            (2, assert_rejects_bad_tag::<AccessKind>),
            (11, assert_rejects_bad_tag::<Op>),
            (2, assert_rejects_bad_tag::<FaultKind>),
            (2, assert_rejects_bad_tag::<ProcessorConfig>),
            (2, assert_rejects_bad_tag::<ProcCore>),
            (6, assert_rejects_bad_tag::<CoherenceProtocol>),
            (5, assert_rejects_bad_tag::<CoherenceState>),
            (4, assert_rejects_bad_tag::<ThreadState>),
            (6, assert_rejects_bad_tag::<SchedEventKind>),
        ];
        for (tag, check) in table {
            check(tag);
        }
    }

    fn round_trip<T: Snap + PartialEq + fmt::Debug>(v: T) {
        let mut enc = Encoder::new();
        v.encode_snap(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = T::decode_snap(&mut dec).expect("decode");
        dec.finish().expect("fully consumed");
        assert_eq!(v, back);
    }

    #[test]
    fn primitive_round_trips() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(12345usize);
        round_trip(true);
        round_trip(false);
        round_trip(1.5f64);
        round_trip(-0.0f64);
        round_trip(String::from("oltp"));
        round_trip(String::new());
    }

    #[test]
    fn nan_round_trips_bit_exact() {
        let v = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut enc = Encoder::new();
        v.encode_snap(&mut enc);
        let bytes = enc.into_bytes();
        let back = f64::decode_snap(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(v.to_bits(), back.to_bits());
    }

    #[test]
    fn container_round_trips() {
        round_trip(Option::<u64>::None);
        round_trip(Some(42u64));
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u32>::new());
        round_trip(VecDeque::from([ThreadId(1), ThreadId(9)]));
        round_trip([1u64, 2, 3, 4]);
        round_trip((0..100u64).collect::<Vec<_>>());
    }

    #[test]
    fn truncated_stream_errors() {
        let mut enc = Encoder::new();
        0xAABB_CCDDu32.encode_snap(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes[..2]);
        assert_eq!(u32::decode_snap(&mut dec), Err(CheckpointError::Truncated));
    }

    #[test]
    fn huge_corrupt_length_is_rejected_without_allocating() {
        // Length claims u64::MAX elements but only a few bytes follow.
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX);
        enc.put_u64(1);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(
            Vec::<u64>::decode_snap(&mut dec),
            Err(CheckpointError::Truncated)
        );
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut enc = Encoder::new();
        1u8.encode_snap(&mut enc);
        2u8.encode_snap(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        u8::decode_snap(&mut dec).unwrap();
        assert!(matches!(dec.finish(), Err(CheckpointError::Corrupt { .. })));
    }

    #[test]
    fn checkpoint_frame_round_trips() {
        let ck = Checkpoint::from_payload(vec![1, 2, 3, 4, 5]);
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("valid frame");
        assert_eq!(ck, back);
        assert_eq!(back.len(), 5);
        assert!(!back.is_empty());
    }

    #[test]
    fn version_3_frame_is_pinned_byte_for_byte() {
        let expected: [u8; 33] = [
            b'M', b'T', b'V', b'A', b'R', b'C', b'K', b'P', // magic
            3, 0, 0, 0, // version
            5, 0, 0, 0, 0, 0, 0, 0, // payload_len
            11, 100, 68, 116, 247, 237, 237, 28, // payload_fingerprint
            1, 2, 3, 4, 5, // payload
        ];
        assert_eq!(
            Checkpoint::from_payload(vec![1, 2, 3, 4, 5]).to_bytes(),
            expected
        );
    }

    #[test]
    fn version_2_frame_is_unsupported() {
        // A sectioned header: magic, version 2, payload length and
        // fingerprint, an empty section table, then its checksum.
        let mut old = CHECKPOINT_MAGIC.to_vec();
        old.extend_from_slice(&2u32.to_le_bytes());
        old.extend_from_slice(&5u64.to_le_bytes());
        old.extend_from_slice(&Fnv1a::hash(&[1, 2, 3, 4, 5]).to_le_bytes());
        old.extend_from_slice(&0u32.to_le_bytes());
        old.extend_from_slice(&Fnv1a::hash(&old).to_le_bytes());
        old.extend_from_slice(&[1, 2, 3, 4, 5]);
        assert_eq!(
            Checkpoint::from_bytes(&old),
            Err(CheckpointError::UnsupportedVersion { found: 2 })
        );
    }

    #[test]
    fn fingerprint_is_content_addressed() {
        let a = Checkpoint::from_payload(vec![1, 2, 3]);
        let b = Checkpoint::from_payload(vec![1, 2, 3]);
        let c = Checkpoint::from_payload(vec![1, 2, 4]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn frame_rejects_bad_magic_version_truncation_and_corruption() {
        let ck = Checkpoint::from_payload((0u8..64).collect());
        let good = ck.to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(
            Checkpoint::from_bytes(&bad_magic),
            Err(CheckpointError::BadMagic)
        );

        let mut bad_version = good.clone();
        bad_version[8] = 0xEE;
        assert!(matches!(
            Checkpoint::from_bytes(&bad_version),
            Err(CheckpointError::UnsupportedVersion { .. })
        ));

        // An interrupted write: the file ends mid-payload.
        assert_eq!(
            Checkpoint::from_bytes(&good[..good.len() - 10]),
            Err(CheckpointError::Truncated)
        );

        // A flipped payload bit fails the fingerprint check.
        let mut corrupt = good.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert!(matches!(
            Checkpoint::from_bytes(&corrupt),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));

        // Trailing garbage after the payload is rejected too.
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            Checkpoint::from_bytes(&trailing),
            Err(CheckpointError::Corrupt { .. })
        ));

        assert!(Checkpoint::from_bytes(&good).is_ok());
    }

    #[test]
    fn error_display_is_informative() {
        assert!(CheckpointError::Truncated.to_string().contains("truncated"));
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
        let e = CheckpointError::FingerprintMismatch {
            stored: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("mismatch"));
    }
}
