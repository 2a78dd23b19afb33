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
//! * [`Checkpoint`] — an opaque container for one encoded
//!   [`Machine`](crate::machine::Machine): a payload plus a content
//!   fingerprint, with a framed byte format ([`Checkpoint::to_bytes`] /
//!   [`Checkpoint::from_bytes`]) whose magic, version, length and
//!   fingerprint are all validated on load. A truncated or corrupted file
//!   is rejected with a [`CheckpointError`] instead of yielding a broken
//!   machine.
//!
//! Determinism contract: restoring a checkpoint and continuing must be
//! bit-identical to never having snapshotted. Every RNG stream, LRU clock,
//! predictor table and event-queue entry is therefore part of the encoding.

use std::collections::VecDeque;
use std::fmt;

use crate::hash::Fnv1a;
use crate::ids::{BlockAddr, CpuId, LockId, ThreadId};

/// Magic bytes opening a framed checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"MTVARCKP";

/// Current encoding version. Bump when any [`Snap`] implementation changes
/// its wire format; old checkpoints are then rejected instead of misread.
///
/// Version history:
///
/// * **1** — monolithic frame: `magic | version | payload_len | fingerprint
///   | payload`.
/// * **2** — sectioned frame: the header additionally carries a section
///   table (kind, length and per-section fingerprint for every
///   [`Section`] of the payload) plus a checksum over the whole header.
///   The *payload* bytes are unchanged from version 1 — sections are
///   offsets into the same byte stream — so payload fingerprints (and
///   everything derived from them: store keys, run seeds, golden
///   statistics) carry over without re-blessing. Only the framed on-disk
///   form changed, which is why the version bump rejects old spill files
///   instead of misreading their headers.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Why a checkpoint could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The byte stream ended before the value was complete.
    Truncated,
    /// The framed header does not start with [`CHECKPOINT_MAGIC`].
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

    /// Creates an encoder that writes into `buf`, reusing its capacity.
    /// The buffer is cleared first — this is the recycle-a-scratch-buffer
    /// constructor (`into_bytes` hands the buffer back), used by streaming
    /// writers that encode one frame after another into the same
    /// allocation.
    pub fn from_vec(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Encoder { buf }
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

    /// Upper estimate of this value's encoded size in bytes, used to seed
    /// encoder capacity so snapshot encoding never regrows its buffer
    /// mid-encode (gated by the alloc-budget suite). Estimates must err
    /// high, never low; the default generously covers small fixed-size
    /// values (hand-written enum encodings), and containers sum their
    /// elements. [`impl_snap!`](crate::impl_snap) derives it as the sum of
    /// the field hints.
    fn snap_size_hint(&self) -> usize {
        64
    }
}

/// Implements [`Snap`] for a struct with named fields by encoding the listed
/// fields in order. Usable from dependent crates for their own state types
/// (the workload crates use it for generator state).
#[macro_export]
macro_rules! impl_snap {
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

impl Snap for CpuId {
    fn encode_snap(&self, enc: &mut Encoder) {
        enc.put_u32(self.0);
    }
    fn decode_snap(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        Ok(CpuId(dec.get_u32()?))
    }
    fn snap_size_hint(&self) -> usize {
        4
    }
}

impl Snap for ThreadId {
    fn encode_snap(&self, enc: &mut Encoder) {
        enc.put_u32(self.0);
    }
    fn decode_snap(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        Ok(ThreadId(dec.get_u32()?))
    }
    fn snap_size_hint(&self) -> usize {
        4
    }
}

impl Snap for LockId {
    fn encode_snap(&self, enc: &mut Encoder) {
        enc.put_u32(self.0);
    }
    fn decode_snap(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        Ok(LockId(dec.get_u32()?))
    }
    fn snap_size_hint(&self) -> usize {
        4
    }
}

impl Snap for BlockAddr {
    fn encode_snap(&self, enc: &mut Encoder) {
        enc.put_u64(self.0);
    }
    fn decode_snap(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        Ok(BlockAddr(dec.get_u64()?))
    }
    fn snap_size_hint(&self) -> usize {
        8
    }
}

/// Identifies one section of a sectioned checkpoint payload. The order of
/// sections in a machine snapshot is fixed (see
/// [`Machine::snapshot`](crate::machine::Machine::snapshot)): `Meta`,
/// `Cpus`, `MemHeader`, one `MemNode` per node, `MemShared`, `Sched`,
/// `Workload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SectionKind {
    /// Machine config, clock, sequence counter and the sorted event queue.
    Meta,
    /// All processor cores (pipelines, predictors, per-CPU accounting).
    Cpus,
    /// Memory-system configuration and the node count.
    MemHeader,
    /// One node's cache stack (L1I, L1D, L2) — the payload's dominant
    /// sections, and the unit of copy-on-write sharing between forks.
    MemNode(u32),
    /// Memory-system tail: bus/occupancy timing, perturbation RNG, stats.
    MemShared,
    /// Scheduler, lock table, noise model and invariant monitor.
    Sched,
    /// Workload generators and commit accounting.
    Workload,
}

impl SectionKind {
    fn wire(self) -> (u8, u32) {
        match self {
            SectionKind::Meta => (0, 0),
            SectionKind::Cpus => (1, 0),
            SectionKind::MemHeader => (2, 0),
            SectionKind::MemNode(i) => (3, i),
            SectionKind::MemShared => (4, 0),
            SectionKind::Sched => (5, 0),
            SectionKind::Workload => (6, 0),
        }
    }

    fn from_wire(tag: u8, index: u32) -> Result<Self, CheckpointError> {
        let kind = match (tag, index) {
            (0, 0) => SectionKind::Meta,
            (1, 0) => SectionKind::Cpus,
            (2, 0) => SectionKind::MemHeader,
            (3, i) => SectionKind::MemNode(i),
            (4, 0) => SectionKind::MemShared,
            (5, 0) => SectionKind::Sched,
            (6, 0) => SectionKind::Workload,
            _ => {
                return Err(CheckpointError::Corrupt {
                    what: format!("section kind tag {tag}/{index}"),
                })
            }
        };
        Ok(kind)
    }
}

impl fmt::Display for SectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SectionKind::Meta => write!(f, "Meta"),
            SectionKind::Cpus => write!(f, "Cpus"),
            SectionKind::MemHeader => write!(f, "MemHeader"),
            SectionKind::MemNode(i) => write!(f, "MemNode({i})"),
            SectionKind::MemShared => write!(f, "MemShared"),
            SectionKind::Sched => write!(f, "Sched"),
            SectionKind::Workload => write!(f, "Workload"),
        }
    }
}

/// One contiguous, individually fingerprinted range of a checkpoint payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section {
    /// What machine state the range holds.
    pub kind: SectionKind,
    /// Byte offset of the section's first byte within the payload.
    pub start: usize,
    /// Section length in bytes.
    pub len: usize,
    /// Content fingerprint of exactly this range (same construction as the
    /// whole-payload fingerprint).
    pub fingerprint: u64,
}

/// Wire size of one section-table entry in the framed format:
/// `tag(1) | index(4) | len(8) | fingerprint(8)`.
const SECTION_ENTRY_BYTES: usize = 21;

/// Sanity cap on the section count a frame may declare: `Meta` + `Cpus` +
/// `MemHeader` + `MemShared` + `Sched` + `Workload` + one node per CPU.
/// No machine we build approaches 2^20 nodes, so anything larger is a
/// corrupt header, rejected before it can size an allocation.
const MAX_SECTIONS: usize = (1 << 20) + 8;

/// An [`Encoder`] that records section boundaries as it goes: callers mark
/// the start of each logical region with [`SectionEncoder::begin`], append
/// bytes through [`SectionEncoder::enc`], and [`SectionEncoder::finish`]
/// closes the table and fingerprints every section. The byte stream produced
/// is exactly what the same `encode_snap` calls would feed a bare
/// [`Encoder`] — marking boundaries adds table entries, never bytes — which
/// is what keeps sectioned payloads (and their fingerprints) identical to
/// the pre-section encoding.
#[derive(Debug)]
pub struct SectionEncoder {
    enc: Encoder,
    sections: Vec<Section>,
    open: Option<(SectionKind, usize)>,
}

impl SectionEncoder {
    /// Creates an encoder with `capacity` payload bytes and room for
    /// `sections` table entries pre-reserved (machine snapshots know both up
    /// front, keeping encode free of regrowth).
    pub fn with_capacity(capacity: usize, sections: usize) -> Self {
        SectionEncoder {
            enc: Encoder::with_capacity(capacity),
            sections: Vec::with_capacity(sections),
            open: None,
        }
    }

    /// Closes the current section (if any) and opens a new one of `kind` at
    /// the current byte offset.
    pub fn begin(&mut self, kind: SectionKind) {
        self.close_open();
        self.open = Some((kind, self.enc.len()));
    }

    /// The underlying byte encoder; everything appended lands in the
    /// section most recently opened with [`SectionEncoder::begin`].
    pub fn enc(&mut self) -> &mut Encoder {
        &mut self.enc
    }

    fn close_open(&mut self) {
        if let Some((kind, start)) = self.open.take() {
            self.sections.push(Section {
                kind,
                start,
                len: self.enc.len() - start,
                fingerprint: 0,
            });
        }
    }

    /// Closes the table, fingerprints every section and the whole payload,
    /// and returns the finished [`Checkpoint`].
    pub fn finish(mut self) -> Checkpoint {
        self.close_open();
        let payload = self.enc.into_bytes();
        // One traversal computes every fingerprint: each byte feeds its
        // section's chain and the whole payload's (`Fnv1a::update_both`).
        let mut whole = Fnv1a::new();
        let mut cursor = 0usize;
        for s in &mut self.sections {
            // Bytes between sections (none in practice: `begin` is called
            // before the first byte and sections abut) still feed the
            // whole-payload chain.
            whole.update(&payload[cursor..s.start]);
            let mut sec = Fnv1a::new();
            Fnv1a::update_both(&mut sec, &mut whole, &payload[s.start..s.start + s.len]);
            s.fingerprint = sec.finish();
            cursor = s.start + s.len;
        }
        whole.update(&payload[cursor..]);
        Checkpoint {
            payload,
            fingerprint: whole.finish(),
            sections: self.sections,
        }
    }
}

/// Sequential reader over a sectioned checkpoint: each
/// [`SectionReader::expect`] demands the next section be of a given kind and
/// hands back a [`Decoder`] scoped to exactly that section's bytes, so a
/// decode overrun in one component is caught at its own boundary (with the
/// section named) instead of silently consuming its neighbour's bytes.
#[derive(Debug)]
pub struct SectionReader<'a> {
    ck: &'a Checkpoint,
    next: usize,
}

impl<'a> SectionReader<'a> {
    /// Positions a reader at `ck`'s first section.
    pub fn new(ck: &'a Checkpoint) -> Self {
        SectionReader { ck, next: 0 }
    }

    /// Number of sections not yet consumed.
    pub fn remaining(&self) -> usize {
        self.ck.sections.len() - self.next
    }

    /// The kind of the next section, if any (for data-dependent layouts
    /// like the per-node memory sections).
    pub fn peek(&self) -> Option<SectionKind> {
        self.ck.sections.get(self.next).map(|s| s.kind)
    }

    /// Opens the next section, requiring it to be `kind`; returns a decoder
    /// over exactly its bytes. The caller must fully consume it (checked
    /// with [`Decoder::finish`]).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Corrupt`] when sections are exhausted or
    /// the next section is of a different kind.
    pub fn expect(&mut self, kind: SectionKind) -> Result<Decoder<'a>, CheckpointError> {
        let Some(s) = self.ck.sections.get(self.next) else {
            return Err(CheckpointError::Corrupt {
                what: format!("missing section {kind}"),
            });
        };
        if s.kind != kind {
            return Err(CheckpointError::Corrupt {
                what: format!("expected section {kind}, found {}", s.kind),
            });
        }
        self.next += 1;
        Ok(Decoder::new(&self.ck.payload[s.start..s.start + s.len]))
    }

    /// Asserts every section was consumed.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Corrupt`] if sections remain.
    pub fn finish(&self) -> Result<(), CheckpointError> {
        if self.remaining() != 0 {
            return Err(CheckpointError::Corrupt {
                what: format!("{} unread trailing section(s)", self.remaining()),
            });
        }
        Ok(())
    }
}

/// One serialized machine state: an opaque payload plus its content
/// fingerprint and (for machine snapshots) a table of [`Section`]s over the
/// payload.
///
/// Produced by [`Machine::snapshot`](crate::machine::Machine::snapshot) and
/// consumed by [`Machine::restore`](crate::machine::Machine::restore).
/// The framed byte form ([`Checkpoint::to_bytes`]) is safe to persist:
/// [`Checkpoint::from_bytes`] re-verifies magic, version, header checksum,
/// length, the whole-payload fingerprint and every per-section fingerprint,
/// so a truncated or bit-flipped file — in header or payload — is detected
/// instead of silently restoring a wrong machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    payload: Vec<u8>,
    fingerprint: u64,
    sections: Vec<Section>,
}

impl Checkpoint {
    /// Wraps an encoded payload, computing its fingerprint. The checkpoint
    /// carries no section table (callers that want one use
    /// [`SectionEncoder`]); decode falls back to one linear pass.
    pub fn from_payload(payload: Vec<u8>) -> Self {
        let fingerprint = Fnv1a::hash(&payload);
        Checkpoint {
            payload,
            fingerprint,
            sections: Vec::new(),
        }
    }

    /// The encoded machine state.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Content fingerprint of the payload (FNV-1a + splitmix finalizer).
    /// Two checkpoints have the same fingerprint exactly when their encoded
    /// state is byte-identical. Independent of the section table — a
    /// sectioned and an unsectioned checkpoint over the same bytes
    /// fingerprint identically.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The section table (empty for [`Checkpoint::from_payload`]
    /// checkpoints). Sections tile the payload exactly, in order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty (never true for a real machine).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Serializes to the framed byte format:
    ///
    /// ```text
    /// magic(8) | version(4) | payload_len(8) | payload_fingerprint(8)
    ///   | section_count(4) | section entries (21 bytes each)
    ///   | header_checksum(8) | payload
    /// ```
    ///
    /// The header checksum fingerprints every header byte before it, so a
    /// flipped bit in the section table (or the lengths) is caught on load
    /// without consulting the payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let header_len = 32 + self.sections.len() * SECTION_ENTRY_BYTES + 8;
        let mut out = Vec::with_capacity(header_len + self.payload.len());
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for s in &self.sections {
            let (tag, index) = s.kind.wire();
            out.push(tag);
            out.extend_from_slice(&index.to_le_bytes());
            out.extend_from_slice(&(s.len as u64).to_le_bytes());
            out.extend_from_slice(&s.fingerprint.to_le_bytes());
        }
        let header_checksum = Fnv1a::hash(&out);
        out.extend_from_slice(&header_checksum.to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses and validates the framed byte format.
    ///
    /// Validation is layered so any single corruption is caught by at least
    /// one check: magic and version first; the header checksum (covering
    /// lengths and the section table); the payload length against the bytes
    /// actually present (an interrupted write) and against `usize` (so a
    /// wrapped length cannot mis-slice on 32-bit targets); the
    /// whole-payload fingerprint; and finally every section's own
    /// fingerprint over its recorded range, which localizes payload damage
    /// to a named section.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] describing the first failed check.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut dec = Decoder::new(bytes);
        let magic = dec.get_bytes(8)?;
        if magic != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = dec.get_u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let payload_len = dec.get_u64()?;
        // Reject lengths that do not fit in this platform's usize *before*
        // any cast — `payload_len as usize` would silently truncate on
        // 32-bit targets and slice the wrong range.
        let payload_len: usize = payload_len
            .try_into()
            .map_err(|_| CheckpointError::Corrupt {
                what: format!("payload length {payload_len} exceeds this platform's usize"),
            })?;
        let stored = dec.get_u64()?;
        let section_count = dec.get_u32()? as usize;
        if section_count > MAX_SECTIONS {
            return Err(CheckpointError::Corrupt {
                what: format!("section count {section_count}"),
            });
        }
        let mut sections = Vec::with_capacity(section_count);
        let mut start = 0usize;
        for _ in 0..section_count {
            let tag = dec.get_u8()?;
            let index = dec.get_u32()?;
            let kind = SectionKind::from_wire(tag, index)?;
            let len: usize = dec
                .get_u64()?
                .try_into()
                .map_err(|_| CheckpointError::Corrupt {
                    what: format!("section {kind} length exceeds this platform's usize"),
                })?;
            let fingerprint = dec.get_u64()?;
            sections.push(Section {
                kind,
                start,
                len,
                fingerprint,
            });
            start = start
                .checked_add(len)
                .filter(|&end| end <= payload_len)
                .ok_or_else(|| CheckpointError::Corrupt {
                    what: format!("section {kind} overruns the payload"),
                })?;
        }
        if section_count > 0 && start != payload_len {
            return Err(CheckpointError::Corrupt {
                what: format!("section table covers {start} of {payload_len} payload byte(s)"),
            });
        }
        // The checksum fingerprints every header byte before itself, so a
        // corrupted length or table entry is caught here even when the
        // payload bytes are intact.
        let header_end = bytes.len() - dec.remaining();
        let header_checksum = dec.get_u64()?;
        let actual_checksum = Fnv1a::hash(&bytes[..header_end]);
        if header_checksum != actual_checksum {
            return Err(CheckpointError::Corrupt {
                what: "header checksum mismatch".into(),
            });
        }
        if payload_len > dec.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let payload = dec.get_bytes(payload_len)?.to_vec();
        dec.finish()?;
        let actual = Fnv1a::hash(&payload);
        if actual != stored {
            return Err(CheckpointError::FingerprintMismatch { stored, actual });
        }
        for s in &sections {
            let actual = Fnv1a::hash(&payload[s.start..s.start + s.len]);
            if actual != s.fingerprint {
                return Err(CheckpointError::Corrupt {
                    what: format!("section {} fingerprint mismatch", s.kind),
                });
            }
        }
        Ok(Checkpoint {
            payload,
            fingerprint: stored,
            sections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn id_round_trips() {
        round_trip(CpuId(7));
        round_trip(ThreadId(31));
        round_trip(LockId(0));
        round_trip(BlockAddr(u64::MAX));
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
    fn bad_tags_error() {
        let mut dec = Decoder::new(&[7]);
        assert!(matches!(
            bool::decode_snap(&mut dec),
            Err(CheckpointError::Corrupt { .. })
        ));
        let mut dec = Decoder::new(&[9, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(matches!(
            Option::<u64>::decode_snap(&mut dec),
            Err(CheckpointError::Corrupt { .. })
        ));
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
