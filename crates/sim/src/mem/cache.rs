//! Set-associative cache arrays with coherence state and LRU replacement.
//!
//! The paper's target system (§3.2.1) keeps caches coherent with a MOSI
//! invalidation-based snooping protocol; its simulator (§3.2.3) "supports a
//! broad range of coherence protocols", so the state space here covers the
//! MESI/MOSI/MOESI family. [`CoherenceState`] carries the per-block state
//! and [`CacheArray`] the tag/LRU bookkeeping shared by the L1 and L2 models.

use super::arena::{self, Recycled};
use super::cow::ChunkCow;
use crate::ids::BlockAddr;
use crate::SimError;

/// Coherence state of a cache block (MOESI state space; MOSI and MESI use
/// subsets of it, selected by
/// [`CoherenceProtocol`](crate::mem::CoherenceProtocol)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum CoherenceState {
    /// Invalid: no copy. Discriminant 0 so an all-zero `Line` is a default
    /// (empty) line and zeroed allocations are valid line arrays — see
    /// `arena::zeroed`. The discriminants are the state bits of a `Line`, so
    /// they must fit in `STATE_BITS`. The snapshot byte for each state is an explicit
    /// tag in the `impl_snap!` invocation below, independent of these
    /// discriminants, so checkpoint bytes do not depend on declaration
    /// order.
    #[default]
    Invalid = 0,
    /// Modified: the only copy, dirty, readable and writable.
    Modified = 1,
    /// Exclusive: the only copy, clean; a store upgrades to Modified without
    /// a bus transaction (MESI/MOESI only).
    Exclusive = 2,
    /// Owned: dirty, shared with other caches; this cache answers requests
    /// (MOSI/MOESI only).
    Owned = 3,
    /// Shared: clean read-only copy.
    Shared = 4,
}

impl CoherenceState {
    /// Whether a load can be satisfied from this state.
    #[inline]
    pub fn is_readable(self) -> bool {
        !matches!(self, CoherenceState::Invalid)
    }

    /// Whether a store can be satisfied from this state *without any
    /// transition* (Exclusive needs a silent upgrade, handled by the memory
    /// system).
    #[inline]
    pub fn is_writable(self) -> bool {
        matches!(self, CoherenceState::Modified)
    }

    /// Whether this cache supplies data on a snoop (it holds the definitive
    /// copy — dirty, or clean-exclusive).
    #[inline]
    pub fn is_owner(self) -> bool {
        matches!(
            self,
            CoherenceState::Modified | CoherenceState::Owned | CoherenceState::Exclusive
        )
    }

    /// Whether eviction of a block in this state requires a writeback.
    #[inline]
    pub fn is_dirty(self) -> bool {
        matches!(self, CoherenceState::Modified | CoherenceState::Owned)
    }
}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Ways per set (1 = direct-mapped).
    pub associativity: u32,
    /// Block size in bytes (the paper uses 64).
    pub block_bytes: u32,
}

impl CacheConfig {
    /// Creates a config, validating that the geometry is consistent.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any field is zero, the sizes
    /// are not powers of two, or the capacity is not divisible into at least
    /// one set.
    pub fn new(size_bytes: u64, associativity: u32, block_bytes: u32) -> Result<Self, SimError> {
        let cfg = CacheConfig {
            size_bytes,
            associativity,
            block_bytes,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks geometry consistency (see [`CacheConfig::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.size_bytes == 0 || self.associativity == 0 || self.block_bytes == 0 {
            return Err(SimError::InvalidConfig {
                what: "cache geometry fields must be nonzero".into(),
            });
        }
        if !self.size_bytes.is_power_of_two()
            || !self.block_bytes.is_power_of_two()
            || !self.associativity.is_power_of_two()
        {
            return Err(SimError::InvalidConfig {
                what: "cache size, block size and associativity must be powers of two".into(),
            });
        }
        let row = u64::from(self.associativity) * u64::from(self.block_bytes);
        if !self.size_bytes.is_multiple_of(row) || self.size_bytes / row == 0 {
            return Err(SimError::InvalidConfig {
                what: "cache size must be a positive multiple of associativity × block size".into(),
            });
        }
        Ok(())
    }

    /// Number of sets.
    #[inline]
    pub fn sets(&self) -> u64 {
        self.size_bytes / (u64::from(self.associativity) * u64::from(self.block_bytes))
    }

    /// Total number of blocks the cache can hold.
    #[inline]
    pub fn blocks(&self) -> u64 {
        self.size_bytes / u64::from(self.block_bytes)
    }
}

/// Low bits of [`Line`]'s `meta` word that hold the [`CoherenceState`].
const STATE_BITS: u32 = 3;
const STATE_MASK: u64 = (1 << STATE_BITS) - 1;

/// Every LRU stamp, and so every array's `use_clock`, is below this: the
/// stamp shares its word with the state and must not shift into it. Decode
/// rejects a stamp at or above it; a clock that reached it would take 2^61
/// accesses to one array.
const STAMP_BOUND: u64 = 1 << (64 - STATE_BITS);

/// One cache line's metadata, 16 bytes: the tag and one word `meta =
/// lru << 3 | state`, the monotonic last-use stamp (below `STAMP_BOUND`)
/// above the [`CoherenceState`] discriminant. An all-zero line is Invalid
/// with stamp 0, and a 4-way set is one 64-byte host cache line. Only the
/// accessors below read or write `meta`. Crate-visible so the decode arena
/// ([`super::arena`]) can pool retired line buffers by type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Line {
    tag: u64,
    meta: u64,
}

impl Line {
    #[inline]
    fn new(tag: u64, state: CoherenceState, lru: u64) -> Line {
        debug_assert!(lru < STAMP_BOUND, "LRU stamp {lru} out of range");
        Line {
            tag,
            meta: lru << STATE_BITS | state as u64,
        }
    }

    /// Whether the line holds a block (its state is not Invalid).
    #[inline]
    fn valid(&self) -> bool {
        self.meta & STATE_MASK != 0
    }

    #[inline]
    fn state(&self) -> CoherenceState {
        match self.meta & STATE_MASK {
            1 => CoherenceState::Modified,
            2 => CoherenceState::Exclusive,
            3 => CoherenceState::Owned,
            4 => CoherenceState::Shared,
            _ => CoherenceState::Invalid,
        }
    }

    #[inline]
    fn lru(&self) -> u64 {
        self.meta >> STATE_BITS
    }

    /// Sets the state and keeps the stamp (an invalidated line keeps its
    /// tag and stamp, which no lookup or victim choice reads).
    #[inline]
    fn set_state(&mut self, state: CoherenceState) {
        self.meta = self.meta & !STATE_MASK | state as u64;
    }

    #[inline]
    fn set_lru(&mut self, lru: u64) {
        debug_assert!(lru < STAMP_BOUND, "LRU stamp {lru} out of range");
        self.meta = lru << STATE_BITS | self.meta & STATE_MASK;
    }
}

/// Sets per copy-on-write chunk of a line array: a fork copies
/// `CHUNK_SETS × ways` lines (64 lines, 1 KiB, for the paper's 4-way L2)
/// the first time it writes any of them. Short runs write scattered sets,
/// so the bytes a fork copies grow with the chunk — a 25-transaction OLTP
/// run from a template warmed 1000 transactions copies 3.1 MB of the
/// 16-CPU machine's 17.8 MB of line arrays at 16 sets, 6.3 MB at 64 — while
/// below 16 the smaller copies stop paying for the larger map
/// (EXPERIMENTS.md, "Snapshot forks" and "Compact lines").
const CHUNK_SETS: usize = 16;

/// The snapshot decoder's list of `(index, line)` for every non-Invalid
/// line, in index order — a byproduct of its run-length walk that the
/// residency rebuild following every decode ([`CacheArray::for_each_resident`]
/// → snoop filter or directory) reads instead of the dense array, whose
/// resident lines lie scattered over megabytes: measured, the bitmap walk
/// alone made a 16-CPU template decode 15% slower. It describes the array as
/// decoded, so it is consulted only while the array is unwritten, is not
/// handed to clones, is dropped when the array is shared again, and never
/// takes part in equality. Boxed: most arrays have none, and every byte of
/// `CacheArray` sits beside the fields the access path reads — measured,
/// holding the seed inline made one kernel machine (`slashcode16-simple`,
/// workload seed 7) 30% slower per event.
#[derive(Debug, Default)]
struct DecodeSeed(Option<Box<Recycled<(u32, Line)>>>);

impl Clone for DecodeSeed {
    fn clone(&self) -> Self {
        DecodeSeed(None)
    }
}

impl PartialEq for DecodeSeed {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Words per copy-on-write chunk of a residency bitmap: 512 lines, one
/// 64-byte host cache line of bits. A fork copies that much of an array's
/// bitmap the first time a fill or an invalidation lands in it.
const BITMAP_CHUNK_WORDS: usize = 8;

/// A set-associative, LRU-replacement cache tag array carrying MOSI state.
///
/// Stores metadata only (tags and states); the simulator never models data
/// values, just their movement.
///
/// The line array is copy-on-write in chunks of 16 sets (`CHUNK_SETS`,
/// `mem::cow`): cloning a shared array (a decoded one, or one shared in
/// place by [`Machine::share`](crate::machine::Machine::share)) is a
/// pointer copy, even for a 65,536-line L2, and the clone then copies each
/// chunk the first time it writes a set in it — a fork costs what it
/// touches. An array that was
/// never shared (a fresh one, or a restore that nobody forked) is a plain
/// `Vec` behind one enum branch. Equality, snapshot bytes and residency
/// walks see the logical contents and are unaffected by sharing.
///
/// Beside the lines sits a residency bitmap, one bit per line, set iff the
/// line is not Invalid, copy-on-write the same way. Snapshot encode and
/// [`CacheArray::for_each_resident`] walk its set bits instead of scanning
/// every line of a megabyte-sized array.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheArray {
    config: CacheConfig,
    lines: ChunkCow<Line>,
    /// Bit `i` (word `i / 64`, bit `i % 64`) is set iff line `i` is not
    /// Invalid. Derived (never serialized; rebuilt on decode), maintained
    /// wherever `resident_count` is.
    resident: ChunkCow<u64>,
    seed: DecodeSeed,
    sets: u64,
    ways: usize,
    use_clock: u64,
    /// `sets - 1`; valid because the geometry forces `sets` to a power of
    /// two. Derived (never serialized): set/tag extraction sits on the
    /// hottest simulator path, and masking beats the hardware divide the
    /// modulo form compiles to.
    set_mask: u64,
    /// `log2(sets)`, the shift pairing with `set_mask`.
    set_shift: u32,
    /// Live count of non-Invalid lines, maintained by every state
    /// transition. Derived (never serialized; recomputed on decode) — it
    /// makes [`CacheArray::resident_blocks`], and therefore the snapshot
    /// capacity seed, O(1) instead of a dense scan of megabytes of line
    /// arrays per snapshot.
    resident_count: usize,
}

/// Result of inserting a block: what had to leave to make room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Address of the displaced block.
    pub addr: BlockAddr,
    /// State the victim held (dirty states imply a writeback).
    pub state: CoherenceState,
}

impl CacheArray {
    /// Allocates an empty (all-Invalid) cache with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the geometry is inconsistent.
    pub fn new(config: CacheConfig) -> Result<Self, SimError> {
        config.validate()?;
        let sets = config.sets();
        let ways = config.associativity as usize;
        Ok(CacheArray {
            config,
            lines: ChunkCow::owned(arena::zeroed((sets as usize) * ways), CHUNK_SETS * ways),
            resident: ChunkCow::owned(
                arena::zeroed((sets as usize * ways).div_ceil(64)),
                BITMAP_CHUNK_WORDS,
            ),
            seed: DecodeSeed::default(),
            sets,
            ways,
            use_clock: 0,
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            resident_count: 0,
        })
    }

    /// The geometry this array was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    #[inline]
    fn set_of(&self, addr: BlockAddr) -> usize {
        (addr.0 & self.set_mask) as usize
    }

    #[inline]
    fn tag_of(&self, addr: BlockAddr) -> u64 {
        addr.0 >> self.set_shift
    }

    #[inline]
    fn addr_of(&self, set: usize, tag: u64) -> BlockAddr {
        BlockAddr((tag << self.set_shift) | set as u64)
    }

    #[inline]
    fn set_slice_mut(&mut self, set: usize) -> &mut [Line] {
        self.lines
            .slice_mut(set / CHUNK_SETS, set % CHUNK_SETS * self.ways, self.ways)
    }

    #[inline]
    fn set_slice(&self, set: usize) -> &[Line] {
        self.lines
            .slice(set / CHUNK_SETS, set % CHUNK_SETS * self.ways, self.ways)
    }

    /// Records that way `way` of set `set` became resident (`true`) or
    /// Invalid (`false`): the residency bitmap and counter move together.
    #[inline]
    fn note_residency(&mut self, set: usize, way: usize, resident: bool) {
        let index = set * self.ways + way;
        let w = index / 64;
        let word = &mut self
            .resident
            .slice_mut(w / BITMAP_CHUNK_WORDS, w % BITMAP_CHUNK_WORDS, 1)[0];
        let bit = 1u64 << (index % 64);
        if resident {
            *word |= bit;
            self.resident_count += 1;
        } else {
            *word &= !bit;
            self.resident_count -= 1;
        }
    }

    /// Calls `f` with the index of every resident line in `[start, end)`,
    /// ascending: a walk over the bitmap's set bits, one word per 64 lines.
    #[inline]
    fn resident_in(&self, start: usize, end: usize, mut f: impl FnMut(usize)) {
        let mut w = start / 64;
        while w * 64 < end {
            let lo = w * 64;
            let mut word = self
                .resident
                .slice(w / BITMAP_CHUNK_WORDS, w % BITMAP_CHUNK_WORDS, 1)[0];
            if lo < start {
                word &= u64::MAX << (start - lo);
            }
            if end - lo < 64 {
                word &= (1u64 << (end - lo)) - 1;
            }
            while word != 0 {
                f(lo + word.trailing_zeros() as usize);
                word &= word - 1;
            }
            w += 1;
        }
    }

    /// Calls `f` with the index and contents of every resident line, in
    /// index order, reading each piece of the line array (one, or one per
    /// chunk of a forked array) against its stretch of the bitmap.
    #[inline]
    fn for_each_resident_line(&self, mut f: impl FnMut(usize, &Line)) {
        let mut base = 0usize;
        for piece in self.lines.pieces() {
            self.resident_in(base, base + piece.len(), |i| f(i, &piece[i - base]));
            base += piece.len();
        }
    }

    /// Turns the line array and the bitmap into shared arrays in place, so
    /// that clones made from here on share them ([`ChunkCow::share`]): a
    /// fork of the machine holding this array copies pointers, not lines.
    pub(crate) fn share(&mut self) {
        self.lines.share();
        self.resident.share();
        // An array shared again may have been written since its decode.
        self.seed = DecodeSeed::default();
    }

    /// Advances the use clock and returns it as the new LRU stamp, which
    /// must stay below `STAMP_BOUND` to leave the state bits alone.
    #[inline]
    fn next_stamp(&mut self) -> u64 {
        self.use_clock += 1;
        assert!(self.use_clock < STAMP_BOUND, "cache use clock overflow");
        self.use_clock
    }

    /// Returns the current state of `addr` without touching LRU (a snoop
    /// probe).
    pub fn probe(&self, addr: BlockAddr) -> CoherenceState {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        for line in self.set_slice(set) {
            if line.valid() && line.tag == tag {
                return line.state();
            }
        }
        CoherenceState::Invalid
    }

    /// Looks up `addr` for an access, updating LRU on hit. Returns the state.
    pub fn touch(&mut self, addr: BlockAddr) -> CoherenceState {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let clock = self.next_stamp();
        for line in self.set_slice_mut(set) {
            if line.valid() && line.tag == tag {
                line.set_lru(clock);
                return line.state();
            }
        }
        CoherenceState::Invalid
    }

    /// Sets the state of an already-resident block; returns `false` if the
    /// block is not resident.
    pub fn set_state(&mut self, addr: BlockAddr, state: CoherenceState) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let mut found = None;
        for (way, line) in self.set_slice_mut(set).iter_mut().enumerate() {
            if line.valid() && line.tag == tag {
                line.set_state(state);
                found = Some(way);
                break;
            }
        }
        let Some(way) = found else {
            return false;
        };
        if state == CoherenceState::Invalid {
            self.note_residency(set, way, false);
        }
        true
    }

    /// Inserts `addr` with `state`, evicting the LRU victim if the set is
    /// full. Returns the eviction, if any.
    ///
    /// If the block is already resident its state and LRU are updated in
    /// place (no eviction).
    ///
    /// # Panics
    ///
    /// Panics if `state` is [`CoherenceState::Invalid`] — insert valid blocks only.
    pub fn insert(&mut self, addr: BlockAddr, state: CoherenceState) -> Option<Eviction> {
        assert!(
            state != CoherenceState::Invalid,
            "inserting an Invalid block is meaningless"
        );
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let new = Line::new(tag, state, self.next_stamp());
        let slice = self.set_slice_mut(set);
        // Already resident?
        if let Some(line) = slice.iter_mut().find(|l| l.valid() && l.tag == tag) {
            *line = new;
            return None;
        }
        // Free way?
        if let Some(way) = slice.iter().position(|l| !l.valid()) {
            slice[way] = new;
            self.note_residency(set, way, true);
            return None;
        }
        // Evict LRU.
        let victim = slice
            .iter_mut()
            .min_by_key(|l| l.lru())
            .expect("associativity >= 1");
        let old = std::mem::replace(victim, new);
        Some(Eviction {
            addr: self.addr_of(set, old.tag),
            state: old.state(),
        })
    }

    /// Invalidates `addr` if resident; returns the state it held.
    pub fn invalidate(&mut self, addr: BlockAddr) -> CoherenceState {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let mut found = None;
        for (way, line) in self.set_slice_mut(set).iter_mut().enumerate() {
            if line.valid() && line.tag == tag {
                found = Some((way, line.state()));
                line.set_state(CoherenceState::Invalid);
                break;
            }
        }
        let Some((way, old)) = found else {
            return CoherenceState::Invalid;
        };
        self.note_residency(set, way, false);
        old
    }

    /// Number of resident (non-Invalid) blocks — for stats and the snapshot
    /// capacity seed. O(1): a live counter, checked against the bitmap and
    /// the line array in debug builds.
    pub fn resident_blocks(&self) -> usize {
        debug_assert_eq!(
            self.resident_count,
            self.resident
                .pieces()
                .flatten()
                .map(|w| w.count_ones() as usize)
                .sum(),
            "resident counter drifted from the bitmap"
        );
        debug_assert_eq!(
            self.resident_count,
            self.lines.pieces().flatten().filter(|l| l.valid()).count(),
            "resident counter drifted from the line array"
        );
        self.resident_count
    }

    /// Calls `f` with the address and state of every resident block, in line
    /// index order. Used to rebuild residency summaries (the snoop filter)
    /// after a checkpoint restore, where only the cache contents are
    /// serialized. Reads the decoder's seed while the array is as decoded,
    /// and walks the residency bitmap otherwise, so Invalid lines cost
    /// nothing either way.
    pub fn for_each_resident(&self, mut f: impl FnMut(BlockAddr, CoherenceState)) {
        if let (Some(list), true) = (&self.seed.0, self.lines.is_unwritten()) {
            for &(i, line) in list.0.iter() {
                f(self.addr_of(i as usize / self.ways, line.tag), line.state());
            }
            return;
        }
        self.for_each_resident_line(|i, line| {
            f(self.addr_of(i / self.ways, line.tag), line.state());
        });
    }
}

crate::impl_snap!(enum CoherenceState {
    0 => Modified,
    1 => Exclusive,
    2 => Owned,
    3 => Shared,
    4 => Invalid,
});
crate::impl_snap!(CacheConfig {
    size_bytes,
    associativity,
    block_bytes,
});

/// Run-length tag byte marking a run of Invalid lines in a [`CacheArray`]
/// encoding; the [`CoherenceState`] tags occupy 0–4.
const SNAP_INVALID_RUN: u8 = 5;

/// Hand-written [`Snap`](crate::checkpoint::Snap) for [`CacheArray`]: the
/// line array dominates whole-machine checkpoints (a 4 MB L2 is 65,536
/// lines), and most lines in a warmed machine are Invalid. Invalid lines are
/// encoded as run-lengths and **canonicalized** — their residual `tag`/`lru`
/// values are never consulted by any lookup or victim choice (every path
/// skips Invalid lines, and eviction only runs when no Invalid way exists) —
/// so a restored array is behaviourally identical and re-encodes to the same
/// bytes, while a fully Invalid L2 costs 6 bytes instead of a megabyte.
impl crate::checkpoint::Snap for CacheArray {
    fn encode_snap(&self, enc: &mut crate::checkpoint::Encoder) {
        self.config.encode_snap(enc);
        enc.put_u64(self.lines.len() as u64);
        // The gaps between consecutive resident lines (and after the last)
        // are the Invalid runs; they may span the pieces of a forked array,
        // so the bytes are those of the flat array.
        let put_run = |enc: &mut crate::checkpoint::Encoder, run: usize| {
            if run > 0 {
                enc.put_u8(SNAP_INVALID_RUN);
                enc.put_u64(run as u64);
            }
        };
        let mut next = 0usize;
        self.for_each_resident_line(|i, line| {
            put_run(enc, i - next);
            line.state().encode_snap(enc);
            enc.put_u64(line.tag);
            enc.put_u64(line.lru());
            next = i + 1;
        });
        put_run(enc, self.lines.len() - next);
        self.sets.encode_snap(enc);
        self.ways.encode_snap(enc);
        self.use_clock.encode_snap(enc);
    }

    fn decode_snap(
        dec: &mut crate::checkpoint::Decoder<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::{CheckpointError, Decoder, Snap};
        let config = CacheConfig::decode_snap(dec)?;
        let len = dec.get_u64()? as usize;
        // Largest plausible array: a 16 GB cache of 64-byte lines. Anything
        // bigger is a corrupt length, not a machine we ever built — and
        // rejecting it here keeps a flipped bit from requesting a huge
        // allocation before the fingerprint check would catch it.
        if len > 1 << 28 {
            return Err(CheckpointError::Corrupt {
                what: "CacheArray line count".into(),
            });
        }
        // The dense array and the residency bitmap come zero-filled from the
        // decode arena (`arena::zeroed`: a recycled buffer is refilled, a
        // fresh one is lazily zeroed), so invalid runs just
        // advance the cursor. Each resident line is written in place, its
        // bit set in the residency bitmap, and recorded in the resident
        // seed, which powers the residency rebuild that follows
        // (`for_each_resident`).
        let mut dense: Vec<Line> = arena::zeroed(len);
        let mut bits: Vec<u64> = arena::zeroed(len.div_ceil(64));
        let mut resident = arena::take_largest();
        let mut filled = 0usize;
        while filled < len {
            match dec.get_u8()? {
                SNAP_INVALID_RUN => {
                    let run = dec.get_u64()? as usize;
                    if run == 0 || run > len - filled {
                        return Err(CheckpointError::Corrupt {
                            what: "CacheArray invalid-run length".into(),
                        });
                    }
                    filled += run;
                }
                tag_byte => {
                    // A resident line's tag is its state's own tag; Invalid
                    // lines only ever appear inside runs.
                    let state = match CoherenceState::decode_snap(&mut Decoder::new(&[tag_byte])) {
                        Ok(state) if state != CoherenceState::Invalid => state,
                        _ => {
                            return Err(CheckpointError::Corrupt {
                                what: "CacheArray line tag".into(),
                            })
                        }
                    };
                    let tag = dec.get_u64()?;
                    let lru = dec.get_u64()?;
                    if lru >= STAMP_BOUND {
                        return Err(CheckpointError::Corrupt {
                            what: "CacheArray line LRU stamp".into(),
                        });
                    }
                    let line = Line::new(tag, state, lru);
                    dense[filled] = line;
                    bits[filled / 64] |= 1u64 << (filled % 64);
                    // `len` is capped at 1 << 28 above, so indices fit u32.
                    resident.push((filled as u32, line));
                    filled += 1;
                }
            }
        }
        let sets: u64 = Snap::decode_snap(dec)?;
        let ways = Snap::decode_snap(dec)?;
        let use_clock: u64 = Snap::decode_snap(dec)?;
        if use_clock >= STAMP_BOUND {
            return Err(CheckpointError::Corrupt {
                what: "CacheArray use clock".into(),
            });
        }
        // The chunk map and the set mask are derived from these: they must
        // describe the array that was just read.
        if !sets.is_power_of_two() || ways == 0 || (sets as usize).checked_mul(ways) != Some(len) {
            return Err(CheckpointError::Corrupt {
                what: "CacheArray geometry does not match its line count".into(),
            });
        }
        // A decoded array is a fork template: clones share it.
        let mut array = CacheArray {
            config,
            lines: ChunkCow::owned(dense, CHUNK_SETS * ways),
            resident: ChunkCow::owned(bits, BITMAP_CHUNK_WORDS),
            seed: DecodeSeed::default(),
            sets,
            ways,
            use_clock,
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            resident_count: resident.len(),
        };
        array.share();
        array.seed = DecodeSeed(Some(Box::new(Recycled(resident))));
        Ok(array)
    }

    fn snap_size_hint(&self) -> usize {
        // Each resident line costs 17 bytes (tag byte + tag + lru); each
        // invalid run costs 9 (marker + u64), and resident lines can split
        // the array into at most `resident + 1` runs. The tail is the line
        // count plus sets/ways/use_clock.
        let resident = self.resident_blocks();
        self.config.snap_size_hint() + 8 + resident * 17 + (resident + 1) * 9 + 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheArray {
        // 4 sets x 2 ways x 64B blocks = 512 B.
        CacheArray::new(CacheConfig::new(512, 2, 64).unwrap()).unwrap()
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig::new(4 * 1024 * 1024, 4, 64).unwrap();
        assert_eq!(c.sets(), 16384);
        assert_eq!(c.blocks(), 65536);
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig::new(0, 1, 64).is_err());
        assert!(CacheConfig::new(512, 0, 64).is_err());
        assert!(CacheConfig::new(500, 2, 64).is_err()); // not a power of two
        assert!(CacheConfig::new(64, 2, 64).is_err()); // zero sets
        assert!(CacheConfig::new(512, 3, 64).is_err()); // non-pow2 assoc
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let a = BlockAddr(12);
        assert_eq!(c.touch(a), CoherenceState::Invalid);
        assert!(c.insert(a, CoherenceState::Shared).is_none());
        assert_eq!(c.touch(a), CoherenceState::Shared);
        assert_eq!(c.probe(a), CoherenceState::Shared);
    }

    #[test]
    fn conflicting_tags_map_to_same_set() {
        let mut c = small();
        // 4 sets: addresses 1, 5, 9 share set 1.
        assert!(c.insert(BlockAddr(1), CoherenceState::Shared).is_none());
        assert!(c.insert(BlockAddr(5), CoherenceState::Shared).is_none());
        // Third conflicting block evicts the LRU (addr 1).
        let ev = c.insert(BlockAddr(9), CoherenceState::Shared).unwrap();
        assert_eq!(ev.addr, BlockAddr(1));
        assert_eq!(ev.state, CoherenceState::Shared);
        assert_eq!(c.probe(BlockAddr(1)), CoherenceState::Invalid);
        assert_eq!(c.probe(BlockAddr(5)), CoherenceState::Shared);
    }

    #[test]
    fn lru_respects_touch_order() {
        let mut c = small();
        c.insert(BlockAddr(1), CoherenceState::Shared);
        c.insert(BlockAddr(5), CoherenceState::Shared);
        // Touch 1 so 5 becomes LRU.
        c.touch(BlockAddr(1));
        let ev = c.insert(BlockAddr(9), CoherenceState::Shared).unwrap();
        assert_eq!(ev.addr, BlockAddr(5));
    }

    #[test]
    fn dirty_victim_reported() {
        let mut c = small();
        c.insert(BlockAddr(1), CoherenceState::Modified);
        c.insert(BlockAddr(5), CoherenceState::Shared);
        let ev = c.insert(BlockAddr(9), CoherenceState::Owned).unwrap();
        assert!(ev.state.is_dirty());
        assert_eq!(ev.addr, BlockAddr(1));
    }

    #[test]
    fn insert_existing_updates_state_without_eviction() {
        let mut c = small();
        c.insert(BlockAddr(1), CoherenceState::Shared);
        assert!(c.insert(BlockAddr(1), CoherenceState::Modified).is_none());
        assert_eq!(c.probe(BlockAddr(1)), CoherenceState::Modified);
        assert_eq!(c.resident_blocks(), 1);
    }

    #[test]
    fn invalidate_and_set_state() {
        let mut c = small();
        c.insert(BlockAddr(7), CoherenceState::Modified);
        assert!(c.set_state(BlockAddr(7), CoherenceState::Owned));
        assert_eq!(c.probe(BlockAddr(7)), CoherenceState::Owned);
        assert_eq!(c.invalidate(BlockAddr(7)), CoherenceState::Owned);
        assert_eq!(c.probe(BlockAddr(7)), CoherenceState::Invalid);
        assert!(!c.set_state(BlockAddr(7), CoherenceState::Shared));
        assert_eq!(c.invalidate(BlockAddr(7)), CoherenceState::Invalid);
    }

    #[test]
    fn mosi_state_predicates() {
        assert!(CoherenceState::Modified.is_readable() && CoherenceState::Modified.is_writable());
        assert!(CoherenceState::Owned.is_readable() && !CoherenceState::Owned.is_writable());
        assert!(CoherenceState::Shared.is_readable() && !CoherenceState::Shared.is_writable());
        assert!(!CoherenceState::Invalid.is_readable());
        assert!(CoherenceState::Owned.is_owner() && CoherenceState::Modified.is_owner());
        assert!(!CoherenceState::Shared.is_owner());
        assert!(CoherenceState::Owned.is_dirty() && !CoherenceState::Shared.is_dirty());
    }

    /// Length of the Invalid-line run starting at `lines[0]`, eight lines
    /// per step: the dense scan the encoder used before the residency
    /// bitmap, kept as the reference its bytes are checked against.
    fn invalid_run_len(lines: &[Line]) -> usize {
        let mut n = 0usize;
        let mut chunks = lines.chunks_exact(8);
        for chunk in &mut chunks {
            let mut occ = 0u32;
            for (j, line) in chunk.iter().enumerate() {
                occ |= u32::from(line.valid()) << j;
            }
            if occ != 0 {
                return n + occ.trailing_zeros() as usize;
            }
            n += 8;
        }
        for line in chunks.remainder() {
            if line.valid() {
                return n;
            }
            n += 1;
        }
        n
    }

    /// The array's encoding by the dense invalid-run scan (the reference).
    fn scanned_bytes(c: &CacheArray) -> Vec<u8> {
        use crate::checkpoint::{Encoder, Snap};
        let mut enc = Encoder::new();
        c.config.encode_snap(&mut enc);
        enc.put_u64(c.lines.len() as u64);
        let mut run = 0u64;
        let flush = |enc: &mut Encoder, run: &mut u64| {
            if *run > 0 {
                enc.put_u8(SNAP_INVALID_RUN);
                enc.put_u64(*run);
                *run = 0;
            }
        };
        for piece in c.lines.pieces() {
            let mut i = 0usize;
            loop {
                let skip = invalid_run_len(&piece[i..]);
                run += skip as u64;
                i += skip;
                let Some(line) = piece.get(i) else { break };
                flush(&mut enc, &mut run);
                line.state().encode_snap(&mut enc);
                enc.put_u64(line.tag);
                enc.put_u64(line.lru());
                i += 1;
            }
        }
        flush(&mut enc, &mut run);
        c.sets.encode_snap(&mut enc);
        c.ways.encode_snap(&mut enc);
        c.use_clock.encode_snap(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn invalid_run_len_matches_naive_scan() {
        // Exercise runs that end inside a chunk, at chunk boundaries, and in
        // the sub-chunk remainder, against a line-at-a-time reference.
        for total in [0usize, 1, 7, 8, 9, 16, 23, 64] {
            for first_valid in 0..=total {
                let mut lines = vec![Line::default(); total];
                if first_valid < total {
                    lines[first_valid].set_state(CoherenceState::Shared);
                }
                let naive = lines
                    .iter()
                    .take_while(|l| l.state() == CoherenceState::Invalid)
                    .count();
                assert_eq!(
                    invalid_run_len(&lines),
                    naive,
                    "total={total} first_valid={first_valid}"
                );
            }
        }
    }

    #[test]
    fn zeroed_lines_are_default_lines() {
        // Pins the layout contract behind the arena's lazily zeroed line
        // arrays: all-zero bytes must be a valid default line, Invalid with
        // tag 0 and stamp 0. If `CoherenceState` ever loses `Invalid = 0` or
        // `Line` gains a non-zero-default field, this fails before any cache
        // misbehaves.
        for n in [0usize, 1, 7, 64] {
            let lines = <Line as arena::Pooled>::fresh_zeroed(n);
            assert_eq!(lines.len(), n);
            assert!(lines.iter().all(|l| *l == Line::default()));
            assert!(lines.iter().all(|l| !l.valid()
                && l.state() == CoherenceState::Invalid
                && l.lru() == 0
                && l.tag == 0));
        }
        // A pool hit is dirty: `arena::zeroed` must refill it. (A private
        // arena: other tests' machines draw from the process's one.)
        let private = arena::DecodeArena::new();
        private.give(vec![Line::new(7, CoherenceState::Modified, 9); 64]);
        let hits = arena::stats().hits;
        let refilled: Vec<Line> = private.zeroed(40);
        assert_eq!(arena::stats().hits, hits + 1);
        assert_eq!(refilled, vec![Line::default(); 40]);
        assert_eq!(CoherenceState::default() as u8, 0);
    }

    #[test]
    fn a_line_is_16_bytes_and_a_seed_entry_24() {
        // A 4-way set is one 64-byte host cache line.
        assert_eq!(size_of::<Line>(), 16);
        assert_eq!(size_of::<(u32, Line)>(), 24);
    }

    const ALL_STATES: [CoherenceState; 5] = [
        CoherenceState::Invalid,
        CoherenceState::Modified,
        CoherenceState::Exclusive,
        CoherenceState::Owned,
        CoherenceState::Shared,
    ];
    const STAMPS: [u64; 3] = [0, 1, STAMP_BOUND - 1];

    #[test]
    fn state_and_stamp_pack_without_touching_each_other() {
        for state in ALL_STATES {
            for lru in STAMPS {
                let mut line = Line::new(u64::MAX, state, lru);
                assert_eq!(
                    (line.tag, line.state(), line.lru(), line.valid()),
                    (u64::MAX, state, lru, state != CoherenceState::Invalid)
                );
                for other in STAMPS {
                    line.set_lru(other);
                    assert_eq!((line.state(), line.lru()), (state, other));
                }
                for other in ALL_STATES {
                    line.set_state(other);
                    assert_eq!((line.state(), line.lru()), (other, STAMP_BOUND - 1));
                }
            }
        }
    }

    /// An 8-set, 2-way array holding every state at every pinned stamp, one
    /// per line, and a use clock at the last stamp below the bound.
    fn every_state_at_every_stamp() -> CacheArray {
        let mut c = CacheArray::new(CacheConfig::new(1024, 2, 64).unwrap()).unwrap();
        let mut k = 0usize;
        for state in ALL_STATES {
            for lru in STAMPS {
                let (set, way) = (k / c.ways, k % c.ways);
                c.set_slice_mut(set)[way] = Line::new(100 + k as u64, state, lru);
                if state != CoherenceState::Invalid {
                    c.note_residency(set, way, true);
                }
                k += 1;
            }
        }
        c.use_clock = STAMP_BOUND - 1;
        c
    }

    #[test]
    fn every_state_and_stamp_round_trips_through_the_encoding() {
        use crate::checkpoint::{Decoder, Snap};
        let c = every_state_at_every_stamp();
        assert_bitmap_consistent(&c, "packed");
        let bytes = snap_bytes(&c);
        let back = CacheArray::decode_snap(&mut Decoder::new(&bytes)).unwrap();
        assert_bitmap_consistent(&back, "decoded");
        assert_eq!(snap_bytes(&back), bytes);
        assert_eq!(back.use_clock, STAMP_BOUND - 1);
        // Resident lines come back whole; Invalid ones canonicalized.
        let lines = |c: &CacheArray| -> Vec<Line> { c.lines.pieces().flatten().copied().collect() };
        for (was, got) in lines(&c).iter().zip(lines(&back)) {
            let want = if was.valid() { *was } else { Line::default() };
            assert_eq!(got, want);
        }
    }

    #[test]
    #[should_panic(expected = "cache use clock overflow")]
    fn the_use_clock_stops_at_the_bound() {
        let mut c = every_state_at_every_stamp();
        c.touch(BlockAddr(0));
    }

    fn snap_bytes(c: &CacheArray) -> Vec<u8> {
        use crate::checkpoint::{Encoder, Snap};
        let mut enc = Encoder::new();
        c.encode_snap(&mut enc);
        enc.into_bytes()
    }

    fn residents(c: &CacheArray) -> Vec<(BlockAddr, CoherenceState)> {
        let mut out = Vec::new();
        c.for_each_resident(|addr, state| out.push((addr, state)));
        out
    }

    #[test]
    fn forked_array_encodes_and_walks_like_a_flat_one() {
        use crate::checkpoint::{Decoder, Snap};
        // 64 sets x 2 ways: four copy-on-write chunks.
        let build = || CacheArray::new(CacheConfig::new(8192, 2, 64).unwrap()).unwrap();
        let warm = |c: &mut CacheArray| {
            for a in [3u64, 67, 20, 40, 63] {
                c.insert(BlockAddr(a), CoherenceState::Shared);
            }
            // Leave junk tag/lru bits on an Invalid line: invalidate keeps
            // them, a chunk copy carries them, the encoding never emits them.
            c.invalidate(BlockAddr(20));
        };
        let run = |c: &mut CacheArray| {
            c.insert(BlockAddr(131), CoherenceState::Modified); // set 3: evicts
            c.touch(BlockAddr(63)); // last chunk
            c.invalidate(BlockAddr(40)); // third chunk; second stays shared
        };
        let mut flat = build();
        warm(&mut flat);
        let template = CacheArray::decode_snap(&mut Decoder::new(&snap_bytes(&flat))).unwrap();
        let mut fork = template.clone();
        run(&mut fork);
        run(&mut flat);
        assert_eq!(snap_bytes(&fork), snap_bytes(&flat));
        assert_eq!(residents(&fork), residents(&flat));
        assert_eq!(fork.resident_blocks(), flat.resident_blocks());
        assert!(fork.clone() == fork && fork != template);
    }

    /// The residency walk by a dense line-at-a-time scan.
    fn scanned_residents(c: &CacheArray) -> Vec<(BlockAddr, CoherenceState)> {
        let lines: Vec<Line> = c.lines.pieces().flatten().copied().collect();
        (0..lines.len())
            .filter(|&i| lines[i].valid())
            .map(|i| (c.addr_of(i / c.ways, lines[i].tag), lines[i].state()))
            .collect()
    }

    /// Checks the bitmap against the counter and the line array, and the
    /// bitmap walks (encode, residency) against the dense scans.
    fn assert_bitmap_consistent(c: &CacheArray, what: &str) {
        let popcount: usize = c
            .resident
            .pieces()
            .flatten()
            .map(|w| w.count_ones() as usize)
            .sum();
        let dense = c.lines.pieces().flatten().filter(|l| l.valid()).count();
        assert_eq!(popcount, c.resident_count, "{what}: popcount vs counter");
        assert_eq!(dense, c.resident_count, "{what}: dense count vs counter");
        assert_eq!(snap_bytes(c), scanned_bytes(c), "{what}: encoding");
        assert_eq!(residents(c), scanned_residents(c), "{what}: residency walk");
    }

    /// Random fills, state changes and invalidations over four times the
    /// array's capacity of addresses: resident hits, free-way fills and
    /// evictions alike.
    fn churn(c: &mut CacheArray, rng: &mut crate::rng::Xoshiro256StarStar, ops: usize) {
        const STATES: [CoherenceState; 4] = [
            CoherenceState::Modified,
            CoherenceState::Exclusive,
            CoherenceState::Owned,
            CoherenceState::Shared,
        ];
        let span = 4 * c.config.blocks();
        for _ in 0..ops {
            let addr = BlockAddr(rng.next_below(span));
            match rng.next_below(8) {
                0..=3 => {
                    c.insert(addr, STATES[rng.next_below(4) as usize]);
                }
                4 | 5 => {
                    c.invalidate(addr);
                }
                6 => {
                    c.set_state(addr, CoherenceState::Invalid);
                }
                _ => {
                    c.set_state(addr, STATES[rng.next_below(4) as usize]);
                }
            }
        }
    }

    #[test]
    fn bitmap_tracks_residency_on_owned_shared_and_forked_arrays() {
        use crate::checkpoint::{Decoder, Snap};
        // 1, 2 and 8 ways: line-array chunks of 16, 32 and 128 lines, so
        // a forked array's pieces start inside, at and across bitmap words;
        // 2048 lines is four bitmap chunks.
        for ways in [1u32, 2, 8] {
            let mut rng = crate::rng::Xoshiro256StarStar::new(u64::from(ways));
            let cfg = CacheConfig::new(2048 * 64, ways, 64).unwrap();
            let mut owned = CacheArray::new(cfg).unwrap();
            churn(&mut owned, &mut rng, 3000);
            assert_bitmap_consistent(&owned, "owned");

            // A decoded array that its holder alone keeps: shared until the
            // first write makes it owned again.
            let bytes = snap_bytes(&owned);
            let mut sole = CacheArray::decode_snap(&mut Decoder::new(&bytes)).unwrap();
            assert_bitmap_consistent(&sole, "decoded");
            churn(&mut sole, &mut rng, 500);
            assert_bitmap_consistent(&sole, "decoded, written");

            // Forks of a held template, then a fork shared again in place
            // (folded: the template is gone) and one flattened (a sibling
            // still holds the base), each written once more.
            let template = CacheArray::decode_snap(&mut Decoder::new(&bytes)).unwrap();
            let mut sibling = template.clone();
            let mut fork = template.clone();
            churn(&mut sibling, &mut rng, 200);
            churn(&mut fork, &mut rng, 200);
            assert_bitmap_consistent(&fork, "forked");
            let (template_bytes, sibling_bytes) = (snap_bytes(&template), snap_bytes(&sibling));
            let fork_bytes = snap_bytes(&fork);
            let mut flattened = fork.clone();
            flattened.share();
            assert_eq!(
                snap_bytes(&flattened),
                fork_bytes,
                "flattening keeps the contents"
            );
            assert_eq!(snap_bytes(&template), template_bytes);
            assert_eq!(snap_bytes(&sibling), sibling_bytes);
            assert_bitmap_consistent(&sibling, "sibling");
            drop((template, sibling));
            fork.share();
            assert_eq!(snap_bytes(&fork), fork_bytes, "folding keeps the contents");
            for (c, what) in [(&mut fork, "folded"), (&mut flattened, "flattened")] {
                let mut child = c.clone();
                churn(&mut child, &mut rng, 200);
                churn(c, &mut rng, 200);
                assert_bitmap_consistent(c, what);
                assert_bitmap_consistent(&child, "fork of a re-shared array");
            }
        }
    }

    #[test]
    fn decode_seeds_the_resident_list_and_the_bitmap() {
        use crate::checkpoint::{Decoder, Snap};
        let mut a = small();
        a.insert(BlockAddr(12), CoherenceState::Modified);
        a.insert(BlockAddr(5), CoherenceState::Shared);
        let bytes = snap_bytes(&a);
        let mut restored = CacheArray::decode_snap(&mut Decoder::new(&bytes)).unwrap();

        // The decoder records every resident line as it fills the array, and
        // sets its bit: set 0 way 0 and set 1 way 0 of the 2-way array,
        // lines 0 and 2.
        let seed = &restored.seed.0.as_ref().expect("decode seeds").0;
        assert_eq!(seed.len(), 2);
        assert!(seed.windows(2).all(|w| w[0].0 < w[1].0), "index order");
        let bits: Vec<u64> = restored.resident.pieces().flatten().copied().collect();
        assert_eq!(bits, [0b101]);

        // The seeded fast paths agree with a dense scan, and a clone (which
        // is not handed the seed) agrees with both.
        assert_eq!(restored.resident_blocks(), a.resident_blocks());
        assert_eq!(residents(&restored), residents(&a));
        assert!(restored.clone().seed.0.is_none());
        assert_eq!(residents(&restored.clone()), residents(&a));

        // A write retires the seed from use (it no longer describes the
        // array), and sharing the array again drops it.
        restored.insert(BlockAddr(1), CoherenceState::Exclusive);
        a.insert(BlockAddr(1), CoherenceState::Exclusive);
        assert_eq!(restored.resident_blocks(), 3);
        assert_eq!(residents(&restored), residents(&a));
        restored.share();
        assert!(restored.seed.0.is_none() && restored.lines.is_unwritten());
        assert_eq!(residents(&restored), residents(&a));
        assert_bitmap_consistent(&restored, "restored, written, shared");
    }

    #[test]
    fn forked_clone_shares_lines_until_first_write() {
        use crate::checkpoint::{Decoder, Snap};
        let mut a = small();
        a.insert(BlockAddr(12), CoherenceState::Modified);
        let template = CacheArray::decode_snap(&mut Decoder::new(&snap_bytes(&a))).unwrap();
        let mut b = template.clone();
        // Reads keep sharing; the first mutation starts the fork's overlay
        // and leaves the template untouched.
        assert_eq!(b.probe(BlockAddr(12)), CoherenceState::Modified);
        assert!(b.lines.is_unwritten());
        b.invalidate(BlockAddr(12));
        assert!(!b.lines.is_unwritten() && template.lines.is_unwritten());
        assert_eq!(template.probe(BlockAddr(12)), CoherenceState::Modified);
        assert_eq!(b.probe(BlockAddr(12)), CoherenceState::Invalid);
        assert_eq!(snap_bytes(&template), snap_bytes(&a));
    }

    #[test]
    fn direct_mapped_cache_works() {
        let mut c = CacheArray::new(CacheConfig::new(256, 1, 64).unwrap()).unwrap();
        // 4 sets, 1 way.
        c.insert(BlockAddr(0), CoherenceState::Shared);
        let ev = c.insert(BlockAddr(4), CoherenceState::Shared).unwrap();
        assert_eq!(ev.addr, BlockAddr(0));
    }
}
