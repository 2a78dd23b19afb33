//! Set-associative cache arrays with coherence state and LRU replacement.
//!
//! The paper's target system (§3.2.1) keeps caches coherent with a MOSI
//! invalidation-based snooping protocol; its simulator (§3.2.3) "supports a
//! broad range of coherence protocols", so the state space here covers the
//! MESI/MOSI/MOESI family. [`CoherenceState`] carries the per-block state
//! and [`CacheArray`] the tag/LRU bookkeeping shared by the L1 and L2 models.

use super::arena;
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
    /// (empty) line, as a new slot's lines are. The discriminants are the
    /// state bits of a `Line`, so they must fit in `STATE_BITS`. The snapshot byte for each state is an explicit
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

/// Slots per copy-on-write chunk of a cache array's slot storage, sets per
/// chunk of its slot table, and slots per step of the storage's growth. A
/// fork copies `CHUNK_SETS × ways` lines (64 lines, 1 KiB, for the paper's
/// 4-way L2) the first time it writes any of them, and 64 bytes of table
/// the first time it gives one of 16 sets its first slot. Short runs write
/// scattered sets, so the bytes a fork copies grow with the chunk — a
/// 25-transaction OLTP run from a template warmed 1000 transactions copied
/// 3.1 MB of the 16-CPU machine's then 17.8 MB of dense line arrays at 16
/// sets, 6.3 MB at 64 — while below 16 the smaller copies stop paying for
/// the larger map. From a template warmed 300 such a run copies 1.0 MB of
/// slots and 80 KB of table; table chunks of 256 sets copied 516 KB of
/// table (EXPERIMENTS.md, "Snapshot forks", "Compact lines" and
/// "Slot-indexed cache sets").
const CHUNK_SETS: usize = 16;

/// A set-associative, LRU-replacement cache tag array carrying MOSI state.
///
/// Stores metadata only (tags and states); the simulator never models data
/// values, just their movement.
///
/// Lines are stored per *slot*, not per set: a warmed 4 MB L2 holds lines
/// in a few percent to a quarter of its 16,384 sets, so a dense array would
/// be mostly Invalid lines. A slot table with one `u32` per set names each
/// set's slot (0: the set has none, and every way is Invalid), and the slot
/// storage holds `ways` lines per slot, growing by `CHUNK_SETS` slots at a
/// time. A set takes the next slot at its first `insert`, and the new
/// slot's lines are written as default (Invalid) lines there, so storage is
/// only as large, and only as resident, as the sets a run has filled. A
/// lookup in a set without a slot allocates nothing and finds Invalid.
/// Slots are never given back: a set whose lines all go Invalid keeps its
/// slot, as its dense set kept its lines.
///
/// Both the table and the slot storage are copy-on-write in chunks
/// (`mem::cow`): cloning a shared array (a decoded one, or one shared in
/// place by [`Machine::share`](crate::machine::Machine::share)) is a
/// pointer copy, and the clone then copies each chunk the first time it
/// writes in it — a fork costs what it touches, and the slots it adds live
/// in its own overlay. An array that was never shared (a fresh one, or a
/// restore that nobody forked) is a plain `Vec` behind one enum branch.
///
/// Equality, snapshot bytes and residency walks see the logical per-set
/// contents, whatever slot each set landed in: they walk the table in set
/// order. The snapshot decoder hands out slots in set order, so a decoded
/// array's walk reads its slot storage front to back.
#[derive(Debug, Clone)]
pub struct CacheArray {
    config: CacheConfig,
    /// Per set: 1 + the index of its slot, or 0 for a set without one.
    table: ChunkCow<u32>,
    /// Slot `s` holds lines `[s × ways, (s + 1) × ways)`, its set's ways in
    /// order; `CHUNK_SETS` slots per chunk.
    lines: ChunkCow<Line>,
    /// Slots handed out so far (the storage may hold up to a chunk more).
    slots: usize,
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
    /// capacity seed, O(1) instead of a walk of every array per snapshot.
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
        Ok(Self::empty(config))
    }

    /// An empty array of a validated geometry: a zeroed slot table from the
    /// arena, and slot storage with room for every set, of which nothing is
    /// written until sets take slots.
    fn empty(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.associativity as usize;
        CacheArray {
            config,
            table: ChunkCow::owned(arena::zeroed(sets as usize), CHUNK_SETS),
            lines: ChunkCow::with_capacity(sets as usize * ways, CHUNK_SETS * ways),
            slots: 0,
            sets,
            ways,
            use_clock: 0,
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            resident_count: 0,
        }
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

    /// The slot of `set`, if it has one.
    #[inline(always)]
    fn slot_of(&self, set: usize) -> Option<usize> {
        let entry = self.table.slice(set / CHUNK_SETS, set % CHUNK_SETS, 1)[0];
        (entry as usize).checked_sub(1)
    }

    #[inline(always)]
    fn slot(&self, slot: usize) -> &[Line] {
        self.lines
            .slice(slot / CHUNK_SETS, slot % CHUNK_SETS * self.ways, self.ways)
    }

    #[inline(always)]
    fn slot_mut(&mut self, slot: usize) -> &mut [Line] {
        self.lines
            .slice_mut(slot / CHUNK_SETS, slot % CHUNK_SETS * self.ways, self.ways)
    }

    /// The lines of `set`, if it has a slot.
    #[inline(always)]
    fn set_lines(&self, set: usize) -> Option<&[Line]> {
        self.slot_of(set).map(|slot| self.slot(slot))
    }

    /// The lines of `set`, if it has a slot, for writing.
    #[inline(always)]
    fn set_lines_mut(&mut self, set: usize) -> Option<&mut [Line]> {
        self.slot_of(set).map(|slot| self.slot_mut(slot))
    }

    /// Gives `set`, which has no slot, the next one: its lines are default
    /// lines, written when the storage grows by a chunk to make room.
    fn take_slot(&mut self, set: usize) -> usize {
        let slot = self.slots;
        if slot.is_multiple_of(CHUNK_SETS) {
            self.lines.append_chunk();
        }
        self.slots += 1;
        // Slots are below the set count, which a `u32` entry holds: decode
        // caps the line count at 2^28.
        self.table.slice_mut(set / CHUNK_SETS, set % CHUNK_SETS, 1)[0] = slot as u32 + 1;
        slot
    }

    /// Calls `f` with the index (`set × ways + way`) and contents of every
    /// resident line, in index order: a walk of the slot table in set
    /// order, reading the slot of each set that has one. The table is read
    /// 64 entries at a time into a mask of the sets with a slot, so empty
    /// sets cost no branch each.
    #[inline]
    fn for_each_resident_line(&self, mut f: impl FnMut(usize, &Line)) {
        let mut first = 0usize;
        for piece in self.table.pieces() {
            for block in piece.chunks(64) {
                let mut slotted = block
                    .iter()
                    .enumerate()
                    .fold(0u64, |mask, (i, &entry)| mask | u64::from(entry != 0) << i);
                while slotted != 0 {
                    let i = slotted.trailing_zeros() as usize;
                    slotted &= slotted - 1;
                    let base = (first + i) * self.ways;
                    for (way, line) in self.slot(block[i] as usize - 1).iter().enumerate() {
                        if line.valid() {
                            f(base + way, line);
                        }
                    }
                }
                first += block.len();
            }
        }
    }

    /// Turns the slot table and the slot storage into shared arrays in
    /// place, so that clones made from here on share them
    /// ([`ChunkCow::share`]): a fork of the machine holding this array
    /// copies pointers, not lines. Invisible to every lookup, equality and
    /// snapshot byte; public for the property tests, which fold forks.
    #[doc(hidden)]
    pub fn share(&mut self) {
        self.table.share();
        self.lines.share();
    }

    /// Bytes of slot storage and slot table this array holds (its length,
    /// not its capacity): what the slot layout keeps below a dense array's
    /// `sets × ways` lines.
    pub(crate) fn storage_bytes(&self) -> usize {
        self.lines.len() * size_of::<Line>() + self.table.len() * size_of::<u32>()
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
        let tag = self.tag_of(addr);
        if let Some(lines) = self.set_lines(self.set_of(addr)) {
            for line in lines {
                if line.valid() && line.tag == tag {
                    return line.state();
                }
            }
        }
        CoherenceState::Invalid
    }

    /// Looks up `addr` for an access, updating LRU on hit. Returns the state.
    pub fn touch(&mut self, addr: BlockAddr) -> CoherenceState {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let clock = self.next_stamp();
        if let Some(lines) = self.set_lines_mut(set) {
            for line in lines {
                if line.valid() && line.tag == tag {
                    line.set_lru(clock);
                    return line.state();
                }
            }
        }
        CoherenceState::Invalid
    }

    /// Sets the state of an already-resident block; returns `false` if the
    /// block is not resident.
    pub fn set_state(&mut self, addr: BlockAddr, state: CoherenceState) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let Some(lines) = self.set_lines_mut(set) else {
            return false;
        };
        let Some(line) = lines.iter_mut().find(|l| l.valid() && l.tag == tag) else {
            return false;
        };
        line.set_state(state);
        if state == CoherenceState::Invalid {
            self.resident_count -= 1;
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
        let slot = match self.slot_of(set) {
            Some(slot) => slot,
            None => self.take_slot(set),
        };
        let slice = self.slot_mut(slot);
        // Already resident?
        if let Some(line) = slice.iter_mut().find(|l| l.valid() && l.tag == tag) {
            *line = new;
            return None;
        }
        // Free way?
        if let Some(line) = slice.iter_mut().find(|l| !l.valid()) {
            *line = new;
            self.resident_count += 1;
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
        let Some(lines) = self.set_lines_mut(set) else {
            return CoherenceState::Invalid;
        };
        let Some(line) = lines.iter_mut().find(|l| l.valid() && l.tag == tag) else {
            return CoherenceState::Invalid;
        };
        let old = line.state();
        line.set_state(CoherenceState::Invalid);
        self.resident_count -= 1;
        old
    }

    /// Number of resident (non-Invalid) blocks — for stats and the snapshot
    /// capacity seed. O(1): a live counter, checked against the slot
    /// storage in debug builds.
    pub fn resident_blocks(&self) -> usize {
        debug_assert_eq!(
            self.resident_count,
            self.lines.pieces().flatten().filter(|l| l.valid()).count(),
            "resident counter drifted from the slot storage"
        );
        self.resident_count
    }

    /// Calls `f` with the address and state of every resident block, in line
    /// index order. Used to rebuild the sharer table after a checkpoint
    /// restore, where only the cache contents are serialized. Sets without
    /// a slot cost one table entry each.
    pub fn for_each_resident(&self, mut f: impl FnMut(BlockAddr, CoherenceState)) {
        self.for_each_resident_line(|i, line| {
            f(self.addr_of(i / self.ways, line.tag), line.state());
        });
    }
}

/// Equality of logical contents: geometry, clock, and every set's lines,
/// whichever slot holds them (a set without a slot equals a set of default
/// lines).
impl PartialEq for CacheArray {
    fn eq(&self, other: &Self) -> bool {
        let empty = |lines: &[Line]| lines.iter().all(|l| *l == Line::default());
        self.config == other.config
            && self.use_clock == other.use_clock
            && self.resident_count == other.resident_count
            && (0..self.sets as usize).all(|set| {
                match (self.set_lines(set), other.set_lines(set)) {
                    (Some(a), Some(b)) => a == b,
                    (Some(lines), None) | (None, Some(lines)) => empty(lines),
                    (None, None) => true,
                }
            })
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
        let len = self.sets as usize * self.ways;
        enc.put_u64(len as u64);
        // The gaps between consecutive resident lines (and after the last)
        // are the Invalid runs: the lines of sets without a slot, and the
        // Invalid ways of sets with one. The bytes are those of the dense
        // array in set order, whatever order the sets took their slots in.
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
        put_run(enc, len - next);
        self.sets.encode_snap(enc);
        self.ways.encode_snap(enc);
        self.use_clock.encode_snap(enc);
    }

    fn decode_snap(
        dec: &mut crate::checkpoint::Decoder<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::{CheckpointError, Decoder, Snap};
        let corrupt = |what: &str| CheckpointError::Corrupt { what: what.into() };
        let config = CacheConfig::decode_snap(dec)?;
        let len = dec.get_u64()?;
        // Largest plausible array: a 16 GB cache of 64-byte lines. Anything
        // bigger is a corrupt length, not a machine we ever built — and
        // rejecting it here keeps a flipped bit from requesting a huge
        // allocation before the fingerprint check would catch it.
        if len > 1 << 28 {
            return Err(corrupt("CacheArray line count"));
        }
        // The table and the storage are sized from the geometry, which
        // must describe the lines that follow.
        if config.validate().is_err() || config.blocks() != len {
            return Err(corrupt("CacheArray geometry does not match its line count"));
        }
        let len = len as usize;
        let mut array = CacheArray::empty(config);
        let way_bits = array.ways.trailing_zeros();
        // Invalid runs just advance the cursor; each resident line goes
        // into its set's slot, which the set takes at its first resident
        // line: sets ascend, so slots come out in set order, and the last
        // set to take one is the only set a line can share a slot with.
        let mut filled = 0usize;
        let mut last: Option<(usize, usize)> = None;
        while filled < len {
            match dec.get_u8()? {
                SNAP_INVALID_RUN => {
                    let run = dec.get_u64()? as usize;
                    if run == 0 || run > len - filled {
                        return Err(corrupt("CacheArray invalid-run length"));
                    }
                    filled += run;
                }
                tag_byte => {
                    // A resident line's tag is its state's own tag; Invalid
                    // lines only ever appear inside runs.
                    let state = match CoherenceState::decode_snap(&mut Decoder::new(&[tag_byte])) {
                        Ok(state) if state != CoherenceState::Invalid => state,
                        _ => return Err(corrupt("CacheArray line tag")),
                    };
                    let tag = dec.get_u64()?;
                    let lru = dec.get_u64()?;
                    if lru >= STAMP_BOUND {
                        return Err(corrupt("CacheArray line LRU stamp"));
                    }
                    let set = filled >> way_bits;
                    let slot = match last {
                        Some((last_set, slot)) if last_set == set => slot,
                        _ => array.take_slot(set),
                    };
                    last = Some((set, slot));
                    let way = filled & (array.ways - 1);
                    array.slot_mut(slot)[way] = Line::new(tag, state, lru);
                    array.resident_count += 1;
                    filled += 1;
                }
            }
        }
        let sets: u64 = Snap::decode_snap(dec)?;
        let ways: usize = Snap::decode_snap(dec)?;
        array.use_clock = Snap::decode_snap(dec)?;
        if array.use_clock >= STAMP_BOUND {
            return Err(corrupt("CacheArray use clock"));
        }
        if (sets, ways) != (array.sets, array.ways) {
            return Err(corrupt("CacheArray geometry does not match its line count"));
        }
        // A decoded array is a fork template: clones share it.
        array.share();
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

    /// The array as the dense layout held it: every set's ways in set
    /// order, default lines for sets without a slot.
    fn dense_lines(c: &CacheArray) -> Vec<Line> {
        (0..c.sets as usize)
            .flat_map(|set| match c.set_lines(set) {
                Some(lines) => lines.to_vec(),
                None => vec![Line::default(); c.ways],
            })
            .collect()
    }

    /// The array's encoding by a line-at-a-time scan of its dense form
    /// (the reference the table walk is checked against).
    fn scanned_bytes(c: &CacheArray) -> Vec<u8> {
        use crate::checkpoint::{Encoder, Snap};
        let mut enc = Encoder::new();
        c.config.encode_snap(&mut enc);
        let lines = dense_lines(c);
        enc.put_u64(lines.len() as u64);
        let mut run = 0u64;
        let flush = |enc: &mut Encoder, run: &mut u64| {
            if *run > 0 {
                enc.put_u8(SNAP_INVALID_RUN);
                enc.put_u64(*run);
                *run = 0;
            }
        };
        for line in &lines {
            if !line.valid() {
                run += 1;
                continue;
            }
            flush(&mut enc, &mut run);
            line.state().encode_snap(&mut enc);
            enc.put_u64(line.tag);
            enc.put_u64(line.lru());
        }
        flush(&mut enc, &mut run);
        c.sets.encode_snap(&mut enc);
        c.ways.encode_snap(&mut enc);
        c.use_clock.encode_snap(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn a_default_line_is_invalid_with_stamp_zero() {
        // Pins the layout contract behind a new slot's lines and a decoded
        // array's canonical Invalid lines: the default line is Invalid with
        // tag 0 and stamp 0, and is all-zero bytes. If `CoherenceState`
        // ever loses `Invalid = 0`, this fails before any cache misbehaves.
        let line = Line::default();
        assert!(!line.valid() && line.state() == CoherenceState::Invalid);
        assert_eq!((line.tag, line.meta, line.lru()), (0, 0, 0));
        assert_eq!(CoherenceState::default() as u8, 0);
    }

    #[test]
    fn a_line_is_16_bytes() {
        // A 4-way set is one 64-byte host cache line.
        assert_eq!(size_of::<Line>(), 16);
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
                let slot = c.slot_of(set).unwrap_or_else(|| c.take_slot(set));
                c.slot_mut(slot)[way] = Line::new(100 + k as u64, state, lru);
                if state != CoherenceState::Invalid {
                    c.resident_count += 1;
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
        assert_consistent(&c, "packed");
        let bytes = snap_bytes(&c);
        let back = CacheArray::decode_snap(&mut Decoder::new(&bytes)).unwrap();
        assert_consistent(&back, "decoded");
        assert_eq!(snap_bytes(&back), bytes);
        assert_eq!(back.use_clock, STAMP_BOUND - 1);
        // Resident lines come back whole; Invalid ones canonicalized.
        for (was, got) in dense_lines(&c).iter().zip(dense_lines(&back)) {
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
        // 64 sets x 2 ways: four slot chunks once every set is filled.
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
            c.touch(BlockAddr(63)); // the template's last slot
            c.invalidate(BlockAddr(40));
            c.insert(BlockAddr(50), CoherenceState::Exclusive); // a new slot
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
        // Set 20 is invalidated in `flat` (junk kept) and has no slot in
        // the decoded fork: equality is of contents, so they differ there
        // only while that junk is kept.
        assert!(fork != flat);
    }

    /// The residency walk by a dense line-at-a-time scan.
    fn scanned_residents(c: &CacheArray) -> Vec<(BlockAddr, CoherenceState)> {
        let lines = dense_lines(c);
        (0..lines.len())
            .filter(|&i| lines[i].valid())
            .map(|i| (c.addr_of(i / c.ways, lines[i].tag), lines[i].state()))
            .collect()
    }

    /// Checks the counter against the slot storage and the table walks
    /// (encode, residency) against the dense scans.
    fn assert_consistent(c: &CacheArray, what: &str) {
        let dense = dense_lines(c).iter().filter(|l| l.valid()).count();
        assert_eq!(dense, c.resident_count, "{what}: dense count vs counter");
        assert_eq!(c.resident_blocks(), c.resident_count, "{what}: storage");
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
    fn slots_track_residency_on_owned_shared_and_forked_arrays() {
        use crate::checkpoint::{Decoder, Snap};
        // 1, 2 and 8 ways over 2048 lines: slot chunks of 16, 32 and 128
        // lines, eight table chunks of sets at one way.
        for ways in [1u32, 2, 8] {
            let mut rng = crate::rng::Xoshiro256StarStar::new(u64::from(ways));
            let cfg = CacheConfig::new(2048 * 64, ways, 64).unwrap();
            let mut owned = CacheArray::new(cfg).unwrap();
            churn(&mut owned, &mut rng, 300);
            assert_consistent(&owned, "owned");

            // A decoded array that its holder alone keeps: shared until the
            // first write makes it owned again.
            let bytes = snap_bytes(&owned);
            let mut sole = CacheArray::decode_snap(&mut Decoder::new(&bytes)).unwrap();
            assert_consistent(&sole, "decoded");
            churn(&mut sole, &mut rng, 500);
            assert_consistent(&sole, "decoded, written");

            // Forks of a held template, then a fork shared again in place
            // (folded: the template is gone) and one flattened (a sibling
            // still holds the base), each written once more. The churn
            // fills new sets, so the forks grow their slot storage too.
            let template = CacheArray::decode_snap(&mut Decoder::new(&bytes)).unwrap();
            let mut sibling = template.clone();
            let mut fork = template.clone();
            churn(&mut sibling, &mut rng, 200);
            churn(&mut fork, &mut rng, 200);
            assert!(fork.lines.len() > template.lines.len(), "the fork grew");
            assert_consistent(&fork, "forked");
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
            assert_consistent(&sibling, "sibling");
            drop((template, sibling));
            fork.share();
            assert_eq!(snap_bytes(&fork), fork_bytes, "folding keeps the contents");
            for (c, what) in [(&mut fork, "folded"), (&mut flattened, "flattened")] {
                let mut child = c.clone();
                churn(&mut child, &mut rng, 200);
                churn(c, &mut rng, 200);
                assert_consistent(c, what);
                assert_consistent(&child, "fork of a re-shared array");
            }
        }
    }

    #[test]
    fn decode_gives_slots_in_set_order() {
        use crate::checkpoint::{Decoder, Snap};
        let mut a = small();
        a.insert(BlockAddr(13), CoherenceState::Modified); // set 1
        a.insert(BlockAddr(6), CoherenceState::Shared); // set 2
        a.insert(BlockAddr(2), CoherenceState::Owned); // set 2
        a.insert(BlockAddr(4), CoherenceState::Shared); // set 0
        assert_eq!(
            (a.slot_of(1), a.slot_of(2), a.slot_of(0), a.slot_of(3)),
            (Some(0), Some(1), Some(2), None),
            "first-fill order"
        );
        let restored = CacheArray::decode_snap(&mut Decoder::new(&snap_bytes(&a))).unwrap();
        assert_eq!(
            (0..4).map(|set| restored.slot_of(set)).collect::<Vec<_>>(),
            [Some(0), Some(1), Some(2), None]
        );
        assert_eq!(restored, a);
        assert_eq!(restored.resident_blocks(), 4);
        assert_eq!(residents(&restored), residents(&a));
        assert_eq!(snap_bytes(&restored), snap_bytes(&a));
        assert_consistent(&restored, "restored");
    }

    #[test]
    fn filling_k_sets_takes_one_slot_chunk_per_sixteen() {
        // 256 sets x 4 ways. Probes, touches, state changes and
        // invalidations of sets without a slot take nothing; the first
        // fill of each set takes one slot, and the storage grows a chunk
        // of CHUNK_SETS slots when its last slot is taken.
        let cfg = CacheConfig::new(256 * 4 * 64, 4, 64).unwrap();
        let chunk_bytes = CHUNK_SETS * 4 * size_of::<Line>();
        let table_bytes = 256 * size_of::<u32>();
        for k in [0usize, 1, 15, 16, 17, 100, 256] {
            let mut c = CacheArray::new(cfg).unwrap();
            for set in 0..256u64 {
                let addr = BlockAddr(set + 256 * 9);
                assert_eq!(c.probe(addr), CoherenceState::Invalid);
                assert_eq!(c.touch(addr), CoherenceState::Invalid);
                assert!(!c.set_state(addr, CoherenceState::Shared));
                assert_eq!(c.invalidate(addr), CoherenceState::Invalid);
            }
            assert_eq!((c.slots, c.lines.len(), c.use_clock), (0, 0, 256));
            // Two blocks per filled set: the second reuses the set's slot.
            for set in 0..k as u64 {
                c.insert(BlockAddr(set * 7 % 256), CoherenceState::Shared);
                c.insert(BlockAddr(set * 7 % 256 + 256), CoherenceState::Shared);
            }
            assert_eq!(c.slots, k);
            assert_eq!(
                c.storage_bytes(),
                k.div_ceil(CHUNK_SETS) * chunk_bytes + table_bytes,
                "{k} sets filled"
            );
            assert_eq!(c.resident_blocks(), 2 * k);
            assert_consistent(&c, "filled");
        }
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
