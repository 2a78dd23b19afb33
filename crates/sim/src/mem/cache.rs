//! Set-associative cache arrays with coherence state and LRU replacement.
//!
//! The paper's target system (§3.2.1) keeps caches coherent with a MOSI
//! invalidation-based snooping protocol; its simulator (§3.2.3) "supports a
//! broad range of coherence protocols", so the state space here covers the
//! MESI/MOSI/MOESI family. [`CoherenceState`] carries the per-block state
//! and [`CacheArray`] the tag/LRU bookkeeping shared by the L1 and L2 models.

use std::sync::Arc;

use super::arena;
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
    /// `zeroed_lines`. The snapshot byte for each state is an explicit
    /// constant in the `Snap` impl below, independent of these
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

/// One cache line's metadata. Crate-visible so the decode arena
/// ([`super::arena`]) can pool retired line buffers by type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Line {
    tag: u64,
    state: CoherenceState,
    /// Monotonic last-use stamp for LRU.
    lru: u64,
}

/// Allocates `len` default (all-Invalid) lines from zeroed memory.
///
/// `alloc_zeroed` hands back kernel-zeroed pages that are faulted in only on
/// first touch, so building a mostly-empty line array (a fresh cache, a
/// snapshot decode) costs no dense write — the scatter of resident lines
/// touches only the pages it actually lands on, and a 4 MB L2's 65,536-line
/// array skips the memset entirely.
fn zeroed_lines(len: usize) -> Vec<Line> {
    if len == 0 {
        return Vec::new();
    }
    let layout = std::alloc::Layout::array::<Line>(len).expect("line array layout");
    // SAFETY: an all-zero `Line` is a valid default line — `tag` and `lru`
    // are plain integers and `CoherenceState` is `repr(u8)` with
    // `Invalid = 0` (pinned by the `zeroed_lines_are_default_lines` test).
    // The pointer/len/capacity triple hands the exact
    // `Layout::array::<Line>` allocation to `Vec`, which frees it with the
    // same layout.
    unsafe {
        let ptr = std::alloc::alloc_zeroed(layout).cast::<Line>();
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        Vec::from_raw_parts(ptr, len, len)
    }
}

/// The shareable body of a [`CacheArray`]: the dense line array plus an
/// optional resident-line seed.
///
/// Forks of one decoded machine share this behind an `Arc`; the first write
/// re-materializes a private copy via [`Clone`], and that clone is *sparse*:
/// a zeroed ([`zeroed_lines`]) dense array with only the resident lines
/// scattered in. For the mostly-Invalid arrays a warmed machine carries,
/// a fork's materialization cost is proportional to residency — like the
/// run-length decode path — not to raw geometry, which is megabytes per L2.
///
/// `resident` lists `(index, line)` for every non-Invalid line, in index
/// order. The snapshot decoder builds it as a free byproduct of its
/// run-length walk; any in-place mutation drops it (see
/// [`CacheArray::set_slice_mut`]), because a written array no longer matches
/// the list. A seeded clone canonicalizes Invalid lines to
/// `Line::default()`: their residual `tag`/`lru` values are dead state —
/// every lookup and victim choice tests `state` first, and the snapshot
/// encoding run-length-encodes Invalid lines — so the clone is
/// behaviourally identical and re-encodes to the same bytes. An unseeded
/// clone is a plain memcpy.
/// The backing buffers are recycled through the thread-local decode arena
/// (`super::arena`): `Drop` retires `dense` and the seed there, and the
/// decode / clone paths take recycled buffers when one fits — in
/// steady-state sweeps (decode a template, fork it, drop everything,
/// repeat) the multi-megabyte arrays never touch the allocator. The seed
/// stays a `Vec` (not a boxed slice) precisely so it can round-trip
/// through the pool without the shrink-to-fit realloc `into_boxed_slice`
/// would cost.
#[derive(Debug)]
struct CowLines {
    dense: Vec<Line>,
    resident: Option<Vec<(u32, Line)>>,
}

impl Drop for CowLines {
    fn drop(&mut self) {
        if let Some(list) = self.resident.take() {
            arena::give_resident(list);
        }
        arena::give_lines(std::mem::take(&mut self.dense));
    }
}

impl Clone for CowLines {
    fn clone(&self) -> Self {
        let len = self.dense.len();
        // A recycled buffer arrives dirty, which is fine on both branches:
        // the seeded pass below writes every element before `set_len`, and
        // the unseeded branch copies over a cleared (`len == 0`) vector.
        let mut dense: Vec<Line> =
            arena::take_lines(len).unwrap_or_else(|| Vec::with_capacity(len));
        match &self.resident {
            Some(list) => {
                // One sequential pass over uninitialized memory: zero the
                // gaps between resident lines, write each resident line in
                // place. (A zeroed allocation plus scatter would traverse
                // the multi-megabyte array twice — memset, then revisit
                // every page.) This canonicalizes Invalid lines to
                // `Line::default()`, exactly as decode does: their residual
                // `tag`/`lru` values are dead state, and the run-length
                // snapshot encoding never emits them.
                let ptr = dense.as_mut_ptr();
                let mut cursor = 0usize;
                // SAFETY: the seed's indices are strictly ascending and
                // < len (the decoder builds it that way while filling the
                // array front to back), so every element of [0, len) is
                // written exactly once — gap elements with zero bytes (a
                // valid `Line`: fields are plain integers and
                // `CoherenceState` is `repr(u8)` with `Invalid = 0`),
                // resident slots with their line — before `set_len`
                // exposes them. `Line` is `Copy`, so no drops are skipped.
                unsafe {
                    for &(i, line) in list.iter() {
                        let i = i as usize;
                        debug_assert!(i >= cursor && i < len, "seed order/bounds");
                        ptr.add(cursor).write_bytes(0u8, i - cursor);
                        ptr.add(i).write(line);
                        cursor = i + 1;
                    }
                    ptr.add(cursor).write_bytes(0u8, len - cursor);
                    dense.set_len(len);
                }
            }
            // No seed (the source has been written in place): a straight
            // memcpy, byte-exact including any junk on Invalid lines.
            None => dense.extend_from_slice(&self.dense),
        }
        // The clone exists to be written (Arc::make_mut), so the seed would
        // be dropped on the next call anyway; skip copying it.
        CowLines {
            dense,
            resident: None,
        }
    }
}

impl PartialEq for CowLines {
    fn eq(&self, other: &Self) -> bool {
        self.dense == other.dense
    }
}

/// A set-associative, LRU-replacement cache tag array carrying MOSI state.
///
/// Stores metadata only (tags and states); the simulator never models data
/// values, just their movement.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheArray {
    config: CacheConfig,
    /// Shared copy-on-write line array. Forks of one decoded machine clone
    /// this `Arc` (a pointer copy, even for a 65,536-line L2) and only
    /// materialize a private copy on first write ([`Arc::make_mut`] in
    /// [`CacheArray::set_slice_mut`]) — and that copy is sparse, seeded
    /// from the decoder's resident-line list (see [`CowLines`]).
    /// `CowLines`'s `PartialEq` compares the dense vector only, so
    /// comparisons are unaffected by sharing.
    lines: Arc<CowLines>,
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
            lines: Arc::new(CowLines {
                dense: zeroed_lines((sets as usize) * ways),
                resident: Some(Vec::new()),
            }),
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
        let start = set * self.ways;
        // First mutation after a fork materializes a private copy (sparse
        // and calloc-backed — see [`CowLines`]'s `Clone`); thereafter the
        // Arc is unique and this is a plain borrow. Any in-place write
        // invalidates the decoder's resident-line seed, which describes the
        // array as it was decoded.
        let cow = Arc::make_mut(&mut self.lines);
        if let Some(list) = cow.resident.take() {
            // The seed is dead the moment the array is written; retire its
            // buffer to the decode arena instead of freeing it.
            arena::give_resident(list);
        }
        &mut cow.dense[start..start + self.ways]
    }

    #[inline]
    fn set_slice(&self, set: usize) -> &[Line] {
        let start = set * self.ways;
        &self.lines.dense[start..start + self.ways]
    }

    /// Returns the current state of `addr` without touching LRU (a snoop
    /// probe).
    pub fn probe(&self, addr: BlockAddr) -> CoherenceState {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        for line in self.set_slice(set) {
            if line.state != CoherenceState::Invalid && line.tag == tag {
                return line.state;
            }
        }
        CoherenceState::Invalid
    }

    /// Looks up `addr` for an access, updating LRU on hit. Returns the state.
    pub fn touch(&mut self, addr: BlockAddr) -> CoherenceState {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        self.use_clock += 1;
        let clock = self.use_clock;
        for line in self.set_slice_mut(set) {
            if line.state != CoherenceState::Invalid && line.tag == tag {
                line.lru = clock;
                return line.state;
            }
        }
        CoherenceState::Invalid
    }

    /// Sets the state of an already-resident block; returns `false` if the
    /// block is not resident.
    pub fn set_state(&mut self, addr: BlockAddr, state: CoherenceState) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let mut found = false;
        for line in self.set_slice_mut(set) {
            if line.state != CoherenceState::Invalid && line.tag == tag {
                line.state = state;
                found = true;
                break;
            }
        }
        if found && state == CoherenceState::Invalid {
            self.resident_count -= 1;
        }
        found
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
        self.use_clock += 1;
        let clock = self.use_clock;

        // Already resident?
        for line in self.set_slice_mut(set) {
            if line.state != CoherenceState::Invalid && line.tag == tag {
                line.state = state;
                line.lru = clock;
                return None;
            }
        }
        // Free way?
        let filled_free_way = {
            let slice = self.set_slice_mut(set);
            match slice
                .iter_mut()
                .find(|l| l.state == CoherenceState::Invalid)
            {
                Some(line) => {
                    *line = Line {
                        tag,
                        state,
                        lru: clock,
                    };
                    true
                }
                None => false,
            }
        };
        if filled_free_way {
            self.resident_count += 1;
            return None;
        }
        // Evict LRU.
        let (victim_idx, victim) = {
            let slice = self.set_slice(set);
            let (i, l) = slice
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .expect("associativity >= 1");
            (i, *l)
        };
        let evicted = Eviction {
            addr: self.addr_of(set, victim.tag),
            state: victim.state,
        };
        self.set_slice_mut(set)[victim_idx] = Line {
            tag,
            state,
            lru: clock,
        };
        Some(evicted)
    }

    /// Invalidates `addr` if resident; returns the state it held.
    pub fn invalidate(&mut self, addr: BlockAddr) -> CoherenceState {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let mut old = CoherenceState::Invalid;
        for line in self.set_slice_mut(set) {
            if line.state != CoherenceState::Invalid && line.tag == tag {
                old = line.state;
                line.state = CoherenceState::Invalid;
                break;
            }
        }
        if old != CoherenceState::Invalid {
            self.resident_count -= 1;
        }
        old
    }

    /// Number of resident (non-Invalid) blocks — for stats and the snapshot
    /// capacity seed. O(1): a live counter, checked against the line array
    /// in debug builds.
    pub fn resident_blocks(&self) -> usize {
        debug_assert_eq!(
            self.resident_count,
            self.lines
                .dense
                .iter()
                .filter(|l| l.state != CoherenceState::Invalid)
                .count(),
            "resident counter drifted from the line array"
        );
        self.resident_count
    }

    /// Calls `f` with the address and state of every resident block, in line
    /// index order. Used to rebuild residency summaries (the snoop filter)
    /// after a checkpoint restore, where only the cache contents are
    /// serialized.
    pub fn for_each_resident(&self, mut f: impl FnMut(BlockAddr, CoherenceState)) {
        if let Some(list) = &self.lines.resident {
            // The decoder's seed skips the dense scan entirely (the list is
            // built in index order, matching the scan below).
            for &(i, line) in list.iter() {
                let set = i as usize / self.ways;
                f(self.addr_of(set, line.tag), line.state);
            }
            return;
        }
        // No seed (the array has been written in place): skip Invalid
        // stretches with the same word-at-a-time run scan the snapshot
        // encoder uses, instead of branching on every one of a mostly
        // empty L2's lines.
        let dense = &self.lines.dense;
        let mut i = 0usize;
        while i < dense.len() {
            i += invalid_run_len(&dense[i..]);
            if i == dense.len() {
                break;
            }
            let line = &dense[i];
            let set = i / self.ways;
            f(self.addr_of(set, line.tag), line.state);
            i += 1;
        }
    }
}

impl crate::checkpoint::Snap for CoherenceState {
    fn encode_snap(&self, enc: &mut crate::checkpoint::Encoder) {
        enc.put_u8(match self {
            CoherenceState::Modified => 0,
            CoherenceState::Exclusive => 1,
            CoherenceState::Owned => 2,
            CoherenceState::Shared => 3,
            CoherenceState::Invalid => 4,
        });
    }
    fn decode_snap(
        dec: &mut crate::checkpoint::Decoder<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        match dec.get_u8()? {
            0 => Ok(CoherenceState::Modified),
            1 => Ok(CoherenceState::Exclusive),
            2 => Ok(CoherenceState::Owned),
            3 => Ok(CoherenceState::Shared),
            4 => Ok(CoherenceState::Invalid),
            _ => Err(crate::checkpoint::CheckpointError::Corrupt {
                what: "CoherenceState tag".into(),
            }),
        }
    }
    fn snap_size_hint(&self) -> usize {
        1
    }
}

crate::impl_snap!(CacheConfig {
    size_bytes,
    associativity,
    block_bytes,
});
crate::impl_snap!(Line { tag, state, lru });

/// Run-length tag byte marking a run of Invalid lines in a [`CacheArray`]
/// encoding; the [`CoherenceState`] tags occupy 0–4.
const SNAP_INVALID_RUN: u8 = 5;

/// Length of the Invalid-line run starting at `lines[0]` (zero when the
/// first line is resident). Scans eight lines per iteration, folding their
/// states into one occupancy word and using `trailing_zeros` to locate the
/// first resident line, instead of a branch per line — a mostly-empty L2 is
/// hundreds of thousands of lines, and this scan dominates snapshot encode.
#[inline]
fn invalid_run_len(lines: &[Line]) -> usize {
    let mut n = 0usize;
    let mut chunks = lines.chunks_exact(8);
    for chunk in &mut chunks {
        let mut occ = 0u32;
        for (j, line) in chunk.iter().enumerate() {
            occ |= u32::from(line.state != CoherenceState::Invalid) << j;
        }
        if occ != 0 {
            return n + occ.trailing_zeros() as usize;
        }
        n += 8;
    }
    for line in chunks.remainder() {
        if line.state != CoherenceState::Invalid {
            return n;
        }
        n += 1;
    }
    n
}

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
        let lines = &self.lines.dense;
        self.config.encode_snap(enc);
        enc.put_u64(lines.len() as u64);
        let mut i = 0usize;
        while i < lines.len() {
            let run = invalid_run_len(&lines[i..]);
            if run > 0 {
                enc.put_u8(SNAP_INVALID_RUN);
                enc.put_u64(run as u64);
                i += run;
            } else {
                let line = &lines[i];
                line.state.encode_snap(enc);
                enc.put_u64(line.tag);
                enc.put_u64(line.lru);
                i += 1;
            }
        }
        self.sets.encode_snap(enc);
        self.ways.encode_snap(enc);
        self.use_clock.encode_snap(enc);
    }

    fn decode_snap(
        dec: &mut crate::checkpoint::Decoder<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::{CheckpointError, Snap};
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
        // The dense array comes from the thread-local decode arena when a
        // retired buffer fits, and from `zeroed_lines` otherwise. A fresh
        // zeroed allocation is all-Invalid already, so invalid runs just
        // advance the cursor; a recycled buffer is dirty, so runs are
        // zeroed in bulk (`write_bytes`, the decode-side counterpart of
        // the encoder's word-at-a-time run scan) as the run-length walk
        // passes over them. Each resident line is written in place and
        // recorded in the resident seed — which later powers both
        // `for_each_resident` (snoop-filter rebuild) and the sparse
        // copy-on-write materialization of forks (`CowLines`).
        let (mut dense, zero_gaps) = match arena::take_lines(len) {
            Some(buf) => (buf, true),
            None => (zeroed_lines(len), false),
        };
        let ptr = dense.as_mut_ptr();
        let mut resident = arena::take_resident();
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
                    if zero_gaps {
                        // SAFETY: `filled + run <= len`, and the arena
                        // guarantees `capacity >= len`. Zero bytes are a
                        // valid all-Invalid `Line` (see `zeroed_lines`).
                        unsafe { ptr.add(filled).write_bytes(0u8, run) };
                    }
                    filled += run;
                }
                tag_byte => {
                    let state = match tag_byte {
                        0 => CoherenceState::Modified,
                        1 => CoherenceState::Exclusive,
                        2 => CoherenceState::Owned,
                        3 => CoherenceState::Shared,
                        _ => {
                            return Err(CheckpointError::Corrupt {
                                what: "CacheArray line tag".into(),
                            })
                        }
                    };
                    let line = Line {
                        tag: dec.get_u64()?,
                        state,
                        lru: dec.get_u64()?,
                    };
                    // SAFETY: `filled < len <= capacity`; on the fresh
                    // path this overwrites an initialized zero line, on
                    // the recycled path it initializes the slot (`Line`
                    // is `Copy`, so no drop is skipped either way).
                    unsafe { ptr.add(filled).write(line) };
                    // `len` is capped at 1 << 28 above, so indices fit u32.
                    resident.push((filled as u32, line));
                    filled += 1;
                }
            }
        }
        // SAFETY: the loop above ran until `filled == len`, writing (or,
        // on the fresh path, inheriting from `zeroed_lines`) every element
        // of `[0, len)`; a recycled buffer's capacity covers `len`. Early
        // error returns leave a recycled buffer at `len == 0`, which drops
        // safely — `Line` is `Copy`.
        unsafe { dense.set_len(len) };
        let sets: u64 = Snap::decode_snap(dec)?;
        let ways = Snap::decode_snap(dec)?;
        let use_clock = Snap::decode_snap(dec)?;
        if !sets.is_power_of_two() {
            return Err(CheckpointError::Corrupt {
                what: "CacheArray set count must be a power of two".into(),
            });
        }
        let resident_count = resident.len();
        Ok(CacheArray {
            config,
            lines: Arc::new(CowLines {
                dense,
                resident: Some(resident),
            }),
            sets,
            ways,
            use_clock,
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            resident_count,
        })
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

    #[test]
    fn invalid_run_len_matches_naive_scan() {
        // Exercise runs that end inside a chunk, at chunk boundaries, and in
        // the sub-chunk remainder, against a line-at-a-time reference.
        for total in [0usize, 1, 7, 8, 9, 16, 23, 64] {
            for first_valid in 0..=total {
                let mut lines = vec![Line::default(); total];
                if first_valid < total {
                    lines[first_valid].state = CoherenceState::Shared;
                }
                let naive = lines
                    .iter()
                    .take_while(|l| l.state == CoherenceState::Invalid)
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
        // Pins the layout contract behind `zeroed_lines`: all-zero bytes
        // must be a valid default (Invalid) line. If `CoherenceState` ever
        // loses `Invalid = 0` or `Line` gains a non-zero-default field,
        // this fails before any cache misbehaves.
        for n in [0usize, 1, 7, 64] {
            let lines = zeroed_lines(n);
            assert_eq!(lines.len(), n);
            assert!(lines.iter().all(|l| *l == Line::default()));
        }
        assert_eq!(std::mem::discriminant(&CoherenceState::Invalid), {
            // An all-zero byte pattern decodes as Invalid.
            let state: CoherenceState = CoherenceState::default();
            std::mem::discriminant(&state)
        });
    }

    #[test]
    fn sparse_clone_preserves_contents_and_canonicalizes_junk() {
        use crate::checkpoint::{Decoder, Encoder, Snap};
        fn bytes_of(c: &CacheArray) -> Vec<u8> {
            let mut enc = Encoder::new();
            c.encode_snap(&mut enc);
            enc.into_bytes()
        }

        let mut a = small();
        a.insert(BlockAddr(12), CoherenceState::Modified);
        a.insert(BlockAddr(5), CoherenceState::Shared);
        a.insert(BlockAddr(9), CoherenceState::Owned);
        // Leave junk tag/lru bits on an Invalid line: invalidate keeps them.
        a.invalidate(BlockAddr(9));

        // Materialize through the scan path (a's in-place writes dropped
        // the seed). Invalidating a non-resident block calls the mutable
        // path — splitting the Arc — without changing any state.
        let mut b = a.clone();
        assert!(b.lines.resident.is_none());
        b.invalidate(BlockAddr(60));
        assert!(!Arc::ptr_eq(&a.lines, &b.lines), "clone materialized");
        for addr in 0..64u64 {
            assert_eq!(
                a.probe(BlockAddr(addr)),
                b.probe(BlockAddr(addr)),
                "probe mismatch at {addr}"
            );
        }
        assert_eq!(a.resident_blocks(), b.resident_blocks());
        // Snapshot bytes are identical: the encoding run-length-encodes
        // Invalid lines, so the junk the clone canonicalized never appears.
        assert_eq!(bytes_of(&a), bytes_of(&b));

        // Materialize through the decoder's resident seed.
        let encoded = bytes_of(&a);
        let restored = CacheArray::decode_snap(&mut Decoder::new(&encoded)).unwrap();
        assert!(restored.lines.resident.is_some());
        let mut c = restored.clone();
        c.invalidate(BlockAddr(60));
        assert!(!Arc::ptr_eq(&restored.lines, &c.lines));
        assert_eq!(bytes_of(&c), encoded);
    }

    #[test]
    fn decode_seeds_the_resident_list() {
        use crate::checkpoint::{Decoder, Encoder, Snap};
        let mut a = small();
        a.insert(BlockAddr(12), CoherenceState::Modified);
        a.insert(BlockAddr(5), CoherenceState::Shared);
        let mut enc = Encoder::new();
        a.encode_snap(&mut enc);
        let bytes = enc.into_bytes();
        let restored = CacheArray::decode_snap(&mut Decoder::new(&bytes)).unwrap();

        // The decoder records every resident line as it fills the array.
        let seed = restored.lines.resident.as_ref().expect("decode seeds");
        assert_eq!(seed.len(), 2);
        assert!(seed.windows(2).all(|w| w[0].0 < w[1].0), "index order");

        // The seeded fast paths agree with a dense scan.
        assert_eq!(restored.resident_blocks(), a.resident_blocks());
        let mut from_seed = Vec::new();
        restored.for_each_resident(|addr, state| from_seed.push((addr, state)));
        let mut from_scan = Vec::new();
        a.for_each_resident(|addr, state| from_scan.push((addr, state)));
        assert_eq!(from_seed, from_scan);

        // A write drops the seed (it no longer describes the array).
        let mut restored = restored;
        restored.insert(BlockAddr(1), CoherenceState::Exclusive);
        assert!(restored.lines.resident.is_none());
        assert_eq!(restored.resident_blocks(), 3);
    }

    #[test]
    fn forked_clone_shares_lines_until_first_write() {
        let mut a = small();
        a.insert(BlockAddr(12), CoherenceState::Modified);
        let mut b = a.clone();
        assert!(
            Arc::ptr_eq(&a.lines, &b.lines),
            "clone must share the line array"
        );
        // Reads keep sharing; the first mutation splits the Arc and leaves
        // the sibling untouched.
        assert_eq!(b.probe(BlockAddr(12)), CoherenceState::Modified);
        assert!(Arc::ptr_eq(&a.lines, &b.lines));
        b.invalidate(BlockAddr(12));
        assert!(!Arc::ptr_eq(&a.lines, &b.lines));
        assert_eq!(a.probe(BlockAddr(12)), CoherenceState::Modified);
        assert_eq!(b.probe(BlockAddr(12)), CoherenceState::Invalid);
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
