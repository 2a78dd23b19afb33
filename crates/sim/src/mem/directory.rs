//! Directory-based coherence: exact per-block sharer tracking at a
//! per-region home node.
//!
//! Snooping broadcasts every coherence transaction to all nodes; even with
//! the [`SnoopFilter`](super::SnoopFilter) narrowing the scan, the protocol
//! is fundamentally a broadcast medium and its root-switch serialization
//! point couples every processor's timing. Past a few dozen nodes that is
//! neither how real machines are built nor affordable to simulate. The
//! directory organization instead assigns every block a **home node** (the
//! region hash modulo the node count, so homes interleave across the
//! machine) that records exactly which nodes hold a copy. A miss is a
//! point-to-point request to the home, which consults its sharer list and
//! forwards to the owner or answers from its memory controller — the
//! machine pays probes proportional to the *actual* sharer count, never the
//! node count.
//!
//! [`Directory`] is the bookkeeping half: a map from block address to an
//! exact sharer bitset, maintained at every L2 residency transition by the
//! same `note_fill`/`note_evict` call sites that maintain the snoop filter.
//! Because the set is exact (not a hashed summary), the candidate list it
//! hands the memory system equals the true holder set — debug builds verify
//! that against a full broadcast scan, the same differential discipline the
//! snoop filter uses. The protocol state machine itself (MOSI/MESI/MOESI
//! transitions) is unchanged from snooping, so a directory machine reaches
//! the same cache states as a snooping machine given the same accesses;
//! only timing and probe counts differ. `crates/sim/tests/coherence_diff.rs`
//! asserts exactly that.
//!
//! Like the filter, the directory is **derived state**: it is rebuilt from
//! restored cache contents after a checkpoint restore and never appears in
//! snapshot bytes. The only architectural state the directory organization
//! adds is the per-home occupancy registers, which live in the memory
//! system and are serialized only for directory configurations (snooping
//! snapshot encodings are byte-identical to before the directory existed).

use std::collections::HashMap;

use super::filter::{region_of, words_for};
use crate::hash::BuildMix64;
use crate::ids::BlockAddr;

/// The home node of `addr` on a `cpus`-node machine: the region hash spread
/// over the nodes, so consecutive regions interleave their directory load.
#[inline]
pub fn home_of(addr: BlockAddr, cpus: usize) -> usize {
    region_of(addr) % cpus
}

/// Exact per-block sharer bitsets, conceptually sharded across the home
/// nodes (the shard key — [`home_of`] — matters only for timing, so one map
/// holds them all).
#[derive(Debug, Clone)]
pub struct Directory {
    /// Sharer bitset per block, one `u64` word per 64 nodes. Entries whose
    /// bits have all cleared are kept (zeroed) rather than removed, so the
    /// steady state never reallocates; equality treats them as absent.
    /// Keys hash with [`mix64`](crate::hash::mix64), the same in every
    /// process; they are the simulated machine's own block addresses, not
    /// input from outside the program.
    entries: HashMap<BlockAddr, Box<[u64]>, BuildMix64>,
    /// Node count.
    cpus: usize,
    /// `u64` words per sharer bitset: `ceil(cpus / 64)`.
    words: usize,
    /// All-zero word group returned for blocks with no entry.
    zeros: Box<[u64]>,
}

impl Directory {
    /// Creates the directory for a machine with `cpus` nodes (all caches
    /// empty).
    pub fn new(cpus: usize) -> Self {
        let words = words_for(cpus);
        Directory {
            entries: HashMap::default(),
            cpus,
            words,
            zeros: vec![0; words].into_boxed_slice(),
        }
    }

    /// Node count the directory tracks.
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    /// The exact sharer bitset for `addr`, one `u64` word per 64 nodes (bit
    /// `i` of word `i / 64` covers node `i`). Unlike the snoop filter's
    /// conservative region summary, a set bit here proves the node holds a
    /// valid copy of this very block.
    #[inline]
    pub fn candidates(&self, addr: BlockAddr) -> &[u64] {
        self.entries.get(&addr).map_or(&self.zeros, |s| s)
    }

    /// Whether node `cpu` holds a valid copy of `addr`.
    #[inline]
    pub fn is_sharer(&self, cpu: usize, addr: BlockAddr) -> bool {
        self.candidates(addr)[cpu / 64] & (1u64 << (cpu % 64)) != 0
    }

    /// Number of nodes holding a valid copy of `addr`.
    pub fn sharer_count(&self, addr: BlockAddr) -> u32 {
        self.candidates(addr).iter().map(|w| w.count_ones()).sum()
    }

    /// Records that node `cpu`'s L2 gained a block it did not hold before.
    #[inline]
    pub fn note_fill(&mut self, cpu: usize, addr: BlockAddr) {
        let words = self.words;
        let set = self
            .entries
            .entry(addr)
            .or_insert_with(|| vec![0; words].into_boxed_slice());
        let bit = 1u64 << (cpu % 64);
        debug_assert!(
            set[cpu / 64] & bit == 0,
            "directory fill for a node already recorded as a sharer"
        );
        set[cpu / 64] |= bit;
    }

    /// Records that node `cpu`'s L2 lost a block it held (eviction or
    /// invalidation of a resident copy).
    #[inline]
    pub fn note_evict(&mut self, cpu: usize, addr: BlockAddr) {
        let set = self
            .entries
            .get_mut(&addr)
            .expect("directory eviction for an untracked block");
        let bit = 1u64 << (cpu % 64);
        debug_assert!(
            set[cpu / 64] & bit != 0,
            "directory eviction for a node not recorded as a sharer"
        );
        set[cpu / 64] &= !bit;
    }

    /// Number of blocks with at least one recorded sharer (for tests).
    pub fn tracked_blocks(&self) -> usize {
        self.entries
            .values()
            .filter(|s| s.iter().any(|&w| w != 0))
            .count()
    }
}

/// Equality over the *live* sharer sets only: entries whose bits have all
/// cleared are bookkeeping residue (kept to avoid steady-state reallocation)
/// and must not distinguish a long-running directory from one just rebuilt
/// out of a checkpoint.
impl PartialEq for Directory {
    fn eq(&self, other: &Self) -> bool {
        let live = |d: &Self| {
            d.entries
                .iter()
                .filter(|(_, s)| s.iter().any(|&w| w != 0))
                .map(|(&a, s)| (a, s.clone()))
                .collect::<HashMap<_, _>>()
        };
        self.cpus == other.cpus && live(self) == live(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_evict_track_exact_sharers() {
        let mut d = Directory::new(64);
        let a = BlockAddr(0x40);
        assert_eq!(d.sharer_count(a), 0);
        d.note_fill(0, a);
        d.note_fill(63, a);
        d.note_fill(17, a);
        assert_eq!(d.sharer_count(a), 3);
        assert!(d.is_sharer(63, a) && !d.is_sharer(62, a));
        d.note_evict(63, a);
        assert_eq!(d.sharer_count(a), 2);
        assert!(!d.is_sharer(63, a));
    }

    #[test]
    fn wide_machines_split_sharers_across_words() {
        let mut d = Directory::new(128);
        let a = BlockAddr(7);
        d.note_fill(64, a);
        d.note_fill(127, a);
        assert_eq!(d.candidates(a).len(), 2);
        assert_eq!(d.candidates(a)[0], 0);
        assert_eq!(d.candidates(a)[1], (1 << 0) | (1 << 63));
    }

    #[test]
    fn zeroed_entries_do_not_break_equality() {
        let mut lived = Directory::new(8);
        let a = BlockAddr(1);
        let b = BlockAddr(2);
        lived.note_fill(3, a);
        lived.note_fill(5, b);
        lived.note_evict(5, b); // leaves a zeroed entry for `b`
        let mut rebuilt = Directory::new(8);
        rebuilt.note_fill(3, a);
        assert_eq!(lived, rebuilt);
        assert_eq!(lived.tracked_blocks(), 1);
    }

    #[test]
    fn homes_interleave_across_nodes() {
        let homes: std::collections::HashSet<usize> = (0..1024u64)
            .map(|i| home_of(BlockAddr(0x10_0000 + i * 64), 64))
            .collect();
        assert!(
            homes.len() > 48,
            "1024 blocks homed on only {} of 64 nodes",
            homes.len()
        );
    }
}
