//! Exact L2 residency: which nodes' L2 caches hold each block.
//!
//! Every coherence transaction asks one question of the machine: which
//! *other* L2s hold this block? A miss probes exactly those nodes for an
//! owner, and a write invalidates exactly those. [`SharerTable`] answers it
//! for every protocol. It maps each block to one `u64` of sharer bits (bit
//! *i* set while node *i*'s L2 holds a valid copy), so a machine has at
//! most [`MAX_CPUS`] nodes. The set is exact, so the candidates it hands the
//! memory system are the true holders. Debug builds check every miss and
//! every invalidation against a full broadcast scan.
//!
//! The transport decides only where a transaction serializes: snooping at
//! the root switch, the `Dir*` protocols at the block's home node
//! ([`home_of`]). Both probe the same sharers, so a snooping and a directory
//! machine issue the same probes for the same accesses.
//!
//! The table is **derived state**: the fill, eviction and invalidation call
//! sites keep it in step, and a restore rebuilds it from the decoded L2
//! contents. It never appears in snapshot bytes.
//!
//! [`MAX_CPUS`]: crate::config::MAX_CPUS

use super::arena::{zeroed, Recycled};
use crate::hash::GOLDEN_GAMMA;
use crate::ids::BlockAddr;

/// The home node of `addr` on a `cpus`-node machine: the top 16 bits of a
/// Fibonacci hash of the address, spread over the nodes, so consecutive
/// blocks interleave their directory load.
#[inline]
pub fn home_of(addr: BlockAddr, cpus: usize) -> usize {
    ((addr.0.wrapping_mul(GOLDEN_GAMMA) >> 48) as usize) % cpus
}

/// Fewest slots a table has: 16 KB, enough that a new machine's first
/// misses do not rehash.
const MIN_SLOTS: usize = 1024;

/// Slots for a table holding `keys` keys at most three quarters full.
fn slots_for(keys: usize) -> usize {
    (keys + keys.div_ceil(3)).next_power_of_two().max(MIN_SLOTS)
}

/// Exact sharer bits per block: an open-addressed table of `[key,
/// sharers]` pairs with linear probing, in one arena buffer that a fork
/// copies whole.
///
/// A slot whose key is 0 has never been used and ends every probe, so block
/// 0 keeps its sharers beside the table. A slot whose sharers have all left
/// is *emptied*: it keeps its key and stays in its probe chain, and the
/// next new block whose probe passes it takes it. A rehash, when keyed slots
/// pass three quarters of the table, drops the emptied ones. Equality
/// compares live sharer sets only, so a long-running table equals one just
/// rebuilt from a checkpoint.
#[derive(Debug, Clone)]
pub struct SharerTable {
    /// `[key, sharers]` pairs; the slot count is a power of two.
    slots: Recycled<u64>,
    /// Sharer bits of block 0, whose key marks a never-used slot.
    zero: u64,
    /// Slots holding a key, live or emptied.
    used: usize,
    /// `64 - log2(slot count)`: the home slot is a key's hash shifted
    /// right by this.
    shift: u32,
}

impl SharerTable {
    /// An empty table with room for `keys` blocks before its first rehash.
    pub fn with_room_for(keys: usize) -> Self {
        Self::with_slots(slots_for(keys))
    }

    fn with_slots(slots: usize) -> Self {
        SharerTable {
            slots: Recycled(zeroed(2 * slots)),
            zero: 0,
            used: 0,
            shift: 64 - slots.trailing_zeros(),
        }
    }

    /// The nodes holding a valid copy of `addr`: bit `i` for node `i`.
    #[inline]
    pub fn sharers(&self, addr: BlockAddr) -> u64 {
        if addr.0 == 0 {
            return self.zero;
        }
        match self.find(addr.0) {
            Ok(i) => self.slots.0[2 * i + 1],
            Err(_) => 0,
        }
    }

    /// Records that node `cpu`'s L2 gained `addr`, which it did not hold.
    #[inline]
    pub fn note_fill(&mut self, cpu: usize, addr: BlockAddr) {
        let bit = 1u64 << cpu;
        if addr.0 == 0 {
            debug_assert!(self.zero & bit == 0, "fill for a recorded sharer");
            self.zero |= bit;
            return;
        }
        match self.find(addr.0) {
            Ok(i) => {
                debug_assert!(
                    self.slots.0[2 * i + 1] & bit == 0,
                    "fill for a recorded sharer"
                );
                self.slots.0[2 * i + 1] |= bit;
            }
            Err(i) => {
                let fresh = self.slots.0[2 * i] == 0;
                self.slots.0[2 * i] = addr.0;
                self.slots.0[2 * i + 1] = bit;
                if fresh {
                    self.used += 1;
                    if 4 * self.used > 3 * self.capacity() {
                        self.rehash();
                    }
                }
            }
        }
    }

    /// Records that node `cpu`'s L2 lost `addr` (eviction or invalidation
    /// of a valid copy).
    #[inline]
    pub fn note_evict(&mut self, cpu: usize, addr: BlockAddr) {
        let bit = 1u64 << cpu;
        let sharers = if addr.0 == 0 {
            &mut self.zero
        } else {
            let i = self
                .find(addr.0)
                .expect("eviction of a block with no sharers");
            &mut self.slots.0[2 * i + 1]
        };
        debug_assert!(*sharers & bit != 0, "eviction by a node that held no copy");
        *sharers &= !bit;
    }

    /// Blocks with at least one sharer.
    pub fn live_blocks(&self) -> usize {
        self.live().count() + usize::from(self.zero != 0)
    }

    /// Slots holding a key, live or emptied.
    pub fn entries(&self) -> usize {
        self.used
    }

    fn capacity(&self) -> usize {
        self.slots.0.len() / 2
    }

    /// Moves the live entries into a table with room for as many again (or
    /// one of the same size, if that is larger), dropping emptied slots.
    fn rehash(&mut self) {
        let slots = slots_for(2 * self.live().count()).max(self.capacity());
        let mut table = Self::with_slots(slots);
        table.zero = self.zero;
        for (key, sharers) in self.live() {
            let (Ok(i) | Err(i)) = table.find(key);
            table.slots.0[2 * i] = key;
            table.slots.0[2 * i + 1] = sharers;
            table.used += 1;
        }
        *self = table;
    }

    /// The slot where `key`'s probe starts: the top bits of its Fibonacci
    /// hash.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(GOLDEN_GAMMA) >> self.shift) as usize
    }

    /// The slot holding `key` (nonzero), or else the slot a new `key`
    /// takes: the first emptied slot its probe passed, if any, else the
    /// never-used slot that ended the probe.
    #[inline]
    fn find(&self, key: u64) -> Result<usize, usize> {
        let mask = self.capacity() - 1;
        let mut i = self.home(key);
        let mut emptied = None;
        loop {
            match self.slots.0[2 * i] {
                k if k == key => return Ok(i),
                0 => return Err(emptied.unwrap_or(i)),
                _ if emptied.is_none() && self.slots.0[2 * i + 1] == 0 => emptied = Some(i),
                _ => {}
            }
            i = (i + 1) & mask;
        }
    }

    /// Live `(key, sharers)` pairs in the table (block 0 aside).
    fn live(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.slots
            .0
            .chunks_exact(2)
            .filter(|pair| pair[0] != 0 && pair[1] != 0)
            .map(|pair| (pair[0], pair[1]))
    }
}

impl PartialEq for SharerTable {
    fn eq(&self, other: &Self) -> bool {
        self.zero == other.zero
            && self.live_blocks() == other.live_blocks()
            && self
                .live()
                .all(|(key, sharers)| other.sharers(BlockAddr(key)) == sharers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `n` keys above `key` that share its home slot.
    fn colliding(table: &SharerTable, key: u64, n: usize) -> Vec<u64> {
        let home = table.home(key);
        (key + 1..)
            .filter(|&k| table.home(k) == home)
            .take(n)
            .collect()
    }

    #[test]
    fn fill_and_evict_track_exact_sharers() {
        let mut t = SharerTable::with_room_for(0);
        for addr in [BlockAddr(0x40), BlockAddr(0), BlockAddr(u64::MAX)] {
            assert_eq!(t.sharers(addr), 0);
            t.note_fill(0, addr);
            t.note_fill(63, addr);
            t.note_fill(17, addr);
            assert_eq!(t.sharers(addr), (1 << 0) | (1 << 17) | (1 << 63));
            t.note_evict(63, addr);
            assert_eq!(t.sharers(addr), (1 << 0) | (1 << 17));
        }
        assert_eq!(t.live_blocks(), 3);
        assert_eq!(t.entries(), 2, "block 0 sits beside the table");
    }

    #[test]
    fn a_new_block_takes_the_first_emptied_slot_its_probe_passes() {
        let mut t = SharerTable::with_room_for(0);
        let a = 0x1000;
        let [b, c] = colliding(&t, a, 2)[..] else {
            unreachable!()
        };
        t.note_fill(1, BlockAddr(a));
        t.note_fill(2, BlockAddr(b));
        t.note_evict(1, BlockAddr(a));
        assert_eq!(t.entries(), 2, "an emptied slot keeps its key");
        // `b` sits past the emptied slot: a fill for it must find it there.
        t.note_fill(3, BlockAddr(b));
        assert_eq!(t.sharers(BlockAddr(b)), 0b1100);
        assert_eq!(t.entries(), 2);
        // `c` is new: it takes `a`'s emptied slot instead of a fresh one.
        t.note_fill(4, BlockAddr(c));
        assert_eq!(t.entries(), 2);
        assert_eq!(t.slots.0[2 * t.home(a)], c);
        assert_eq!(t.sharers(BlockAddr(a)), 0);
        assert_eq!(t.sharers(BlockAddr(c)), 1 << 4);
    }

    #[test]
    fn a_rehash_keeps_live_blocks_and_drops_emptied_ones() {
        let mut t = SharerTable::with_room_for(0);
        let blocks = 3 * MIN_SLOTS;
        for k in 1..=blocks as u64 {
            t.note_fill((k % 64) as usize, BlockAddr(k));
            if k % 2 == 0 {
                t.note_evict((k % 64) as usize, BlockAddr(k));
            }
        }
        assert!(t.capacity() > MIN_SLOTS, "the table grew");
        assert!(4 * t.entries() <= 3 * t.capacity());
        assert_eq!(t.live_blocks(), blocks / 2);
        for k in 1..=blocks as u64 {
            let want = if k % 2 == 0 { 0 } else { 1 << (k % 64) };
            assert_eq!(t.sharers(BlockAddr(k)), want, "block {k}");
        }
    }

    #[test]
    fn equality_ignores_emptied_entries() {
        let mut lived = SharerTable::with_room_for(0);
        let (a, b) = (BlockAddr(1), BlockAddr(2));
        lived.note_fill(3, a);
        lived.note_fill(5, b);
        lived.note_evict(5, b);
        let mut rebuilt = SharerTable::with_room_for(1);
        rebuilt.note_fill(3, a);
        assert_eq!(lived, rebuilt);
        assert_eq!((lived.entries(), rebuilt.entries()), (2, 1));
        rebuilt.note_fill(6, b);
        assert_ne!(lived, rebuilt);
    }

    #[test]
    fn homes_keep_their_hash_and_interleave_across_nodes() {
        for (addr, cpus, home) in [
            (0, 16, 0),
            (1, 16, 7),
            (0x40, 64, 30),
            (0x10_0000_0040, 16, 6),
            (u64::MAX, 64, 8),
            (12_345, 24, 4),
        ] {
            assert_eq!(home_of(BlockAddr(addr), cpus), home, "block {addr:#x}");
        }
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
