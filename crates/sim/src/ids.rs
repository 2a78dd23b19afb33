//! Identifier newtypes shared across the simulator.
//!
//! Cycles, processors, threads, locks and cache blocks all live in `u64`/`u32`
//! space; these newtypes keep them from being confused for one another
//! (C-NEWTYPE) at zero runtime cost.

use std::fmt;

/// A point in simulated time, measured in cycles of the 1 GHz system clock.
///
/// The paper's target machine runs at 1 GHz, so **one cycle is one
/// nanosecond**; all the latencies quoted in §3.2.1 (80 ns DRAM, 50 ns per
/// network traversal, ...) convert one-to-one.
pub type Cycle = u64;

/// A duration in nanoseconds. At the paper's 1 GHz clock this equals a
/// duration in [`Cycle`]s, but configuration values are specified in
/// nanoseconds to match the paper's text.
pub type Nanos = u64;

/// A processor (node) index in the simulated multiprocessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CpuId(pub u32);

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

impl CpuId {
    /// The index as a `usize`, for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A software thread index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(pub u32);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl ThreadId {
    /// The index as a `usize`, for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A lock (mutex) identifier within the workload's lock namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LockId(pub u32);

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lock{}", self.0)
    }
}

/// A cache-block-granular physical address.
///
/// The simulator never needs sub-block offsets, so addresses are stored
/// directly at block granularity (one unit = one 64-byte block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk{:#x}", self.0)
    }
}

crate::impl_snap!(CpuId(u32));
crate::impl_snap!(ThreadId(u32));
crate::impl_snap!(LockId(u32));
crate::impl_snap!(BlockAddr(u64));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display() {
        assert_eq!(CpuId(3).to_string(), "cpu3");
        assert_eq!(ThreadId(12).to_string(), "t12");
        assert_eq!(LockId(0).to_string(), "lock0");
        assert_eq!(BlockAddr(0x10).to_string(), "blk0x10");
    }

    #[test]
    fn ids_order_and_index() {
        assert!(CpuId(1) < CpuId(2));
        assert_eq!(ThreadId(5).index(), 5);
        assert_eq!(CpuId(7).index(), 7);
    }
}
