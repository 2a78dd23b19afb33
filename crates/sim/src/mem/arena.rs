//! Thread-local decode arena: recycled buffers for snapshot restore and
//! fork launch.
//!
//! The buffers that dominate a template decode are the dense line arrays
//! (megabytes per L2) and the resident-line seeds built alongside them.
//! Both have the same lifetime shape in a sweep: decode a template, fork
//! it N times, run the forks, drop everything, decode the next template.
//! Allocating them fresh every round puts a multi-megabyte `alloc`/`free`
//! pair on the launch path of every run.
//!
//! The arena breaks that cycle. Each worker thread keeps a small pool of
//! retired buffers; the cache's copy-on-write line store returns its
//! backing storage here on drop, and the decode / copy-on-write
//! materialization paths take a recycled buffer when one fits. Steady-state
//! sweep launches therefore hit the allocator only for the small,
//! residency-proportional state (the seed contents, scheduler queues) —
//! the line arrays circulate through the pool.
//!
//! Pools are strictly thread-local, so every thread that decodes or forks
//! gets its own arena by construction: no locks, no cross-thread traffic, and
//! a thread that decodes the same node sizes every round reaches a 100%
//! hit rate. Buffers are handed out *dirty* (the decode path zeroes the
//! gaps between resident lines itself, word-at-a-time), which is what makes
//! recycling free: no memset on return, no memset on take.

use std::cell::RefCell;

use super::cache::Line;

/// Most buffers one thread will pool. 64 CPUs × 3 arrays per node plus
/// seeds fit comfortably; anything beyond this is a workload churning
/// through geometries, and fresh allocation is the right answer there.
const MAX_POOLED_BUFS: usize = 256;

/// Byte ceiling per pool per thread. A 64-CPU machine's line arrays total
/// ~100 MB; one full machine's worth of recycled buffers is the working
/// set the arena exists to serve, and the cap keeps a pathological mix of
/// geometries from pinning unbounded memory.
const MAX_POOLED_BYTES: usize = 192 << 20;

/// A free list of retired `Vec<T>` buffers, reused by capacity.
struct Pool<T> {
    bufs: Vec<Vec<T>>,
    bytes: usize,
}

impl<T: Copy> Pool<T> {
    const fn new() -> Self {
        Pool {
            bufs: Vec::new(),
            bytes: 0,
        }
    }

    /// Takes the smallest pooled buffer with `capacity >= min_capacity`
    /// (best fit keeps the big L2 buffers available for the big requests).
    /// The returned buffer is empty but its contents are otherwise dirty.
    fn take(&mut self, min_capacity: usize) -> Option<Vec<T>> {
        let mut best: Option<(usize, usize)> = None;
        for (i, buf) in self.bufs.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= min_capacity && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
        }
        let (i, _) = best?;
        let mut buf = self.bufs.swap_remove(i);
        self.bytes -= buf.capacity() * size_of::<T>();
        buf.clear();
        Some(buf)
    }

    /// Takes the largest pooled buffer, if any — for callers that cannot
    /// size the request up front (the decoder's resident seed grows as the
    /// run-length walk discovers lines).
    fn take_largest(&mut self) -> Option<Vec<T>> {
        let mut best: Option<(usize, usize)> = None;
        for (i, buf) in self.bufs.iter().enumerate() {
            let cap = buf.capacity();
            if best.is_none_or(|(_, c)| cap > c) {
                best = Some((i, cap));
            }
        }
        let (i, _) = best?;
        let mut buf = self.bufs.swap_remove(i);
        self.bytes -= buf.capacity() * size_of::<T>();
        buf.clear();
        Some(buf)
    }

    /// Accepts a retired buffer unless the pool is at capacity; returns
    /// whether it was kept. Rejected buffers just drop (a plain free).
    fn give(&mut self, buf: Vec<T>) -> bool {
        let bytes = buf.capacity() * size_of::<T>();
        if bytes == 0 || self.bufs.len() >= MAX_POOLED_BUFS || self.bytes + bytes > MAX_POOLED_BYTES
        {
            return false;
        }
        self.bytes += bytes;
        self.bufs.push(buf);
        true
    }

    fn clear(&mut self) {
        self.bufs.clear();
        self.bytes = 0;
    }
}

/// One thread's decode arena: pooled line arrays, resident seeds, and the
/// snoop filter's presence/count arrays, plus reuse counters for the
/// observability API.
struct DecodeArena {
    lines: Pool<Line>,
    resident: Pool<(u32, Line)>,
    /// Snoop-filter presence bitsets (`REGIONS x words` of `u64`).
    words: Pool<u64>,
    /// Snoop-filter residency counts (`REGIONS x cpus` of `u32`) — at 4 MB
    /// for the paper's 16-CPU machine, the single largest non-line buffer
    /// a fork clones.
    counts: Pool<u32>,
    takes: u64,
    hits: u64,
}

impl DecodeArena {
    const fn new() -> Self {
        DecodeArena {
            lines: Pool::new(),
            resident: Pool::new(),
            words: Pool::new(),
            counts: Pool::new(),
            takes: 0,
            hits: 0,
        }
    }
}

thread_local! {
    static ARENA: RefCell<DecodeArena> = const { RefCell::new(DecodeArena::new()) };
}

/// Takes a recycled line buffer with at least `min_capacity` capacity, or
/// `None` when the pool has nothing suitable (caller allocates fresh).
/// The buffer comes back empty but **dirty** — the caller must write every
/// element it exposes.
pub(crate) fn take_lines(min_capacity: usize) -> Option<Vec<Line>> {
    ARENA
        .try_with(|arena| {
            let mut arena = arena.borrow_mut();
            arena.takes += 1;
            let got = arena.lines.take(min_capacity);
            if got.is_some() {
                arena.hits += 1;
            }
            got
        })
        .ok()
        .flatten()
}

/// Retires a line buffer into this thread's pool (or frees it if the pool
/// is full / the thread is tearing down).
pub(crate) fn give_lines(buf: Vec<Line>) {
    let _kept = ARENA
        .try_with(|arena| arena.borrow_mut().lines.give(buf))
        .unwrap_or(false);
}

/// Takes the largest recycled resident-seed buffer, or an empty `Vec` when
/// the pool is dry. The seed's final size is only known after the
/// run-length walk, so "largest available" is the fit policy.
pub(crate) fn take_resident() -> Vec<(u32, Line)> {
    ARENA
        .try_with(|arena| {
            let mut arena = arena.borrow_mut();
            arena.takes += 1;
            let got = arena.resident.take_largest();
            if got.is_some() {
                arena.hits += 1;
            }
            got
        })
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Retires a resident-seed buffer into this thread's pool.
pub(crate) fn give_resident(buf: Vec<(u32, Line)>) {
    let _kept = ARENA
        .try_with(|arena| arena.borrow_mut().resident.give(buf))
        .unwrap_or(false);
}

/// Takes a recycled `u64` buffer (snoop-filter presence words) with at
/// least `min_capacity` capacity. Empty-but-dirty, like [`take_lines`].
pub(crate) fn take_u64s(min_capacity: usize) -> Option<Vec<u64>> {
    ARENA
        .try_with(|arena| {
            let mut arena = arena.borrow_mut();
            arena.takes += 1;
            let got = arena.words.take(min_capacity);
            if got.is_some() {
                arena.hits += 1;
            }
            got
        })
        .ok()
        .flatten()
}

/// Retires a `u64` buffer into this thread's pool.
pub(crate) fn give_u64s(buf: Vec<u64>) {
    let _kept = ARENA
        .try_with(|arena| arena.borrow_mut().words.give(buf))
        .unwrap_or(false);
}

/// Takes a recycled `u32` buffer (snoop-filter residency counts) with at
/// least `min_capacity` capacity. Empty-but-dirty, like [`take_lines`].
pub(crate) fn take_u32s(min_capacity: usize) -> Option<Vec<u32>> {
    ARENA
        .try_with(|arena| {
            let mut arena = arena.borrow_mut();
            arena.takes += 1;
            let got = arena.counts.take(min_capacity);
            if got.is_some() {
                arena.hits += 1;
            }
            got
        })
        .ok()
        .flatten()
}

/// Retires a `u32` buffer into this thread's pool.
pub(crate) fn give_u32s(buf: Vec<u32>) {
    let _kept = ARENA
        .try_with(|arena| arena.borrow_mut().counts.give(buf))
        .unwrap_or(false);
}

/// A point-in-time view of this thread's arena, for tests and benches that
/// assert the pools are actually being reused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffer requests served by this thread's arena (hit or miss).
    pub takes: u64,
    /// Requests satisfied from the pool instead of the allocator.
    pub hits: u64,
    /// Retired buffers currently parked in the pools.
    pub pooled_buffers: usize,
    /// Total capacity (in bytes) parked in the pools.
    pub pooled_bytes: usize,
}

/// Snapshot of the calling thread's arena counters.
pub fn stats() -> ArenaStats {
    ARENA
        .try_with(|arena| {
            let arena = arena.borrow();
            ArenaStats {
                takes: arena.takes,
                hits: arena.hits,
                pooled_buffers: arena.lines.bufs.len()
                    + arena.resident.bufs.len()
                    + arena.words.bufs.len()
                    + arena.counts.bufs.len(),
                pooled_bytes: arena.lines.bytes
                    + arena.resident.bytes
                    + arena.words.bytes
                    + arena.counts.bytes,
            }
        })
        .unwrap_or_default()
}

/// Frees every buffer pooled by the calling thread and resets its
/// counters. Allocation-measuring tests call this to start from a cold
/// arena; there is never a correctness reason to call it.
pub fn clear() {
    let _ = ARENA.try_with(|arena| {
        let mut arena = arena.borrow_mut();
        arena.lines.clear();
        arena.resident.clear();
        arena.words.clear();
        arena.counts.clear();
        arena.takes = 0;
        arena.hits = 0;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_best_fit_prefers_smallest_sufficient_buffer() {
        let mut pool: Pool<Line> = Pool::new();
        assert!(pool.give(Vec::with_capacity(64)));
        assert!(pool.give(Vec::with_capacity(16)));
        assert!(pool.give(Vec::with_capacity(32)));
        let got = pool.take(20).expect("a buffer fits");
        assert_eq!(got.capacity(), 32);
        let got = pool.take(20).expect("the 64 remains");
        assert_eq!(got.capacity(), 64);
        assert!(pool.take(20).is_none());
    }

    #[test]
    fn pool_rejects_empty_and_respects_buffer_cap() {
        let mut pool: Pool<Line> = Pool::new();
        assert!(!pool.give(Vec::new()));
        for _ in 0..MAX_POOLED_BUFS {
            assert!(pool.give(Vec::with_capacity(1)));
        }
        assert!(!pool.give(Vec::with_capacity(1)));
    }

    #[test]
    fn clear_resets_stats_and_drops_pools() {
        clear();
        give_lines(Vec::with_capacity(8));
        let before = stats();
        assert_eq!(before.pooled_buffers, 1);
        let took = take_lines(4).expect("pooled buffer fits");
        assert_eq!(took.capacity(), 8);
        let after = stats();
        assert_eq!(after.takes, 1);
        assert_eq!(after.hits, 1);
        clear();
        assert_eq!(stats(), ArenaStats::default());
    }
}
