//! Thread-local decode arena: recycled buffers for machine builds, snapshot
//! restore and fork launch.
//!
//! The buffers that dominate a launch round are the dense line arrays a
//! template decode fills (megabytes per L2), the resident-line seeds and
//! residency bitmaps built alongside them, the snoop filter's count and
//! presence arrays, and — per
//! fork — the private chunk buffers and chunk maps of the copy-on-write
//! arrays (`mem::cow`). All have the same lifetime shape in a sweep:
//! decode a template, fork it N times, run the forks, drop everything,
//! decode the next template. Allocating them fresh every round puts
//! `alloc`/`free` pairs, and worse the page faults of never-touched memory,
//! on the launch path of every run: a fork that grew a fresh private buffer
//! per array ran slower than one that copied every array whole.
//!
//! The arena breaks that cycle. Each worker thread keeps a small pool of
//! retired buffers per element type; every copy-on-write buffer (base,
//! private and map alike, residency bitmaps included), the filter's presence
//! words and every resident seed is a `Recycled` vector that returns its
//! backing storage here on drop. Everything that takes one of those buffers
//! takes it from here when one fits: `Machine::new` (every cache array and
//! the snoop filter, through `zeroed`), the snapshot decode, clones and
//! first writes. A thread that builds a machine after dropping one — a
//! daemon worker warming job after job — reuses the dropped machine's
//! arrays instead of faulting in fresh pages while its pool fills with
//! arrays nobody takes. Steady-state sweep launches therefore hit the
//! allocator only for the small per-run containers (event wheel, scheduler
//! queues) — the arrays circulate through the pool.
//!
//! Pools are strictly thread-local, so every thread that decodes or forks
//! gets its own arena by construction: no locks, no cross-thread traffic, and
//! a thread that decodes the same node sizes every round reaches a 100%
//! hit rate. Buffers are handed out *dirty* and retired as they are: no
//! memset on return. A caller that appends (a fork's private buffer, a
//! resident seed) writes every element it exposes itself; `zeroed`, the
//! one door for zero-filled buffers, refills a pool hit with zeros and
//! serves a miss with a lazily zeroed allocation, whose pages the kernel
//! faults in on first touch — so a thread with an empty arena pays no dense
//! write for the mostly-empty arrays of a fresh machine.

use std::cell::RefCell;

use super::cache::Line;

/// Most buffers one thread will pool per element type. The paper's 16-CPU
/// machine needs 48 line arrays (and 48 residency bitmaps) per template and
/// 48 private buffers of each per written fork; a 64-CPU template's 192
/// fit too. Anything beyond this is a workload churning through
/// geometries, and fresh allocation is the right answer there.
const MAX_POOLED_BUFS: usize = 256;

/// Byte ceiling per pool per thread. A 64-CPU machine's line arrays total
/// ~71 MB; one full machine's worth of recycled buffers is the working
/// set the arena exists to serve, and the cap keeps a pathological mix of
/// geometries from pinning unbounded memory.
const MAX_POOLED_BYTES: usize = 192 << 20;

/// A free list of retired `Vec<T>` buffers, reused by capacity.
pub(crate) struct Pool<T> {
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

/// One thread's decode arena: pooled line arrays (whole and private),
/// resident seeds, the snoop filter's presence/count arrays and the
/// copy-on-write chunk maps, plus reuse counters for the observability API.
pub(crate) struct DecodeArena {
    lines: Pool<Line>,
    resident: Pool<(u32, Line)>,
    /// Snoop-filter presence bitsets (`REGIONS x words` of `u64`) and the
    /// cache arrays' residency bitmaps (whole and private).
    words: Pool<u64>,
    /// Snoop-filter residency counts (`REGIONS x cpus` of `u32`, 4 MB for
    /// the paper's 16-CPU machine) and every copy-on-write chunk map.
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

/// An element type the arena pools buffers of; names its pool and how a
/// pool miss allocates zeros.
pub(crate) trait Pooled: Copy + Default + 'static {
    /// The pool of `Vec<Self>` buffers inside one thread's arena.
    fn pool(arena: &mut DecodeArena) -> &mut Pool<Self>;

    /// `len` default elements in a fresh allocation: the miss path of
    /// [`zeroed`]. For the integer types `vec!` asks the allocator for
    /// zeroed memory, which the kernel faults in only on first touch.
    fn fresh_zeroed(len: usize) -> Vec<Self> {
        vec![Self::default(); len]
    }
}

impl Pooled for Line {
    fn pool(arena: &mut DecodeArena) -> &mut Pool<Self> {
        &mut arena.lines
    }

    /// Default (all-Invalid) lines from zeroed memory.
    ///
    /// `alloc_zeroed` hands back kernel-zeroed pages that are faulted in only
    /// on first touch, so a line array built on a pool miss (a fresh cache, a
    /// snapshot decode) costs no dense write — the scatter of resident lines
    /// touches only the pages it actually lands on, and a 4 MB L2's
    /// 65,536-line array skips the memset entirely. (`vec!` would write every
    /// line: only integer element types get the zeroed allocation.)
    fn fresh_zeroed(len: usize) -> Vec<Self> {
        if len == 0 {
            return Vec::new();
        }
        let layout = std::alloc::Layout::array::<Line>(len).expect("line array layout");
        // SAFETY: `Line` is two plain `u64`s, so every bit pattern is a
        // `Line`, and an all-zero one is the default line: Invalid (the state
        // bits of `meta` are `Invalid = 0`) with tag 0 and stamp 0 (pinned by
        // the `zeroed_lines_are_default_lines` test).
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
}

impl Pooled for (u32, Line) {
    fn pool(arena: &mut DecodeArena) -> &mut Pool<Self> {
        &mut arena.resident
    }
}

impl Pooled for u64 {
    fn pool(arena: &mut DecodeArena) -> &mut Pool<Self> {
        &mut arena.words
    }
}

impl Pooled for u32 {
    fn pool(arena: &mut DecodeArena) -> &mut Pool<Self> {
        &mut arena.counts
    }
}

/// One counted request against this thread's arena: `None` when the pool
/// has nothing suitable or the thread is tearing down.
fn take_with<T: Pooled>(pick: impl FnOnce(&mut Pool<T>) -> Option<Vec<T>>) -> Option<Vec<T>> {
    ARENA
        .try_with(|arena| {
            let mut arena = arena.borrow_mut();
            arena.takes += 1;
            let got = pick(T::pool(&mut arena));
            if got.is_some() {
                arena.hits += 1;
            }
            got
        })
        .ok()
        .flatten()
}

/// Takes a recycled buffer with at least `min_capacity` capacity, or `None`
/// when the pool has nothing suitable (caller allocates fresh). The buffer
/// comes back empty but **dirty** — the caller must write every element it
/// exposes.
pub(crate) fn take<T: Pooled>(min_capacity: usize) -> Option<Vec<T>> {
    take_with(|pool| pool.take(min_capacity))
}

/// Takes the largest recycled buffer, or an empty `Vec` when the pool is
/// dry — for the decoder's resident seed, whose final size is only known
/// after the run-length walk, so "largest available" is the fit policy.
pub(crate) fn take_largest<T: Pooled>() -> Vec<T> {
    take_with(Pool::take_largest).unwrap_or_default()
}

/// Takes a zero-filled buffer of exactly `len` elements: the one door for
/// every zero-filled simulator buffer. A retired buffer that fits is dirty,
/// so the resize-from-empty writes its zeros; a pool miss is a fresh, lazily
/// zeroed allocation ([`Pooled::fresh_zeroed`]).
pub(crate) fn zeroed<T: Pooled>(len: usize) -> Vec<T> {
    match take(len) {
        Some(mut buf) => {
            buf.resize(len, T::default());
            buf
        }
        None => T::fresh_zeroed(len),
    }
}

/// Retires a buffer into this thread's pool (or frees it if the pool is
/// full / the thread is tearing down).
pub(crate) fn give<T: Pooled>(buf: Vec<T>) {
    let _kept = ARENA
        .try_with(|arena| T::pool(&mut arena.borrow_mut()).give(buf))
        .unwrap_or(false);
}

/// A `Vec` that lives in the arena's cycle: it retires into the dropping
/// thread's pool, and its clones are drawn from the cloning thread's.
#[derive(Debug, PartialEq)]
pub(crate) struct Recycled<T: Pooled>(pub(crate) Vec<T>);

impl<T: Pooled> Recycled<T> {
    /// An empty recycled buffer with room for `capacity` elements (fresh
    /// when the arena has none that fits).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Recycled(take(capacity).unwrap_or_else(|| Vec::with_capacity(capacity)))
    }

    /// A copy of `src` in a buffer with room for `capacity` elements.
    pub(crate) fn copy_of(src: &[T], capacity: usize) -> Self {
        let mut buf = Self::with_capacity(capacity);
        buf.0.extend_from_slice(src);
        buf
    }
}

impl<T: Pooled> Clone for Recycled<T> {
    fn clone(&self) -> Self {
        Self::copy_of(&self.0, self.0.len())
    }
}

impl<T: Pooled> Drop for Recycled<T> {
    fn drop(&mut self) {
        give(std::mem::take(&mut self.0));
    }
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
    fn zeroed_refills_a_dirty_hit_and_serves_a_miss_with_zeros() {
        clear();
        give::<u64>(vec![u64::MAX; 32]);
        let words: Vec<u64> = zeroed(20);
        assert_eq!(stats().hits, 1, "the dirty buffer is reused");
        assert_eq!(words, vec![0; 20]);
        let missed: Vec<u64> = zeroed(64);
        assert_eq!(stats().hits, 1, "nothing pooled fits 64 words");
        assert_eq!(missed, vec![0; 64]);
        clear();
    }

    #[test]
    fn clear_resets_stats_and_drops_pools() {
        clear();
        give::<Line>(Vec::with_capacity(8));
        let before = stats();
        assert_eq!(before.pooled_buffers, 1);
        let took = take::<Line>(4).expect("pooled buffer fits");
        assert_eq!(took.capacity(), 8);
        let after = stats();
        assert_eq!(after.takes, 1);
        assert_eq!(after.hits, 1);
        clear();
        assert_eq!(stats(), ArenaStats::default());
    }
}
