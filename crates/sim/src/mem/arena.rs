//! Process-wide decode arena: recycled buffers for machine builds, snapshot
//! restore and fork launch.
//!
//! The buffers that dominate a launch round are the cache arrays' slot
//! storage and slot tables (`mem::cache`), the sharer table
//! (`mem::sharers`), and — per fork — the private chunk buffers and chunk
//! maps of the copy-on-write arrays (`mem::cow`). All have the same lifetime
//! shape in a sweep: decode a template, fork it N times, run the forks, drop
//! everything, decode the next template. Allocating them fresh every round
//! puts `alloc`/`free` pairs, and worse the page faults of never-touched
//! memory, on the launch path of every run: a fork that grew a fresh
//! private buffer per array ran slower than one that copied every array
//! whole.
//!
//! The arena breaks that cycle. The process keeps one small pool of retired
//! buffers per element type; every copy-on-write buffer (base, private and
//! map alike) and the sharer table's slots is a `Recycled` vector that
//! returns its backing storage here on drop, whichever thread drops it.
//! Everything that takes one of those buffers takes it from here when one
//! fits, on whichever thread it runs: `Machine::new` (every cache array and
//! the sharer table) on a warming worker or a sweep's caller, the snapshot
//! decode, clones and first writes on the executor's workers, the live
//! chain's advances on its own thread. So a buffer retired on a thread that
//! never builds or decodes again — the caller of a one-thread sweep, a
//! daemon dispatcher between jobs, a chain thread that has exited — serves
//! the next thread that does, instead of sitting resident while that thread
//! faults in fresh pages. Steady-state sweep launches therefore hit the
//! allocator only for the small per-run containers (event wheel, scheduler
//! queues) — the arrays circulate through the pool.
//!
//! Line storage is never zero-filled. A cache array (built or decoded) takes
//! its slot storage with `Recycled::with_capacity` at room for every set, and
//! a fork its private buffer at the size of the storage it forks; each grows
//! by appending a chunk of default lines, which it writes itself. So a
//! pooled line buffer is only as resident as the slot prefixes its earlier
//! users wrote, and a fresh one only as resident as its own.
//!
//! The pools sit behind one mutex, held only to pick or park a buffer,
//! never while one is written. The caps bound each pool for the whole
//! process: that is the bound on what a long-lived process keeps parked.
//! Buffers are handed out *dirty* and retired as they are: no memset on
//! return. A caller that appends (slot storage, a fork's private buffer)
//! writes every element it exposes itself; `zeroed`, the one door for
//! zero-filled buffers (slot tables, sharer tables), refills a pool
//! hit with zeros and serves a miss with a lazily zeroed allocation, whose
//! pages the kernel faults in on first touch.

use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

use super::cache::Line;
use super::cow::MapEntry;

/// Most buffers the process pools per element type. The paper's 16-CPU
/// machine needs 48 slot storages (and 48 slot tables) per template and up
/// to 48 private buffers of each per written fork; a 64-CPU template's 192
/// fit too. Anything beyond this is a workload churning through
/// geometries, and fresh allocation is the right answer there.
const MAX_POOLED_BUFS: usize = 256;

/// Byte ceiling per pool for the whole process, counted by capacity. A
/// 64-CPU machine's slot storages have room for ~71 MB of lines (of which a
/// run writes a few percent); one full machine's worth of recycled buffers
/// is the working set the arena exists to serve, and the cap keeps a pathological
/// mix of geometries from pinning unbounded memory.
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

    /// Accepts a retired buffer unless the pool is at capacity; a rejected
    /// buffer comes back, for the caller to free once it has let go of the
    /// arena's lock.
    fn give(&mut self, buf: Vec<T>) -> Option<Vec<T>> {
        let bytes = buf.capacity() * size_of::<T>();
        if bytes == 0 || self.bufs.len() >= MAX_POOLED_BUFS || self.bytes + bytes > MAX_POOLED_BYTES
        {
            return Some(buf);
        }
        self.bytes += bytes;
        self.bufs.push(buf);
        None
    }
}

/// The arena's pools: slot storage and slot tables (whole and private),
/// sharer tables and the copy-on-write chunk maps.
///
/// Every pool holds plain `Vec`s of `Copy` elements, so nothing the pools
/// drop runs arena code. Keep it that way: a `Recycled` dropped while the
/// lock is held would re-enter `give` and deadlock on the lock — a
/// thread-local `RefCell` arena only panicked there.
pub(crate) struct Pools {
    /// Cache arrays' slot storage (whole and private).
    lines: Pool<Line>,
    /// Sharer tables (`[key, sharers]` pairs of `u64`, 16 bytes a slot):
    /// 0.25–1 MB for the paper's 16-CPU machine warmed 300–1,000
    /// transactions.
    sharers: Pool<u64>,
    /// Cache arrays' slot tables (whole and private), one `u32` per set.
    slot_tables: Pool<u32>,
    /// Every copy-on-write chunk map.
    maps: Pool<MapEntry>,
}

impl Pools {
    const fn new() -> Self {
        Pools {
            lines: Pool::new(),
            sharers: Pool::new(),
            slot_tables: Pool::new(),
            maps: Pool::new(),
        }
    }
}

/// A set of pools any thread may take from and retire into. The process has
/// one, behind [`take`], [`give`], [`zeroed`] and `Recycled`; a test can
/// drive a private one without other tests' machines drawing from it.
pub(crate) struct DecodeArena(Mutex<Pools>);

/// The process's arena.
static ARENA: DecodeArena = DecodeArena::new();

thread_local! {
    /// This thread's requests against any arena, and how many were hits.
    static TAKES: Cell<u64> = const { Cell::new(0) };
    static HITS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one request by the calling thread (nothing while it tears down).
fn count_take(hit: bool) {
    let _ = TAKES.try_with(|n| n.set(n.get() + 1));
    if hit {
        let _ = HITS.try_with(|n| n.set(n.get() + 1));
    }
}

impl DecodeArena {
    pub(crate) const fn new() -> Self {
        DecodeArena(Mutex::new(Pools::new()))
    }

    /// The pools, whatever a thread that panicked while holding them left:
    /// every pool operation updates a buffer list and its byte count
    /// together, and no pool operation panics between the two.
    fn pools(&self) -> MutexGuard<'_, Pools> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One counted request: `None` when the pool has nothing suitable.
    fn take_with<T: Pooled>(
        &self,
        pick: impl FnOnce(&mut Pool<T>) -> Option<Vec<T>>,
    ) -> Option<Vec<T>> {
        let got = pick(T::pool(&mut self.pools()));
        count_take(got.is_some());
        got
    }

    /// See [`take`].
    pub(crate) fn take<T: Pooled>(&self, min_capacity: usize) -> Option<Vec<T>> {
        self.take_with(|pool| pool.take(min_capacity))
    }

    /// See [`zeroed`]. The refill runs after the lock is released.
    pub(crate) fn zeroed<T: Pooled>(&self, len: usize) -> Vec<T> {
        match self.take(len) {
            Some(mut buf) => {
                buf.resize(len, T::default());
                buf
            }
            // For the integer types `vec!` asks the allocator for zeroed
            // memory, which the kernel faults in only on first touch.
            None => vec![T::default(); len],
        }
    }

    /// See [`give`]. A rejected buffer is freed after the lock is released.
    pub(crate) fn give<T: Pooled>(&self, buf: Vec<T>) {
        let rejected = T::pool(&mut self.pools()).give(buf);
        drop(rejected);
    }

    /// The calling thread's counters and this arena's parked buffers.
    fn stats(&self) -> ArenaStats {
        let pools = self.pools();
        ArenaStats {
            takes: TAKES.try_with(Cell::get).unwrap_or(0),
            hits: HITS.try_with(Cell::get).unwrap_or(0),
            pooled_buffers: pools.lines.bufs.len()
                + pools.sharers.bufs.len()
                + pools.slot_tables.bufs.len()
                + pools.maps.bufs.len(),
            pooled_bytes: pools.lines.bytes
                + pools.sharers.bytes
                + pools.slot_tables.bytes
                + pools.maps.bytes,
        }
    }
}

/// An element type the arena pools buffers of; names its pool.
pub(crate) trait Pooled: Copy + Default + 'static {
    /// The pool of `Vec<Self>` buffers inside an arena.
    fn pool(pools: &mut Pools) -> &mut Pool<Self>;
}

impl Pooled for Line {
    fn pool(pools: &mut Pools) -> &mut Pool<Self> {
        &mut pools.lines
    }
}

impl Pooled for u64 {
    fn pool(pools: &mut Pools) -> &mut Pool<Self> {
        &mut pools.sharers
    }
}

impl Pooled for u32 {
    fn pool(pools: &mut Pools) -> &mut Pool<Self> {
        &mut pools.slot_tables
    }
}

impl Pooled for MapEntry {
    fn pool(pools: &mut Pools) -> &mut Pool<Self> {
        &mut pools.maps
    }
}

/// Takes a recycled buffer with at least `min_capacity` capacity, or `None`
/// when the pool has nothing suitable (caller allocates fresh). The buffer
/// comes back empty but **dirty** — the caller must write every element it
/// exposes.
pub(crate) fn take<T: Pooled>(min_capacity: usize) -> Option<Vec<T>> {
    ARENA.take(min_capacity)
}

/// Takes a zero-filled buffer of exactly `len` elements: the one door for
/// every zero-filled simulator buffer. A retired buffer that fits is dirty,
/// so the resize-from-empty writes its zeros; a pool miss is a fresh, lazily
/// zeroed allocation.
pub(crate) fn zeroed<T: Pooled>(len: usize) -> Vec<T> {
    ARENA.zeroed(len)
}

/// Retires a buffer into the process's pool (or frees it if the pool is
/// full).
pub(crate) fn give<T: Pooled>(buf: Vec<T>) {
    ARENA.give(buf);
}

/// A `Vec` that lives in the arena's cycle: it retires into the process's
/// pool on drop, and its clones are drawn from it.
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

    /// Makes room for `extra` more elements, growing through the arena: a
    /// full buffer moves into one of at least twice its capacity (a pool
    /// hit when an earlier user retired a grown one), and retires.
    pub(crate) fn reserve(&mut self, extra: usize) {
        let need = self.0.len() + extra;
        if need > self.0.capacity() {
            *self = Self::copy_of(&self.0, need.max(2 * self.0.capacity()));
        }
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

/// A point-in-time view of the arena, for tests and benches that assert the
/// pools are actually being reused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffer requests the calling thread made (hit or miss).
    pub takes: u64,
    /// The calling thread's requests satisfied from the pool instead of the
    /// allocator.
    pub hits: u64,
    /// Retired buffers currently parked in the process's pools.
    pub pooled_buffers: usize,
    /// Total capacity (in bytes) parked in the process's pools.
    pub pooled_bytes: usize,
}

/// The calling thread's request counters and the process's parked buffers.
pub fn stats() -> ArenaStats {
    ARENA.stats()
}

/// Frees every buffer pooled in the process and resets the calling thread's
/// counters. Allocation-measuring tests call this to start from a cold
/// arena; there is never a correctness reason to call it.
pub fn clear() {
    let parked = std::mem::replace(&mut *ARENA.pools(), Pools::new());
    drop(parked);
    let _ = TAKES.try_with(|n| n.set(0));
    let _ = HITS.try_with(|n| n.set(0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_best_fit_prefers_smallest_sufficient_buffer() {
        let mut pool: Pool<Line> = Pool::new();
        assert!(pool.give(Vec::with_capacity(64)).is_none());
        assert!(pool.give(Vec::with_capacity(16)).is_none());
        assert!(pool.give(Vec::with_capacity(32)).is_none());
        let got = pool.take(20).expect("a buffer fits");
        assert_eq!(got.capacity(), 32);
        let got = pool.take(20).expect("the 64 remains");
        assert_eq!(got.capacity(), 64);
        assert!(pool.take(20).is_none());
    }

    #[test]
    fn pool_rejects_empty_and_respects_buffer_cap() {
        let mut pool: Pool<Line> = Pool::new();
        assert!(pool.give(Vec::new()).is_some());
        for _ in 0..MAX_POOLED_BUFS {
            assert!(pool.give(Vec::with_capacity(1)).is_none());
        }
        assert!(pool.give(Vec::with_capacity(1)).is_some());
    }

    // The tests below drive a private arena: every other test in this crate
    // that builds a machine takes from and retires into the process's one.

    #[test]
    fn zeroed_refills_a_dirty_hit_and_serves_a_miss_with_zeros() {
        let arena = DecodeArena::new();
        let hits = stats().hits;
        arena.give::<u64>(vec![u64::MAX; 32]);
        let words: Vec<u64> = arena.zeroed(20);
        assert_eq!(stats().hits, hits + 1, "the dirty buffer is reused");
        assert_eq!(words, vec![0; 20]);
        let missed: Vec<u64> = arena.zeroed(64);
        assert_eq!(stats().hits, hits + 1, "nothing pooled fits 64 words");
        assert_eq!(missed, vec![0; 64]);
    }

    #[test]
    fn counters_are_the_calling_threads_and_parked_buffers_the_arenas() {
        let arena = DecodeArena::new();
        arena.give::<Line>(Vec::with_capacity(8));
        let before = arena.stats();
        assert_eq!(before.pooled_buffers, 1);
        assert_eq!(before.pooled_bytes, 8 * size_of::<Line>());
        let took = arena.take::<Line>(4).expect("pooled buffer fits");
        assert_eq!(took.capacity(), 8);
        let after = arena.stats();
        assert_eq!(after.takes, before.takes + 1);
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!((after.pooled_buffers, after.pooled_bytes), (0, 0));
        // Another thread's requests count on that thread alone.
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(arena.take::<Line>(4).is_none());
                assert_eq!((stats().takes, stats().hits), (1, 0));
            });
        });
        assert_eq!(arena.stats(), after);
    }

    #[test]
    fn clear_resets_the_calling_threads_counters() {
        drop(take::<u32>(1));
        assert!(stats().takes > 0);
        clear();
        assert_eq!((stats().takes, stats().hits), (0, 0));
    }

    /// Floods one pool from four threads at once with more buffers and more
    /// bytes than its caps admit, then takes one back on this thread, which
    /// retired nothing.
    fn flood<T: Pooled>() {
        const THREADS: usize = 4;
        // 60 buffers of 1 MiB per thread: 240 MiB against the byte cap;
        // 40 one-element buffers per thread on top: 400 against the count
        // cap.
        let big = (1 << 20) / size_of::<T>();
        let arena = DecodeArena::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let arena = &arena;
                s.spawn(move || {
                    for i in 0..100 {
                        let capacity = if i % 5 < 3 { big + t } else { 1 };
                        arena.give(Vec::<T>::with_capacity(capacity));
                    }
                });
            }
        });
        {
            let mut pools = arena.pools();
            let pool = T::pool(&mut pools);
            let parked: usize = pool.bufs.iter().map(|b| b.capacity()).sum();
            assert_eq!(pool.bytes, parked * size_of::<T>());
            assert!(
                pool.bytes <= MAX_POOLED_BYTES && pool.bufs.len() <= MAX_POOLED_BUFS,
                "{} bytes in {} buffers",
                pool.bytes,
                pool.bufs.len()
            );
            // However the threads interleaved, the small buffers fill
            // whatever the byte cap leaves of the count.
            assert_eq!(pool.bufs.len(), MAX_POOLED_BUFS);
        }
        let hits = stats().hits;
        let buf: Vec<T> = arena.take(big).expect("a buffer retired on another thread");
        assert!((big..big + THREADS).contains(&buf.capacity()));
        assert_eq!(stats().hits, hits + 1);
    }

    #[test]
    fn four_threads_retiring_at_once_stay_within_both_caps() {
        flood::<Line>();
        flood::<u64>();
        flood::<u32>();
        flood::<MapEntry>();
    }
}
