//! Workload-level mutexes with direct-handoff semantics.
//!
//! Lock-acquisition *order* is one of the paper's §2.1 sources of space
//! variability ("locks may be acquired in different orders, resulting in
//! significant contention in one run, but not another"). The table tracks
//! holders and FIFO wait queues; contention timing and convoy formation then
//! emerge from the machine's interleaving.

use std::collections::VecDeque;

use crate::ids::{BlockAddr, Cycle, LockId, ThreadId};

/// First block address of the lock-word region. Workload data addresses must
/// stay below this (see `mtvar-workloads` region map); each lock's word lives
/// at `LOCK_REGION_BASE + lock_id` so lock handoffs generate real coherence
/// traffic on distinct blocks.
pub const LOCK_REGION_BASE: u64 = 1 << 40;

/// Outcome of an acquisition attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// The lock was free; the caller now holds it.
    Acquired,
    /// The lock is held; the caller was appended to the wait queue.
    Queued,
}

#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct LockState {
    holder: Option<ThreadId>,
    waiters: VecDeque<ThreadId>,
    /// When the current holder acquired (for hold-time stats).
    acquired_at: Cycle,
}

/// Aggregate lock counters for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockStats {
    /// Successful acquisitions (immediate or after waiting).
    pub acquisitions: u64,
    /// Acquisition attempts that found the lock held.
    pub contended: u64,
    /// Total ns threads spent blocked on lock queues.
    pub wait_ns: u64,
    /// Total ns locks were held.
    pub hold_ns: u64,
}

impl LockStats {
    /// Fraction of acquisitions that hit contention.
    pub fn contention_ratio(&self) -> f64 {
        if self.acquisitions == 0 {
            0.0
        } else {
            self.contended as f64 / self.acquisitions as f64
        }
    }
}

/// The lock table: one entry per `LockId`, grown on demand.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LockTable {
    locks: Vec<LockState>,
    /// When each blocked thread started waiting (indexed by thread).
    wait_since: Vec<Cycle>,
    stats: LockStats,
}

impl LockTable {
    /// Creates an empty table sized for `thread_count` threads.
    pub fn new(thread_count: usize) -> Self {
        LockTable {
            locks: Vec::new(),
            wait_since: vec![0; thread_count],
            stats: LockStats::default(),
        }
    }

    /// The cache block holding `lock`'s word.
    pub fn block_of(lock: LockId) -> BlockAddr {
        BlockAddr(LOCK_REGION_BASE + u64::from(lock.0))
    }

    fn slot(&mut self, lock: LockId) -> &mut LockState {
        let idx = lock.0 as usize;
        if idx >= self.locks.len() {
            self.locks.resize_with(idx + 1, LockState::default);
        }
        &mut self.locks[idx]
    }

    /// Attempts to acquire `lock` for `thread` at `now`.
    ///
    /// On contention the thread is queued FIFO and the caller must block it.
    pub fn acquire(&mut self, lock: LockId, thread: ThreadId, now: Cycle) -> AcquireOutcome {
        let slot = self.slot(lock);
        match slot.holder {
            None => {
                slot.holder = Some(thread);
                slot.acquired_at = now;
                self.stats.acquisitions += 1;
                AcquireOutcome::Acquired
            }
            Some(holder) => {
                debug_assert_ne!(holder, thread, "recursive acquisition is a workload bug");
                slot.waiters.push_back(thread);
                self.stats.contended += 1;
                self.wait_since[thread.index()] = now;
                AcquireOutcome::Queued
            }
        }
    }

    /// Releases `lock` at `now`. With direct handoff, ownership passes to the
    /// first waiter, who is returned so the machine can wake it; the waiter's
    /// queue time is charged to [`LockStats::wait_ns`].
    ///
    /// # Panics
    ///
    /// Panics (debug) if `thread` does not hold the lock — a workload bug.
    pub fn release(&mut self, lock: LockId, thread: ThreadId, now: Cycle) -> Option<ThreadId> {
        let idx = lock.0 as usize;
        let slot = &mut self.locks[idx];
        debug_assert_eq!(slot.holder, Some(thread), "releasing a lock not held");
        self.stats.hold_ns += now.saturating_sub(slot.acquired_at);
        match slot.waiters.pop_front() {
            Some(next) => {
                slot.holder = Some(next);
                slot.acquired_at = now;
                self.stats.acquisitions += 1;
                self.stats.wait_ns += now.saturating_sub(self.wait_since[next.index()]);
                Some(next)
            }
            None => {
                slot.holder = None;
                None
            }
        }
    }

    /// Current holder of `lock`, if any.
    pub fn holder(&self, lock: LockId) -> Option<ThreadId> {
        self.locks.get(lock.0 as usize).and_then(|s| s.holder)
    }

    /// Number of threads queued on `lock`.
    pub fn queue_len(&self, lock: LockId) -> usize {
        self.locks
            .get(lock.0 as usize)
            .map_or(0, |s| s.waiters.len())
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// Resets counters (end of warmup) without touching lock states.
    pub fn reset_stats(&mut self) {
        self.stats = LockStats::default();
    }
}

crate::impl_snap!(LockState {
    holder,
    waiters,
    acquired_at,
});
crate::impl_snap!(LockStats {
    acquisitions,
    contended,
    wait_ns,
    hold_ns,
});
crate::impl_snap!(LockTable {
    locks,
    wait_since,
    stats,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_acquire_release() {
        let mut t = LockTable::new(4);
        let l = LockId(0);
        assert_eq!(t.acquire(l, ThreadId(1), 100), AcquireOutcome::Acquired);
        assert_eq!(t.holder(l), Some(ThreadId(1)));
        assert_eq!(t.release(l, ThreadId(1), 400), None);
        assert_eq!(t.holder(l), None);
        assert_eq!(t.stats().acquisitions, 1);
        assert_eq!(t.stats().hold_ns, 300);
        assert_eq!(t.stats().contention_ratio(), 0.0);
    }

    #[test]
    fn contended_acquire_queues_fifo_with_handoff() {
        let mut t = LockTable::new(4);
        let l = LockId(3);
        t.acquire(l, ThreadId(0), 0);
        assert_eq!(t.acquire(l, ThreadId(1), 10), AcquireOutcome::Queued);
        assert_eq!(t.acquire(l, ThreadId(2), 20), AcquireOutcome::Queued);
        assert_eq!(t.queue_len(l), 2);
        // Handoff to first waiter.
        assert_eq!(t.release(l, ThreadId(0), 100), Some(ThreadId(1)));
        assert_eq!(t.holder(l), Some(ThreadId(1)));
        assert_eq!(t.stats().wait_ns, 90);
        assert_eq!(t.release(l, ThreadId(1), 150), Some(ThreadId(2)));
        assert_eq!(t.stats().wait_ns, 90 + 130);
        assert_eq!(t.release(l, ThreadId(2), 160), None);
        assert_eq!(t.stats().acquisitions, 3);
        assert_eq!(t.stats().contended, 2);
    }

    #[test]
    fn lock_blocks_are_distinct_and_out_of_data_range() {
        let a = LockTable::block_of(LockId(0));
        let b = LockTable::block_of(LockId(1));
        assert_ne!(a, b);
        assert!(a.0 >= LOCK_REGION_BASE);
    }

    #[test]
    fn table_grows_on_demand() {
        let mut t = LockTable::new(2);
        assert_eq!(
            t.acquire(LockId(500), ThreadId(0), 0),
            AcquireOutcome::Acquired
        );
        assert_eq!(t.holder(LockId(500)), Some(ThreadId(0)));
        assert_eq!(t.holder(LockId(1000)), None);
    }

    #[test]
    fn reset_stats_preserves_holders() {
        let mut t = LockTable::new(2);
        t.acquire(LockId(0), ThreadId(0), 0);
        t.reset_stats();
        assert_eq!(t.stats().acquisitions, 0);
        assert_eq!(t.holder(LockId(0)), Some(ThreadId(0)));
    }
}
