//! The interface between the machine and workload generators.
//!
//! A [`Workload`] owns the deterministic per-thread instruction streams. The
//! contract that makes the paper's methodology sound (§3.3) is:
//!
//! * the op sequence of each thread is a pure function of the workload's own
//!   seed and state — **never** of the run's perturbation seed, and
//! * all workload state is `Clone + Serialize`, so a machine checkpoint
//!   captures it exactly.
//!
//! Execution-path divergence between runs then comes only from *timing*:
//! scheduling decisions, lock-acquisition order, and which transactions
//! commit inside the measurement window — precisely the paper's sources (1)
//! to (3) in §2.1.

use crate::ids::ThreadId;
use crate::ops::Op;

/// A deterministic multi-threaded workload.
///
/// Implementors generate an (conceptually infinite) op stream per thread via
/// [`Workload::next_op`]. Throughput-oriented workloads emit [`Op::TxnEnd`]
/// markers; fixed-size scientific workloads (Barnes, Ocean) emit one `TxnEnd`
/// at completion and then park in an idle loop.
pub trait Workload {
    /// Number of software threads the workload wants.
    fn thread_count(&self) -> usize;

    /// Produces the next operation for `thread`.
    ///
    /// Called exactly once per executed op, in each thread's program order.
    /// Must be deterministic given the workload's state.
    fn next_op(&mut self, thread: ThreadId) -> Op;

    /// A short human-readable name ("oltp", "specjbb", ...).
    fn name(&self) -> &str;
}

/// A trivial single-op workload, useful in unit tests: every thread spins on
/// compute bursts and commits a transaction every `ops_per_txn` ops.
#[derive(Debug, Clone)]
pub struct UniformWorkload {
    threads: usize,
    ops_per_txn: u32,
    burst: u32,
    counters: Vec<u32>,
}

impl UniformWorkload {
    /// Creates the workload with `threads` threads committing a transaction
    /// every `ops_per_txn` compute bursts of `burst` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `ops_per_txn == 0`.
    pub fn new(threads: usize, ops_per_txn: u32, burst: u32) -> Self {
        assert!(threads > 0, "threads must be > 0");
        assert!(ops_per_txn > 0, "ops_per_txn must be > 0");
        UniformWorkload {
            threads,
            ops_per_txn,
            burst: burst.max(1),
            counters: vec![0; threads],
        }
    }
}

impl Workload for UniformWorkload {
    fn thread_count(&self) -> usize {
        self.threads
    }

    fn next_op(&mut self, thread: ThreadId) -> Op {
        let c = &mut self.counters[thread.index()];
        if *c == self.ops_per_txn {
            *c = 0;
            return Op::TxnEnd;
        }
        *c += 1;
        Op::Compute {
            instructions: self.burst,
            code_block: crate::ids::BlockAddr(0xC0DE + u64::from(thread.0)),
        }
    }

    fn name(&self) -> &str {
        "uniform"
    }
}

/// A synthetic workload with shared-memory traffic and critical sections —
/// the smallest workload that exhibits the paper's variability mechanisms
/// (coherence misses, lock contention, scheduling interactions). Real
/// benchmark profiles live in the `mtvar-workloads` crate; this one exists
/// for simulator tests and quick experiments.
#[derive(Debug, Clone)]
pub struct SharingWorkload {
    threads: usize,
    ops_per_txn: u32,
    footprint_blocks: u64,
    write_ratio: f64,
    lock_every: u32,
    lock_count: u32,
    cs_len: u8,
    state: Vec<SharingThreadState>,
}

use crate::ids::{BlockAddr, LockId};
use crate::ops::AccessKind;
use crate::rng::Xoshiro256StarStar;

#[derive(Debug, Clone)]
struct SharingThreadState {
    rng: Xoshiro256StarStar,
    ops: u64,
    in_cs: Option<(u8, LockId)>,
}

impl SharingWorkload {
    /// Creates the workload.
    ///
    /// * `threads` — thread count;
    /// * `seed` — workload seed (same seed ⇒ identical op streams);
    /// * `ops_per_txn` — ops between [`Op::TxnEnd`] markers;
    /// * `footprint_blocks` — size of the shared data region;
    /// * `lock_every` — ops between critical sections (0 = lock-free).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, `ops_per_txn == 0` or
    /// `footprint_blocks == 0`.
    pub fn new(
        threads: usize,
        seed: u64,
        ops_per_txn: u32,
        footprint_blocks: u64,
        lock_every: u32,
    ) -> Self {
        assert!(threads > 0, "threads must be > 0");
        assert!(ops_per_txn > 0, "ops_per_txn must be > 0");
        assert!(footprint_blocks > 0, "footprint_blocks must be > 0");
        let mut root = Xoshiro256StarStar::new(seed);
        let state = (0..threads)
            .map(|i| SharingThreadState {
                rng: root.fork(i as u64),
                ops: 0,
                in_cs: None,
            })
            .collect();
        SharingWorkload {
            threads,
            ops_per_txn,
            footprint_blocks,
            write_ratio: 0.3,
            lock_every,
            lock_count: 16,
            cs_len: 3,
            state,
        }
    }
}

impl Workload for SharingWorkload {
    fn thread_count(&self) -> usize {
        self.threads
    }

    fn next_op(&mut self, thread: ThreadId) -> Op {
        let ops_per_txn = u64::from(self.ops_per_txn);
        let lock_every = u64::from(self.lock_every);
        let footprint = self.footprint_blocks;
        let write_ratio = self.write_ratio;
        let lock_count = self.lock_count;
        let cs_len = self.cs_len;
        let st = &mut self.state[thread.index()];

        // Inside a critical section: a few shared accesses, then unlock.
        if let Some((remaining, lock)) = st.in_cs {
            if remaining == 0 {
                st.in_cs = None;
                return Op::Unlock(lock);
            }
            st.in_cs = Some((remaining - 1, lock));
            let addr = BlockAddr(st.rng.next_below(footprint));
            let kind = if st.rng.next_bool(write_ratio) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            return Op::Memory {
                addr,
                kind,
                dependent: false,
            };
        }

        st.ops += 1;
        if st.ops.is_multiple_of(ops_per_txn) {
            return Op::TxnEnd;
        }
        if lock_every > 0 && st.ops.is_multiple_of(lock_every) {
            let lock = LockId(st.rng.next_below(u64::from(lock_count)) as u32);
            st.in_cs = Some((cs_len, lock));
            return Op::Lock(lock);
        }
        if st.ops.is_multiple_of(3) {
            let addr = BlockAddr(st.rng.next_below(footprint));
            let kind = if st.rng.next_bool(write_ratio) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            return Op::Memory {
                addr,
                kind,
                dependent: false,
            };
        }
        Op::Compute {
            instructions: st.rng.next_burst(20.0, 120) as u32,
            code_block: BlockAddr(0xC0DE00 + (st.ops % 8) + u64::from(thread.0 % 4) * 8),
        }
    }

    fn name(&self) -> &str {
        "sharing"
    }
}

crate::impl_snap!(UniformWorkload {
    threads,
    ops_per_txn,
    burst,
    counters,
});
crate::impl_snap!(SharingThreadState { rng, ops, in_cs });
crate::impl_snap!(SharingWorkload {
    threads,
    ops_per_txn,
    footprint_blocks,
    write_ratio,
    lock_every,
    lock_count,
    cs_len,
    state,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_workload_commits_on_schedule() {
        let mut w = UniformWorkload::new(2, 3, 10);
        let t = ThreadId(0);
        for _ in 0..3 {
            assert!(matches!(w.next_op(t), Op::Compute { .. }));
        }
        assert!(matches!(w.next_op(t), Op::TxnEnd));
        // Other thread's counter is independent.
        assert!(matches!(w.next_op(ThreadId(1)), Op::Compute { .. }));
    }

    #[test]
    #[should_panic(expected = "threads must be > 0")]
    fn uniform_workload_rejects_zero_threads() {
        let _ = UniformWorkload::new(0, 1, 1);
    }

    #[test]
    fn sharing_workload_is_deterministic_per_seed() {
        let mut a = SharingWorkload::new(4, 9, 40, 512, 8);
        let mut b = SharingWorkload::new(4, 9, 40, 512, 8);
        let mut c = SharingWorkload::new(4, 10, 40, 512, 8);
        let sa: Vec<Op> = (0..500).map(|i| a.next_op(ThreadId(i % 4))).collect();
        let sb: Vec<Op> = (0..500).map(|i| b.next_op(ThreadId(i % 4))).collect();
        let sc: Vec<Op> = (0..500).map(|i| c.next_op(ThreadId(i % 4))).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn sharing_workload_locks_are_balanced() {
        let mut w = SharingWorkload::new(1, 3, 50, 256, 6);
        let mut held: Option<LockId> = None;
        let mut locks = 0;
        let mut unlocks = 0;
        for _ in 0..2000 {
            match w.next_op(ThreadId(0)) {
                Op::Lock(l) => {
                    assert!(held.is_none(), "nested lock");
                    held = Some(l);
                    locks += 1;
                }
                Op::Unlock(l) => {
                    assert_eq!(held, Some(l), "unlocking a lock not held");
                    held = None;
                    unlocks += 1;
                }
                _ => {}
            }
        }
        assert!(locks > 0, "workload never locked");
        assert!(unlocks >= locks - 1);
    }

    #[test]
    fn sharing_workload_emits_transactions_and_memory() {
        let mut w = SharingWorkload::new(2, 1, 30, 128, 0);
        let mut txns = 0;
        let mut mems = 0;
        for i in 0..600 {
            match w.next_op(ThreadId(i % 2)) {
                Op::TxnEnd => txns += 1,
                Op::Memory { addr, .. } => {
                    assert!(addr.0 < 128);
                    mems += 1;
                }
                Op::Lock(_) | Op::Unlock(_) => panic!("lock_every = 0 must be lock-free"),
                _ => {}
            }
        }
        assert!(txns >= 10);
        assert!(mems > 100);
    }
}
