//! The profiled transaction-workload generator.
//!
//! Every commercial benchmark in the paper's Table 3 is, for the purposes of
//! its variability study, a *throughput-oriented multi-threaded transaction
//! mix*: threads repeatedly run transactions of a few types, touching hot and
//! cold shared data, private data, locks and occasional I/O. The
//! [`WorkloadProfile`] captures those knobs; [`ProfiledWorkload`] compiles a
//! profile into deterministic per-thread op streams for the simulator.
//!
//! Determinism contract (§3.3): a thread's op sequence depends only on the
//! workload seed and the thread's own transaction count — never on timing or
//! the perturbation seed — so runs from one checkpoint differ only through
//! interleaving.

use std::collections::VecDeque;

use mtvar_sim::ids::{LockId, Nanos, ThreadId};
use mtvar_sim::ops::{AccessKind, BranchInfo, Op};
use mtvar_sim::rng::Xoshiro256StarStar;
use mtvar_sim::workload::Workload;

use crate::regions;

/// Capacity of each thread's recent-block ring (the temporal-reuse window).
const RECENT_RING: usize = 192;

/// One transaction type in the mix (e.g. TPC-C's new-order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxnType {
    /// Relative weight in the mix.
    pub weight: u32,
    /// Mean number of segments (database operations / request handlers).
    pub segments_mean: f64,
    /// Lower bound on segments. Setting `segments_min == segments_max` gives
    /// a fixed, deterministic phase structure (the scientific workloads).
    pub segments_min: u32,
    /// Hard cap on segments.
    pub segments_max: u32,
    /// Memory references per segment.
    pub mem_per_segment: u32,
    /// Mean compute-burst length (instructions).
    pub compute_mean: f64,
    /// Probability a reference goes to the hot shared region.
    pub hot_prob: f64,
    /// Probability a reference goes to the thread-private region
    /// (the rest go to the cold shared region).
    pub private_prob: f64,
    /// Probability a reference is a write.
    pub write_prob: f64,
    /// Multiplier on `write_prob` for hot-region references. Hot shared
    /// data (indices, metadata) is read-mostly on real systems; unchecked
    /// write-sharing would make every node's copy ping-pong and erase the
    /// cache reuse that Experiment 1 depends on.
    pub hot_write_factor: f64,
    /// Probability a segment runs under a lock.
    pub lock_prob: f64,
    /// Shared accesses inside a critical section.
    pub cs_mem_ops: u32,
    /// Probability the transaction performs an I/O wait.
    pub io_prob: f64,
    /// Mean I/O latency (ns).
    pub io_ns_mean: Nanos,
    /// When set, every I/O wait lasts exactly `io_ns_mean` (a constant-cost
    /// tier crossing) instead of drawing from a bursty distribution.
    pub io_fixed: bool,
    /// Probability a reference re-touches a recently used block (register
    /// spill reloads, loop-carried structures, the current row/page). This
    /// temporal locality is what gives real workloads their high L1 hit
    /// rates.
    pub reuse_prob: f64,
    /// Fraction of memory references that depend on the previous load
    /// (pointer chasing: B-tree descents, object-graph walks). Dependent
    /// loads serialize in the out-of-order model regardless of ROB size.
    pub dependent_prob: f64,
    /// Conditional branches per segment.
    pub branches_per_segment: u32,
    /// Probability each branch goes its biased way (higher = more
    /// predictable).
    pub branch_bias: f64,
}

impl TxnType {
    /// A neutral medium-sized transaction, useful as a starting point.
    pub fn balanced() -> Self {
        TxnType {
            weight: 1,
            segments_mean: 6.0,
            segments_min: 1,
            segments_max: 24,
            mem_per_segment: 12,
            compute_mean: 40.0,
            hot_prob: 0.45,
            private_prob: 0.35,
            write_prob: 0.25,
            hot_write_factor: 0.2,
            lock_prob: 0.3,
            cs_mem_ops: 3,
            io_prob: 0.05,
            io_ns_mean: 40_000,
            io_fixed: false,
            reuse_prob: 0.5,
            dependent_prob: 0.4,
            branches_per_segment: 4,
            branch_bias: 0.9,
        }
    }
}

/// Slow behaviour drift over a thread's transaction count — the source of
/// **time variability** (§4.3). All terms are deterministic functions of the
/// per-thread transaction index, so they shift behaviour *between
/// checkpoints* without adding within-checkpoint randomness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseModel {
    /// Period, in per-thread transactions, of the work-intensity wave.
    pub period_txns: u64,
    /// Peak-to-mean amplitude of the intensity wave (0 = flat). 0.5 means
    /// segment counts swing between 0.5× and 1.5×.
    pub amplitude: f64,
    /// Every `gc_every` per-thread transactions, insert a heavy scan phase
    /// (a JVM garbage collection, a DBMS log flush). 0 disables.
    pub gc_every: u64,
    /// Memory references in one scan phase.
    pub gc_mem_ops: u32,
    /// Cold-footprint growth in blocks per committed transaction (object
    /// churn; SPECjbb's heap growth). Applied up to `growth_cap_blocks`.
    pub growth_per_txn: f64,
    /// Cap on footprint growth.
    pub growth_cap_blocks: u64,
}

impl PhaseModel {
    /// No drift at all.
    pub fn none() -> Self {
        PhaseModel {
            period_txns: 1,
            amplitude: 0.0,
            gc_every: 0,
            gc_mem_ops: 0,
            growth_per_txn: 0.0,
            growth_cap_blocks: 0,
        }
    }

    /// Work-intensity multiplier at per-thread transaction index `i`
    /// (a triangle wave in `[1 − amplitude, 1 + amplitude]`).
    pub fn intensity(&self, i: u64) -> f64 {
        if self.amplitude == 0.0 {
            return 1.0;
        }
        let phase = (i % self.period_txns) as f64 / self.period_txns as f64;
        let tri = if phase < 0.5 {
            4.0 * phase - 1.0
        } else {
            3.0 - 4.0 * phase
        };
        1.0 + self.amplitude * tri
    }
}

/// The complete description of one benchmark's behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Benchmark name ("oltp", "apache", ...).
    pub name: String,
    /// Software threads per processor (the paper's OLTP runs 8).
    pub threads_per_cpu: u32,
    /// The transaction mix.
    pub txn_types: Vec<TxnType>,
    /// Hot shared region size (blocks).
    pub hot_blocks: u64,
    /// Cold shared region size (blocks).
    pub cold_blocks: u64,
    /// Per-thread private region size (blocks).
    pub private_blocks: u64,
    /// Code footprint per transaction type (blocks).
    pub code_blocks_per_type: u64,
    /// Total distinct locks (rows/tables/latches).
    pub lock_pool: u32,
    /// A few heavily contended locks (log latch, index root, ...).
    pub hot_locks: u32,
    /// Probability a lock acquisition targets a hot lock.
    pub hot_lock_prob: f64,
    /// Time-variability drift model.
    pub phases: PhaseModel,
    /// Maximum startup stagger per thread, in instructions (a one-time
    /// compute prologue of uniform random length). Spreads thread phases so
    /// synchronization arrivals are graded rather than lockstep — SPLASH-2
    /// style programs otherwise reach every barrier simultaneously.
    pub startup_stagger_instr: u32,
}

impl WorkloadProfile {
    /// Validates the profile.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty, any region is empty, or probabilities
    /// are outside `[0, 1]` — profiles are library constants, so a bad one
    /// is a programming error.
    pub fn assert_valid(&self) {
        assert!(!self.txn_types.is_empty(), "profile needs >= 1 txn type");
        assert!(self.hot_blocks > 0 && self.cold_blocks > 0 && self.private_blocks > 0);
        assert!(self.private_blocks <= regions::PRIVATE_SPAN);
        assert!(self.lock_pool >= 1);
        assert!(self.hot_locks <= self.lock_pool);
        for t in &self.txn_types {
            assert!(t.weight > 0, "txn type weight must be > 0");
            for p in [
                t.hot_prob,
                t.private_prob,
                t.write_prob,
                t.lock_prob,
                t.io_prob,
                t.branch_bias,
                t.dependent_prob,
                t.reuse_prob,
            ] {
                assert!((0.0..=1.0).contains(&p), "probability out of range");
            }
            assert!(t.hot_prob + t.private_prob <= 1.0);
            assert!(t.segments_max >= 1 && t.segments_min >= 1);
            assert!(t.segments_min <= t.segments_max);
        }
    }

    fn cumulative_weights(&self) -> Vec<u32> {
        let mut cum = Vec::with_capacity(self.txn_types.len());
        let mut acc = 0;
        for t in &self.txn_types {
            acc += t.weight;
            cum.push(acc);
        }
        cum
    }
}

/// Per-thread generator state.
#[derive(Debug, Clone)]
struct ThreadGen {
    rng: Xoshiro256StarStar,
    txns: u64,
    queue: VecDeque<Op>,
    /// Ring of recently touched data blocks, the source of temporal reuse.
    recent: Vec<mtvar_sim::ids::BlockAddr>,
    recent_pos: usize,
}

/// A deterministic multi-threaded workload compiled from a
/// [`WorkloadProfile`].
///
/// # Example
///
/// ```
/// use mtvar_sim::workload::Workload;
/// use mtvar_workloads::oltp;
///
/// let mut w = oltp::workload(16, 42);
/// assert_eq!(w.thread_count(), 16 * 8); // 8 users per processor
/// let _op = w.next_op(mtvar_sim::ids::ThreadId(0));
/// ```
#[derive(Debug, Clone)]
pub struct ProfiledWorkload {
    profile: WorkloadProfile,
    cum_weights: Vec<u32>,
    threads: usize,
    state: Vec<ThreadGen>,
}

impl ProfiledWorkload {
    /// Instantiates `profile` on a machine with `cpus` processors, seeding
    /// every thread's stream from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid or `cpus == 0`.
    pub fn new(profile: WorkloadProfile, cpus: usize, seed: u64) -> Self {
        assert!(cpus > 0, "cpus must be > 0");
        profile.assert_valid();
        let threads = cpus * profile.threads_per_cpu as usize;
        let mut root = Xoshiro256StarStar::new(seed);
        let state = (0..threads)
            .map(|i| ThreadGen {
                rng: root.fork(i as u64),
                txns: 0,
                queue: VecDeque::with_capacity(256),
                recent: Vec::with_capacity(RECENT_RING),
                recent_pos: 0,
            })
            .collect();
        let cum_weights = profile.cumulative_weights();
        ProfiledWorkload {
            profile,
            cum_weights,
            threads,
            state,
        }
    }

    /// The underlying profile.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Total transactions generated so far by `thread`.
    pub fn thread_txns(&self, thread: ThreadId) -> u64 {
        self.state[thread.index()].txns
    }

    /// Compiles one whole transaction into `thread`'s op queue.
    fn build_txn(&mut self, thread: ThreadId) {
        let p = &self.profile;
        let st = &mut self.state[thread.index()];
        let rng = &mut st.rng;
        let q = &mut st.queue;
        let txn_idx = st.txns;
        st.txns += 1;

        if txn_idx == 0 && p.startup_stagger_instr > 0 {
            q.push_back(Op::Compute {
                instructions: rng.next_below(u64::from(p.startup_stagger_instr) + 1) as u32,
                code_block: regions::code_addr(0, 0, p.code_blocks_per_type),
            });
        }
        let ty_idx = rng.next_weighted(&self.cum_weights);
        let ty = &p.txn_types[ty_idx];
        let intensity = p.phases.intensity(txn_idx);

        // Footprint growth (heap churn).
        let cold_blocks = if p.phases.growth_per_txn > 0.0 {
            let grown = (p.phases.growth_per_txn * txn_idx as f64) as u64;
            p.cold_blocks + grown.min(p.phases.growth_cap_blocks)
        } else {
            p.cold_blocks
        };

        // Periodic scan phase (GC / log flush) before the transaction body.
        if p.phases.gc_every > 0 && txn_idx > 0 && txn_idx.is_multiple_of(p.phases.gc_every) {
            q.push_back(Op::Compute {
                instructions: 200,
                code_block: regions::code_addr(ty_idx as u32, 0, p.code_blocks_per_type),
            });
            for i in 0..p.phases.gc_mem_ops {
                let addr = if i % 3 == 0 {
                    regions::hot_addr(rng, p.hot_blocks)
                } else {
                    regions::private_addr(rng, thread, p.private_blocks)
                };
                q.push_back(Op::Memory {
                    addr,
                    kind: AccessKind::Read,
                    dependent: false,
                });
            }
        }

        let segments = ((rng.next_burst(ty.segments_mean, u64::from(ty.segments_max)) as f64
            * intensity)
            .round() as u64)
            .clamp(u64::from(ty.segments_min), u64::from(ty.segments_max));

        for seg in 0..segments {
            let func = seg % p.code_blocks_per_type;
            let code = regions::code_addr(ty_idx as u32, func, p.code_blocks_per_type);

            // Segment prologue: call into the handler.
            let ret_pc = (ty_idx as u32) << 16 | (func as u32);
            q.push_back(Op::Call { return_pc: ret_pc });
            q.push_back(Op::Compute {
                instructions: rng.next_burst(ty.compute_mean, 400) as u32,
                code_block: code,
            });

            // Data references, interleaved with short compute bursts and
            // branches the way compiled code spaces its loads — the spacing
            // is what lets reorder-buffer capacity govern memory-level
            // parallelism (Experiment 2).
            let gap_mean = (ty.compute_mean / 4.0).max(2.0);
            for r in 0..ty.mem_per_segment {
                if r % 3 == 0 && (r / 3) < ty.branches_per_segment {
                    q.push_back(Op::Branch(BranchInfo {
                        pc: ret_pc ^ ((r / 3).wrapping_mul(0x9E37) | 1),
                        taken: rng.next_bool(ty.branch_bias),
                    }));
                }
                q.push_back(Op::Compute {
                    instructions: rng.next_burst(gap_mean, 100) as u32,
                    code_block: code,
                });
                let (addr, wp) = if !st.recent.is_empty() && rng.next_bool(ty.reuse_prob) {
                    // Temporal reuse: re-touch a recently used block.
                    let idx = rng.next_below(st.recent.len() as u64) as usize;
                    (st.recent[idx], ty.write_prob)
                } else {
                    let u = rng.next_f64();
                    let fresh = if u < ty.hot_prob {
                        (
                            regions::hot_addr(rng, p.hot_blocks),
                            ty.write_prob * ty.hot_write_factor,
                        )
                    } else if u < ty.hot_prob + ty.private_prob {
                        (
                            regions::private_addr(rng, thread, p.private_blocks),
                            ty.write_prob,
                        )
                    } else {
                        (regions::cold_addr(rng, cold_blocks), ty.write_prob)
                    };
                    if st.recent.len() < RECENT_RING {
                        st.recent.push(fresh.0);
                    } else {
                        st.recent[st.recent_pos] = fresh.0;
                        st.recent_pos = (st.recent_pos + 1) % RECENT_RING;
                    }
                    fresh
                };
                let kind = if rng.next_bool(wp) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                q.push_back(Op::Memory {
                    addr,
                    kind,
                    dependent: rng.next_bool(ty.dependent_prob),
                });
            }

            // Optional critical section.
            if rng.next_bool(ty.lock_prob) {
                let lock = if rng.next_bool(p.hot_lock_prob) {
                    LockId(rng.next_below(u64::from(p.hot_locks.max(1))) as u32)
                } else {
                    LockId(
                        (u64::from(p.hot_locks)
                            + rng.next_below(u64::from(p.lock_pool - p.hot_locks).max(1)))
                            as u32,
                    )
                };
                q.push_back(Op::Lock(lock));
                for _ in 0..ty.cs_mem_ops {
                    q.push_back(Op::Memory {
                        addr: regions::hot_addr(rng, p.hot_blocks),
                        kind: AccessKind::Write,
                        dependent: false,
                    });
                }
                q.push_back(Op::Unlock(lock));
            }

            // Segment epilogue.
            q.push_back(Op::Return { return_pc: ret_pc });
        }

        // Optional I/O wait (disk read, client round-trip).
        if ty.io_prob > 0.0 && rng.next_bool(ty.io_prob) {
            let delay = if ty.io_fixed {
                ty.io_ns_mean
            } else {
                rng.next_burst(ty.io_ns_mean as f64, ty.io_ns_mean * 3)
            };
            q.push_back(Op::Io(delay));
        }
        q.push_back(Op::TxnEnd);
    }
}

impl Workload for ProfiledWorkload {
    fn thread_count(&self) -> usize {
        self.threads
    }

    fn next_op(&mut self, thread: ThreadId) -> Op {
        if let Some(op) = self.state[thread.index()].queue.pop_front() {
            return op;
        }
        self.build_txn(thread);
        self.state[thread.index()]
            .queue
            .pop_front()
            .expect("build_txn always enqueues at least TxnEnd")
    }

    fn name(&self) -> &str {
        &self.profile.name
    }
}

mtvar_sim::impl_snap!(TxnType {
    weight,
    segments_mean,
    segments_min,
    segments_max,
    mem_per_segment,
    compute_mean,
    hot_prob,
    private_prob,
    write_prob,
    hot_write_factor,
    lock_prob,
    cs_mem_ops,
    io_prob,
    io_ns_mean,
    io_fixed,
    reuse_prob,
    dependent_prob,
    branches_per_segment,
    branch_bias,
});
mtvar_sim::impl_snap!(PhaseModel {
    period_txns,
    amplitude,
    gc_every,
    gc_mem_ops,
    growth_per_txn,
    growth_cap_blocks,
});
mtvar_sim::impl_snap!(WorkloadProfile {
    name,
    threads_per_cpu,
    txn_types,
    hot_blocks,
    cold_blocks,
    private_blocks,
    code_blocks_per_type,
    lock_pool,
    hot_locks,
    hot_lock_prob,
    phases,
    startup_stagger_instr,
});
mtvar_sim::impl_snap!(ThreadGen {
    rng,
    txns,
    queue,
    recent,
    recent_pos,
});
mtvar_sim::impl_snap!(ProfiledWorkload {
    profile,
    cum_weights,
    threads,
    state,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> WorkloadProfile {
        WorkloadProfile {
            name: "test".into(),
            threads_per_cpu: 2,
            txn_types: vec![
                TxnType::balanced(),
                TxnType {
                    weight: 3,
                    ..TxnType::balanced()
                },
            ],
            hot_blocks: 1_000,
            cold_blocks: 100_000,
            private_blocks: 10_000,
            code_blocks_per_type: 8,
            lock_pool: 32,
            hot_locks: 4,
            hot_lock_prob: 0.5,
            phases: PhaseModel::none(),
            startup_stagger_instr: 0,
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ProfiledWorkload::new(profile(), 2, 1);
        let mut b = ProfiledWorkload::new(profile(), 2, 1);
        let mut c = ProfiledWorkload::new(profile(), 2, 2);
        let sa: Vec<Op> = (0..2000).map(|i| a.next_op(ThreadId(i % 4))).collect();
        let sb: Vec<Op> = (0..2000).map(|i| b.next_op(ThreadId(i % 4))).collect();
        let sc: Vec<Op> = (0..2000).map(|i| c.next_op(ThreadId(i % 4))).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn streams_are_independent_of_consumption_order() {
        // The §3.3 contract: thread 0's stream must not change when thread 1
        // is consumed differently (interleaving affects timing only).
        let mut a = ProfiledWorkload::new(profile(), 2, 7);
        let mut b = ProfiledWorkload::new(profile(), 2, 7);
        let sa: Vec<Op> = (0..500).map(|_| a.next_op(ThreadId(0))).collect();
        // Interleave consumption in b.
        let mut sb = Vec::new();
        for i in 0..500 {
            if i % 2 == 0 {
                b.next_op(ThreadId(1));
            }
            sb.push(b.next_op(ThreadId(0)));
        }
        assert_eq!(sa, sb);
    }

    #[test]
    fn locks_are_balanced_and_unnested() {
        let mut w = ProfiledWorkload::new(profile(), 1, 3);
        let mut held: Option<LockId> = None;
        for _ in 0..5000 {
            match w.next_op(ThreadId(0)) {
                Op::Lock(l) => {
                    assert!(held.is_none(), "nested lock in generated stream");
                    held = Some(l);
                }
                Op::Unlock(l) => {
                    assert_eq!(held, Some(l));
                    held = None;
                }
                Op::Io(_) => assert!(held.is_none(), "I/O while holding a lock"),
                Op::TxnEnd => assert!(held.is_none(), "txn ended holding a lock"),
                _ => {}
            }
        }
    }

    #[test]
    fn calls_and_returns_are_balanced() {
        let mut w = ProfiledWorkload::new(profile(), 1, 4);
        let mut depth = 0i64;
        for _ in 0..5000 {
            match w.next_op(ThreadId(0)) {
                Op::Call { .. } => depth += 1,
                Op::Return { .. } => {
                    depth -= 1;
                    assert!(depth >= 0, "return without call");
                }
                Op::TxnEnd => assert_eq!(depth, 0, "txn ended mid-call"),
                _ => {}
            }
        }
    }

    #[test]
    fn txn_mix_respects_weights() {
        // weight 1 vs 3: type 1 should be ~75% of transactions.
        let mut w = ProfiledWorkload::new(profile(), 4, 5);
        let mut txns = 0;
        for _ in 0..200_000 {
            if let Op::TxnEnd = w.next_op(ThreadId(0)) {
                txns += 1;
            }
        }
        assert!(txns > 100, "too few transactions: {txns}");
    }

    #[test]
    fn phase_model_intensity_wave() {
        let ph = PhaseModel {
            period_txns: 100,
            amplitude: 0.5,
            ..PhaseModel::none()
        };
        // Triangle wave: spans [0.5, 1.5], mean 1.
        let vals: Vec<f64> = (0..100).map(|i| ph.intensity(i)).collect();
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((0.49..=0.56).contains(&min), "min {min}");
        assert!((1.44..=1.51).contains(&max), "max {max}");
        let mean: f64 = vals.iter().sum::<f64>() / 100.0;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert_eq!(PhaseModel::none().intensity(12345), 1.0);
    }

    #[test]
    fn gc_phase_inserts_scan() {
        let mut p = profile();
        p.phases = PhaseModel {
            gc_every: 5,
            gc_mem_ops: 400,
            ..PhaseModel::none()
        };
        let mut w = ProfiledWorkload::new(p, 1, 9);
        // Count ops per transaction; every 5th should be noticeably longer.
        let mut lens = Vec::new();
        let mut len = 0u32;
        while lens.len() < 40 {
            len += 1;
            if let Op::TxnEnd = w.next_op(ThreadId(0)) {
                lens.push(len);
                len = 0;
            }
        }
        // The scan is prepended when txn_idx % 5 == 0 (and idx > 0), i.e. to
        // the 6th, 11th, ... transactions — vector indices 5, 10, ...
        let gc_txns: Vec<u32> = lens.iter().skip(5).step_by(5).copied().collect();
        let avg_all: f64 = lens.iter().map(|&l| l as f64).sum::<f64>() / lens.len() as f64;
        let avg_gc: f64 = gc_txns.iter().map(|&l| l as f64).sum::<f64>() / gc_txns.len() as f64;
        assert!(
            avg_gc > avg_all,
            "GC transactions should be longer: {avg_gc} vs {avg_all}"
        );
    }

    #[test]
    fn footprint_growth_is_capped() {
        let mut p = profile();
        p.phases = PhaseModel {
            growth_per_txn: 10.0,
            growth_cap_blocks: 500,
            ..PhaseModel::none()
        };
        // Just exercise generation deep enough to hit the cap.
        let mut w = ProfiledWorkload::new(p, 1, 11);
        for _ in 0..20_000 {
            let _ = w.next_op(ThreadId(0));
        }
        assert!(w.thread_txns(ThreadId(0)) > 60);
    }

    #[test]
    #[should_panic(expected = "cpus must be > 0")]
    fn rejects_zero_cpus() {
        let _ = ProfiledWorkload::new(profile(), 0, 1);
    }
}
