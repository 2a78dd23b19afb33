//! The TFsim-like out-of-order timing model (§3.2.4): a 4-wide core with a
//! configurable reorder buffer, branch predictors, and a miss window that
//! overlaps long-latency memory accesses with younger work until the ROB
//! fills.
//!
//! The model tracks, per outstanding miss, the cumulative instruction count
//! at its issue point. The ROB admits younger instructions until
//! `issued − oldest_miss_issue_point ≥ rob_size`; past that, issue stalls
//! until the oldest miss completes — the mechanism that makes Experiment 2's
//! runtime improve with ROB size.

use std::collections::VecDeque;

use super::predictor::{CascadedIndirect, ReturnAddressStack, Yags};
use super::ProcStats;
use crate::ids::{CpuId, Cycle, Nanos};
use crate::mem::MemorySystem;
use crate::ops::Op;

/// Configuration of the out-of-order core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OooConfig {
    /// Issue/retire width in instructions per cycle (TFsim: 4).
    pub width: u32,
    /// Reorder-buffer capacity in instructions (the paper sweeps 16/32/64).
    pub rob_size: u32,
    /// Pipeline refill penalty after a branch misprediction (ns).
    pub mispredict_penalty_ns: Nanos,
    /// Maximum outstanding misses (MSHRs).
    pub max_outstanding: u32,
}

impl OooConfig {
    /// The paper's default TFsim configuration: 4-wide, 64-entry ROB.
    pub fn tfsim_default() -> Self {
        OooConfig {
            width: 4,
            rob_size: 64,
            mispredict_penalty_ns: 12,
            max_outstanding: 4,
        }
    }

    /// The default with a different ROB size (Experiment 2's sweep knob).
    pub fn with_rob_size(rob_size: u32) -> Self {
        OooConfig {
            rob_size,
            ..OooConfig::tfsim_default()
        }
    }
}

/// One in-flight long-latency access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outstanding {
    complete: Cycle,
    /// Cumulative instruction count when this access issued.
    issued_at_instr: u64,
}

/// State of one out-of-order core.
#[derive(Debug, Clone, PartialEq)]
pub struct OooCore {
    config: OooConfig,
    yags: Yags,
    indirect: CascadedIndirect,
    ras: ReturnAddressStack,
    window: VecDeque<Outstanding>,
    issued_instrs: u64,
    stats: ProcStats,
}

/// Latencies at or below this many ns are absorbed by the pipeline instead of
/// occupying the miss window (L1 hits).
const PIPELINE_HIDDEN_NS: Nanos = 2;

impl OooCore {
    /// Creates a core with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `width`, `rob_size` or `max_outstanding` is zero.
    pub fn new(config: OooConfig) -> Self {
        assert!(config.width > 0, "width must be > 0");
        assert!(config.rob_size > 0, "rob_size must be > 0");
        assert!(config.max_outstanding > 0, "max_outstanding must be > 0");
        OooCore {
            config,
            yags: Yags::tfsim_default(),
            indirect: CascadedIndirect::tfsim_default(),
            ras: ReturnAddressStack::tfsim_default(),
            window: VecDeque::with_capacity(config.max_outstanding as usize),
            issued_instrs: 0,
            stats: ProcStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &OooConfig {
        &self.config
    }

    /// Executes one pipelined op starting at `now`; returns busy time.
    pub fn execute(&mut self, cpu: CpuId, op: &Op, now: Cycle, mem: &mut MemorySystem) -> Cycle {
        let mut t = now;
        self.retire_completed(t);

        match op {
            Op::Compute {
                instructions,
                code_block,
            } => {
                let n = u64::from((*instructions).max(1));
                self.stats.instructions += n;
                // I-fetch: a miss stalls the front end outright.
                let fetch = mem.fetch(cpu, *code_block, t);
                t += fetch;
                // Issue the burst at full width, stalling whenever the ROB
                // fills behind an outstanding miss.
                let mut remaining = n;
                while remaining > 0 {
                    let room = self.rob_room();
                    if room == 0 {
                        t = self.wait_for_oldest(t);
                        continue;
                    }
                    let chunk = remaining.min(room);
                    self.issued_instrs += chunk;
                    remaining -= chunk;
                    t += chunk.div_ceil(u64::from(self.config.width)).max(1);
                    self.retire_completed(t);
                }
            }
            Op::Memory {
                addr,
                kind,
                dependent,
            } => {
                self.stats.instructions += 1;
                // The access is timed at the event time `now`: the engine
                // processes events in global time order, so memory-system
                // timestamps stay monotone (a requirement of the bus model).
                // Structural stalls (ROB/MSHR full) are charged to the busy
                // time afterwards.
                let outcome = mem.access(cpu, *addr, *kind, now);
                // A dependent access (pointer chase) waits for the newest
                // in-flight load to deliver its value.
                if *dependent {
                    if let Some(last) = self.window.back() {
                        if last.complete > t {
                            self.stats.window_stall_ns += last.complete - t;
                            t = last.complete;
                        }
                        self.retire_completed(t);
                    }
                }
                t = self.ensure_issue_slot(t);
                self.issued_instrs += 1;
                t += 1; // issue slot
                if outcome.latency > PIPELINE_HIDDEN_NS {
                    self.window.push_back(Outstanding {
                        complete: t + outcome.latency,
                        issued_at_instr: self.issued_instrs,
                    });
                }
            }
            Op::Branch(info) => {
                self.stats.instructions += 1;
                self.stats.branches += 1;
                t = self.ensure_issue_slot(t);
                self.issued_instrs += 1;
                t += 1;
                if !self.yags.update(info.pc, info.taken) {
                    self.stats.branch_mispredicts += 1;
                    t += self.config.mispredict_penalty_ns;
                }
            }
            Op::IndirectBranch { pc, target } => {
                self.stats.instructions += 1;
                t = self.ensure_issue_slot(t);
                self.issued_instrs += 1;
                t += 1;
                if !self.indirect.update(*pc, *target) {
                    self.stats.indirect_mispredicts += 1;
                    t += self.config.mispredict_penalty_ns;
                }
            }
            Op::Call { return_pc } => {
                self.stats.instructions += 1;
                t = self.ensure_issue_slot(t);
                self.issued_instrs += 1;
                t += 1;
                self.ras.push(*return_pc);
            }
            Op::Return { return_pc } => {
                self.stats.instructions += 1;
                t = self.ensure_issue_slot(t);
                self.issued_instrs += 1;
                t += 1;
                if !self.ras.pop_and_check(*return_pc) {
                    self.stats.ras_mispredicts += 1;
                    t += self.config.mispredict_penalty_ns;
                }
            }
            Op::Lock(_) | Op::Unlock(_) | Op::TxnEnd | Op::Io(_) | Op::Yield => {
                unreachable!("serializing ops are interpreted by the machine")
            }
        }
        t - now
    }

    /// Instruction slots available before the ROB fills behind the oldest
    /// outstanding miss. `u64::MAX` when the window is empty.
    #[inline]
    fn rob_room(&self) -> u64 {
        match self.window.front() {
            None => u64::MAX,
            Some(o) => {
                let occupied = self.issued_instrs - o.issued_at_instr;
                u64::from(self.config.rob_size).saturating_sub(occupied)
            }
        }
    }

    /// Stalls until structural hazards clear: MSHRs free and ROB has room.
    fn ensure_issue_slot(&mut self, mut t: Cycle) -> Cycle {
        while self.window.len() >= self.config.max_outstanding as usize || self.rob_room() == 0 {
            t = self.wait_for_oldest(t);
        }
        t
    }

    /// Blocks until the oldest outstanding access completes.
    fn wait_for_oldest(&mut self, t: Cycle) -> Cycle {
        let oldest = self
            .window
            .pop_front()
            .expect("wait_for_oldest requires a non-empty window");
        let target = oldest.complete.max(t);
        self.stats.window_stall_ns += target - t;
        self.retire_completed(target);
        target
    }

    /// Drops window entries whose data has arrived.
    #[inline]
    fn retire_completed(&mut self, t: Cycle) {
        while let Some(front) = self.window.front() {
            if front.complete <= t {
                self.window.pop_front();
            } else {
                break;
            }
        }
    }

    /// Completes all in-flight work (serializing op or context switch);
    /// returns the wait.
    pub fn drain(&mut self, now: Cycle) -> Cycle {
        let mut latest = now;
        for o in &self.window {
            latest = latest.max(o.complete);
        }
        self.window.clear();
        let wait = latest - now;
        self.stats.drain_ns += wait;
        wait
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &ProcStats {
        &self.stats
    }

    /// Resets the counters (end of warmup); predictor state is kept, like a
    /// real warm machine.
    pub fn reset_stats(&mut self) {
        self.stats = ProcStats::default();
    }

    /// Number of in-flight accesses (tests/diagnostics).
    pub fn in_flight(&self) -> usize {
        self.window.len()
    }
}

crate::impl_snap!(OooConfig {
    width,
    rob_size,
    mispredict_penalty_ns,
    max_outstanding,
});
crate::impl_snap!(Outstanding {
    complete,
    issued_at_instr,
});
crate::impl_snap!(OooCore {
    config,
    yags,
    indirect,
    ras,
    window,
    issued_instrs,
    stats,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::BlockAddr;
    use crate::mem::{CacheConfig, MemoryConfig, MemorySystem, Perturbation};
    use crate::ops::{AccessKind, BranchInfo};

    fn mem() -> MemorySystem {
        // Tiny L2 so distinct addresses miss reliably.
        let mut cfg = MemoryConfig::hpca2003();
        cfg.l1d = CacheConfig::new(1024, 2, 64).unwrap();
        cfg.l2 = CacheConfig::new(8192, 4, 64).unwrap();
        MemorySystem::new(cfg, 1, Perturbation::disabled()).unwrap()
    }

    fn read(addr: u64) -> Op {
        Op::Memory {
            addr: BlockAddr(addr),
            kind: AccessKind::Read,
            dependent: false,
        }
    }

    fn compute(n: u32) -> Op {
        Op::Compute {
            instructions: n,
            code_block: BlockAddr(0xC0DE),
        }
    }

    #[test]
    fn miss_does_not_block_issue() {
        let mut core = OooCore::new(OooConfig::tfsim_default());
        let mut m = mem();
        // Warm the I-cache.
        core.execute(CpuId(0), &compute(4), 0, &mut m);
        let t0 = 10_000;
        // A cold load: issue slot only, the 180 ns miss rides in the window.
        let busy = core.execute(CpuId(0), &read(0x5000), t0, &mut m);
        assert_eq!(busy, 1);
        assert_eq!(core.in_flight(), 1);
        // A small compute burst proceeds under the miss shadow.
        let busy2 = core.execute(CpuId(0), &compute(8), t0 + 1, &mut m);
        assert_eq!(busy2, 2); // 8 instrs at width 4
    }

    #[test]
    fn rob_fill_stalls_issue() {
        let cfg = OooConfig {
            rob_size: 16,
            ..OooConfig::tfsim_default()
        };
        let mut core = OooCore::new(cfg);
        let mut m = mem();
        core.execute(CpuId(0), &compute(4), 0, &mut m); // warm I-cache
        let t0 = 10_000;
        core.execute(CpuId(0), &read(0x5000), t0, &mut m); // miss in window
                                                           // 64 instructions >> 15 remaining ROB slots: must stall for the miss.
        let busy = core.execute(CpuId(0), &compute(64), t0 + 1, &mut m);
        assert!(
            busy >= 170,
            "16-entry ROB should stall behind the 180ns miss, busy={busy}"
        );
        assert!(core.stats().window_stall_ns > 0);
    }

    #[test]
    fn larger_rob_hides_more_latency() {
        // Identical op sequence under ROB 16 vs 64: the 64-entry window must
        // finish no later, and strictly earlier when misses can overlap.
        let run = |rob: u32| {
            let mut core = OooCore::new(OooConfig::with_rob_size(rob));
            let mut m = mem();
            core.execute(CpuId(0), &compute(4), 0, &mut m);
            let mut t = 10_000u64;
            for i in 0..40u64 {
                t += core.execute(CpuId(0), &read(0x5000 + i * 64), t, &mut m);
                t += core.execute(CpuId(0), &compute(24), t, &mut m);
            }
            t += core.drain(t);
            t
        };
        let t16 = run(16);
        let t64 = run(64);
        assert!(t64 < t16, "ROB 64 ({t64}) should beat ROB 16 ({t16})");
    }

    #[test]
    fn mshr_limit_caps_outstanding() {
        let cfg = OooConfig {
            max_outstanding: 2,
            rob_size: 1024,
            ..OooConfig::tfsim_default()
        };
        let mut core = OooCore::new(cfg);
        let mut m = mem();
        core.execute(CpuId(0), &compute(4), 0, &mut m);
        let t0 = 10_000;
        let mut t = t0;
        for i in 0..3u64 {
            t += core.execute(CpuId(0), &read(0x7000 + i * 64), t, &mut m);
        }
        // Third miss had to wait for the first to complete.
        assert!(t - t0 >= 180, "elapsed {}", t - t0);
        assert!(core.in_flight() <= 2);
    }

    #[test]
    fn drain_completes_window() {
        let mut core = OooCore::new(OooConfig::tfsim_default());
        let mut m = mem();
        core.execute(CpuId(0), &compute(4), 0, &mut m);
        let t0 = 10_000;
        core.execute(CpuId(0), &read(0x9000), t0, &mut m);
        let wait = core.drain(t0 + 1);
        assert!(wait >= 179, "drain should wait for the miss, waited {wait}");
        assert_eq!(core.in_flight(), 0);
        assert_eq!(core.drain(t0 + 1000), 0);
    }

    #[test]
    fn mispredicted_branch_pays_penalty() {
        let mut core = OooCore::new(OooConfig::tfsim_default());
        let mut m = mem();
        // A fresh predictor with weakly-taken default: a not-taken branch
        // mispredicts.
        let busy = core.execute(
            CpuId(0),
            &Op::Branch(BranchInfo {
                pc: 0x44,
                taken: false,
            }),
            0,
            &mut m,
        );
        assert_eq!(busy, 1 + core.config().mispredict_penalty_ns);
        assert_eq!(core.stats().branch_mispredicts, 1);
    }

    #[test]
    fn matched_call_return_is_fast() {
        let mut core = OooCore::new(OooConfig::tfsim_default());
        let mut m = mem();
        let c = core.execute(CpuId(0), &Op::Call { return_pc: 0x99 }, 0, &mut m);
        let r = core.execute(CpuId(0), &Op::Return { return_pc: 0x99 }, 10, &mut m);
        assert_eq!(c, 1);
        assert_eq!(r, 1);
        assert_eq!(core.stats().ras_mispredicts, 0);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut core = OooCore::new(OooConfig::tfsim_default());
            let mut m = mem();
            let mut t = 0u64;
            for i in 0..200u64 {
                t += core.execute(CpuId(0), &read(0x100 + (i * 37) % 512), t, &mut m);
                t += core.execute(CpuId(0), &compute((i % 13) as u32 + 1), t, &mut m);
            }
            t
        };
        assert_eq!(run(), run());
    }
}
