//! The fast blocking processor model (§3.2.4): one instruction per cycle
//! with perfect L1s, full stalls on every memory access.

use super::ProcStats;
use crate::ids::{CpuId, Cycle};
use crate::mem::MemorySystem;
use crate::ops::Op;

/// State of a simple blocking core (counters only — the model has no
/// microarchitectural state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimpleCore {
    stats: ProcStats,
}

impl SimpleCore {
    /// Creates a core.
    pub fn new() -> Self {
        SimpleCore::default()
    }

    /// Executes one op; returns the busy time in cycles.
    pub fn execute(&mut self, cpu: CpuId, op: &Op, now: Cycle, mem: &mut MemorySystem) -> Cycle {
        self.stats.instructions += u64::from(op.instruction_count());
        match op {
            Op::Compute {
                instructions,
                code_block,
            } => {
                let fetch = mem.fetch(cpu, *code_block, now);
                Cycle::from((*instructions).max(1)) + fetch
            }
            // The blocking model serializes every access anyway, so the
            // dependence flag is irrelevant here.
            Op::Memory { addr, kind, .. } => mem.access(cpu, *addr, *kind, now).latency,
            // The blocking model charges one cycle for control-flow
            // instructions; it has no speculation to mispredict.
            Op::Branch(_) | Op::IndirectBranch { .. } | Op::Call { .. } | Op::Return { .. } => 1,
            Op::Lock(_) | Op::Unlock(_) | Op::TxnEnd | Op::Io(_) | Op::Yield => {
                unreachable!("serializing ops are interpreted by the machine")
            }
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &ProcStats {
        &self.stats
    }

    /// Resets the counters.
    pub fn reset_stats(&mut self) {
        self.stats = ProcStats::default();
    }

    /// Convenience used by tests: executes a pure read and returns latency.
    #[cfg(test)]
    pub(crate) fn read(
        &mut self,
        cpu: CpuId,
        addr: crate::ids::BlockAddr,
        now: Cycle,
        mem: &mut MemorySystem,
    ) -> Cycle {
        self.execute(
            cpu,
            &Op::Memory {
                addr,
                kind: crate::ops::AccessKind::Read,
                dependent: false,
            },
            now,
            mem,
        )
    }
}

crate::impl_snap!(SimpleCore { stats });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::BlockAddr;
    use crate::mem::{MemoryConfig, Perturbation};
    use crate::ops::BranchInfo;

    fn mem() -> MemorySystem {
        MemorySystem::new(MemoryConfig::hpca2003(), 1, Perturbation::disabled()).unwrap()
    }

    #[test]
    fn compute_costs_one_cycle_per_instruction() {
        let mut c = SimpleCore::new();
        let mut m = mem();
        let op = Op::Compute {
            instructions: 25,
            code_block: BlockAddr(0xC0),
        };
        // First burst pays the cold I-fetch.
        let first = c.execute(CpuId(0), &op, 0, &mut m);
        assert_eq!(first, 25 + 180);
        // Subsequent bursts are pure IPC-1.
        let warm = c.execute(CpuId(0), &op, 1000, &mut m);
        assert_eq!(warm, 25);
        assert_eq!(c.stats().instructions, 50);
    }

    #[test]
    fn memory_op_blocks_for_full_latency() {
        let mut c = SimpleCore::new();
        let mut m = mem();
        let cold = c.read(CpuId(0), BlockAddr(5), 0, &mut m);
        assert_eq!(cold, 180);
        let hit = c.read(CpuId(0), BlockAddr(5), 200, &mut m);
        assert_eq!(hit, 1);
    }

    #[test]
    fn control_flow_costs_one_cycle() {
        let mut c = SimpleCore::new();
        let mut m = mem();
        assert_eq!(
            c.execute(
                CpuId(0),
                &Op::Branch(BranchInfo { pc: 1, taken: true }),
                0,
                &mut m
            ),
            1
        );
        assert_eq!(
            c.execute(
                CpuId(0),
                &Op::IndirectBranch { pc: 2, target: 9 },
                0,
                &mut m
            ),
            1
        );
    }
}
