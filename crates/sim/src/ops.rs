//! The operation IR executed by simulated threads.
//!
//! Workload generators (the `mtvar-workloads` crate) emit per-thread streams
//! of [`Op`]s; the machine in [`crate::machine`] interprets them against the
//! processor, memory-system and scheduler models. An `Op` is deliberately
//! coarser than one instruction — a [`Op::Compute`] burst stands for a run of
//! ALU instructions — which keeps the event count proportional to memory and
//! synchronization activity rather than instruction count.

use crate::ids::{BlockAddr, LockId, Nanos};

/// Whether a memory access reads or writes its block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load: needs a readable (M/O/S) copy of the block.
    Read,
    /// A store: needs an exclusive (M) copy of the block.
    Write,
}

/// Direction hint for conditional branches, produced by the workload's own
/// deterministic control-flow model and consumed by the branch predictors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// Static identity of the branch (hashes into predictor tables).
    pub pc: u32,
    /// Actual outcome.
    pub taken: bool,
}

/// One unit of work in a thread's instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Execute `instructions` ALU instructions touching the code region
    /// identified by `code_block` (drives the L1 I-cache model).
    Compute {
        /// Number of instructions in the burst (≥ 1).
        instructions: u32,
        /// Code block fetched for this burst.
        code_block: BlockAddr,
    },
    /// A data memory access.
    Memory {
        /// Block touched.
        addr: BlockAddr,
        /// Load or store.
        kind: AccessKind,
        /// Whether the access depends on the most recent in-flight load
        /// (pointer chasing): a dependent access cannot issue until that
        /// load completes, bounding memory-level parallelism no matter how
        /// large the reorder buffer is.
        dependent: bool,
    },
    /// A conditional branch (exercises the direct-branch predictor in the
    /// out-of-order model; costs one instruction slot in the simple model).
    Branch(BranchInfo),
    /// An indirect branch/call with a data-dependent target (exercises the
    /// cascaded indirect predictor).
    IndirectBranch {
        /// Static identity of the branch site.
        pc: u32,
        /// Dynamic target identity.
        target: u32,
    },
    /// A function call (pushes the return-address stack).
    Call {
        /// Token identifying the address execution returns to; the matching
        /// [`Op::Return`] carries the same value, which is what the RAS is
        /// checked against.
        return_pc: u32,
    },
    /// A function return (pops the return-address stack).
    Return {
        /// Actual return target (the matching call's `return_pc`).
        return_pc: u32,
    },
    /// Acquire the workload-level mutex `LockId`; blocks (after a bounded
    /// spin) if contended. Also performs an exclusive access to the lock's
    /// cache block, so lock handoffs generate real coherence traffic.
    Lock(LockId),
    /// Release a previously acquired mutex.
    Unlock(LockId),
    /// Mark the completion of one transaction (the unit of the paper's
    /// cycles-per-transaction metric, §3.1).
    TxnEnd,
    /// Block the thread for `Nanos` of simulated time (I/O, think time,
    /// log flush, ...). The CPU schedules another thread meanwhile.
    Io(Nanos),
    /// Voluntarily yield the processor at this point.
    Yield,
}

impl Op {
    /// Number of instruction slots the op occupies in a processor pipeline
    /// (used for ROB accounting in the out-of-order model).
    #[inline]
    pub fn instruction_count(&self) -> u32 {
        match self {
            Op::Compute { instructions, .. } => (*instructions).max(1),
            Op::Memory { .. }
            | Op::Branch(_)
            | Op::IndirectBranch { .. }
            | Op::Call { .. }
            | Op::Return { .. } => 1,
            // Synchronization/system ops correspond to short instruction
            // sequences; charge a nominal handful.
            Op::Lock(_) | Op::Unlock(_) => 4,
            Op::TxnEnd | Op::Io(_) | Op::Yield => 2,
        }
    }

    /// Whether this op can appear speculatively in an out-of-order window.
    /// Synchronization and system ops drain the pipeline instead.
    #[inline]
    pub fn is_serializing(&self) -> bool {
        matches!(
            self,
            Op::Lock(_) | Op::Unlock(_) | Op::TxnEnd | Op::Io(_) | Op::Yield
        )
    }
}

crate::impl_snap!(enum AccessKind {
    0 => Read,
    1 => Write,
});
crate::impl_snap!(BranchInfo { pc, taken });
crate::impl_snap!(enum Op {
    0 => Compute { instructions, code_block },
    1 => Memory { addr, kind, dependent },
    2 => Branch(info),
    3 => IndirectBranch { pc, target },
    4 => Call { return_pc },
    5 => Return { return_pc },
    6 => Lock(lock),
    7 => Unlock(lock),
    8 => TxnEnd,
    9 => Io(ns),
    10 => Yield,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_counts() {
        let c = Op::Compute {
            instructions: 17,
            code_block: BlockAddr(1),
        };
        assert_eq!(c.instruction_count(), 17);
        assert_eq!(
            Op::Memory {
                addr: BlockAddr(2),
                kind: AccessKind::Read,
                dependent: true,
            }
            .instruction_count(),
            1
        );
        assert_eq!(Op::Lock(LockId(0)).instruction_count(), 4);
        // A zero-instruction burst still occupies one slot.
        let z = Op::Compute {
            instructions: 0,
            code_block: BlockAddr(1),
        };
        assert_eq!(z.instruction_count(), 1);
    }

    #[test]
    fn serializing_classification() {
        assert!(Op::Lock(LockId(1)).is_serializing());
        assert!(Op::Io(100).is_serializing());
        assert!(Op::TxnEnd.is_serializing());
        assert!(!Op::Branch(BranchInfo { pc: 1, taken: true }).is_serializing());
        assert!(!Op::Return { return_pc: 3 }.is_serializing());
    }
}
