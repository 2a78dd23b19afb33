//! Processor timing models (§3.2.4 of the paper).
//!
//! Two models are provided, mirroring the paper's infrastructure:
//!
//! * [`ProcessorConfig::Simple`] — a fast blocking model that retires one
//!   instruction per cycle when the L1 caches are perfect, stalling for the
//!   full latency of every memory access.
//! * [`ProcessorConfig::OutOfOrder`] — a TFsim-like 4-wide out-of-order model
//!   with a configurable reorder buffer, a YAGS direct predictor, a cascaded
//!   indirect predictor and a return-address stack. Long-latency misses
//!   overlap with younger work until the ROB fills (memory-level
//!   parallelism), which is what makes runtime improve with ROB size in
//!   Experiment 2.

pub mod predictor;

mod ooo;
mod simple;

pub use ooo::{OooConfig, OooCore};
pub use simple::SimpleCore;

use crate::ids::{CpuId, Cycle, Nanos};
use crate::mem::MemorySystem;
use crate::ops::Op;

/// Which processor timing model drives each CPU.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ProcessorConfig {
    /// Blocking in-order model (IPC 1 with perfect L1s).
    #[default]
    Simple,
    /// Out-of-order model with the given window configuration.
    OutOfOrder(OooConfig),
}

/// Counters accumulated by one processor core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcStats {
    /// Instructions executed (compute bursts count their full size).
    pub instructions: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Conditional branches mispredicted.
    pub branch_mispredicts: u64,
    /// Indirect branches mispredicted.
    pub indirect_mispredicts: u64,
    /// Returns mispredicted by the RAS.
    pub ras_mispredicts: u64,
    /// ns spent stalled because the ROB or MSHRs were full.
    pub window_stall_ns: u64,
    /// ns spent draining the window at serializing ops and context switches.
    pub drain_ns: u64,
}

impl ProcStats {
    /// Conditional-branch misprediction ratio; 0.0 (not NaN) when no
    /// branches executed, so zero-length runs stay safe to aggregate.
    pub fn branch_misprediction_ratio(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.branch_mispredicts as f64 / self.branches as f64
        }
    }
}

/// One CPU's processor state, dispatching to the configured model.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcCore {
    /// Blocking model state.
    Simple(SimpleCore),
    /// Out-of-order model state.
    Ooo(Box<OooCore>),
}

impl ProcCore {
    /// Creates a core for the configured model.
    pub fn new(config: &ProcessorConfig) -> Self {
        match config {
            ProcessorConfig::Simple => ProcCore::Simple(SimpleCore::new()),
            ProcessorConfig::OutOfOrder(cfg) => ProcCore::Ooo(Box::new(OooCore::new(*cfg))),
        }
    }

    /// Executes one pipelined op (`Compute`, `Memory`, `Branch`,
    /// `IndirectBranch`, `Call`, `Return`) starting at `now`; returns how
    /// long the CPU is busy before it can take its next op.
    ///
    /// # Panics
    ///
    /// Panics if called with a serializing op ([`Op::is_serializing`]);
    /// the machine handles those (locks, I/O, transaction boundaries) after
    /// calling [`ProcCore::drain`].
    pub fn execute(&mut self, cpu: CpuId, op: &Op, now: Cycle, mem: &mut MemorySystem) -> Cycle {
        assert!(
            !op.is_serializing(),
            "serializing ops are interpreted by the machine, not the core"
        );
        match self {
            ProcCore::Simple(c) => c.execute(cpu, op, now, mem),
            ProcCore::Ooo(c) => c.execute(cpu, op, now, mem),
        }
    }

    /// Completes all in-flight work (pipeline drain); returns the wait.
    /// Called before serializing ops and at context switches.
    pub fn drain(&mut self, now: Cycle) -> Cycle {
        match self {
            ProcCore::Simple(_) => 0,
            ProcCore::Ooo(c) => c.drain(now),
        }
    }

    /// The core's counters.
    pub fn stats(&self) -> &ProcStats {
        match self {
            ProcCore::Simple(c) => c.stats(),
            ProcCore::Ooo(c) => c.stats(),
        }
    }

    /// Resets the counters (end of warmup).
    pub fn reset_stats(&mut self) {
        match self {
            ProcCore::Simple(c) => c.reset_stats(),
            ProcCore::Ooo(c) => c.reset_stats(),
        }
    }
}

crate::impl_snap!(enum ProcessorConfig {
    0 => Simple,
    1 => OutOfOrder(config),
});
crate::impl_snap!(enum ProcCore {
    0 => Simple(core),
    1 => Ooo(core),
});
crate::impl_snap!(ProcStats {
    instructions,
    branches,
    branch_mispredicts,
    indirect_mispredicts,
    ras_mispredicts,
    window_stall_ns,
    drain_ns,
});

/// Cost in ns of the short uncontended instruction sequence around
/// synchronization ops (shared by both models).
pub(crate) const SYNC_OP_COST_NS: Nanos = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::BlockAddr;
    use crate::mem::{MemoryConfig, Perturbation};
    use crate::ops::AccessKind;

    fn mem() -> MemorySystem {
        MemorySystem::new(MemoryConfig::hpca2003(), 1, Perturbation::disabled()).unwrap()
    }

    #[test]
    fn dispatch_matches_config() {
        assert!(matches!(
            ProcCore::new(&ProcessorConfig::Simple),
            ProcCore::Simple(_)
        ));
        assert!(matches!(
            ProcCore::new(&ProcessorConfig::OutOfOrder(OooConfig::tfsim_default())),
            ProcCore::Ooo(_)
        ));
    }

    #[test]
    #[should_panic(expected = "serializing ops")]
    fn serializing_op_panics() {
        let mut core = ProcCore::new(&ProcessorConfig::Simple);
        let mut m = mem();
        core.execute(CpuId(0), &Op::TxnEnd, 0, &mut m);
    }

    #[test]
    fn branch_misprediction_ratio_is_zero_on_empty_runs() {
        let stats = ProcStats::default();
        assert_eq!(stats.branch_misprediction_ratio(), 0.0);
        let stats = ProcStats {
            branches: 8,
            branch_mispredicts: 2,
            ..ProcStats::default()
        };
        assert!((stats.branch_misprediction_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn core_encoding_is_pinned() {
        let pin = crate::checkpoint::pins::encoding_pin(&[
            ProcCore::new(&ProcessorConfig::Simple),
            ProcCore::new(&ProcessorConfig::OutOfOrder(OooConfig::tfsim_default())),
        ]);
        assert_eq!(pin, (13594, 0x34ab_dab3_9b87_8e97));
    }

    #[test]
    fn simple_drain_is_free() {
        let mut core = ProcCore::new(&ProcessorConfig::Simple);
        let mut m = mem();
        core.execute(
            CpuId(0),
            &Op::Memory {
                addr: BlockAddr(1),
                kind: AccessKind::Read,
                dependent: false,
            },
            0,
            &mut m,
        );
        assert_eq!(core.drain(500), 0);
    }
}
