//! `mtvar-sim`: a deterministic discrete-event multiprocessor timing
//! simulator — the substrate for reproducing *Variability in Architectural
//! Simulations of Multi-Threaded Workloads* (Alameldeen & Wood, HPCA 2003).
//!
//! The simulated machine mirrors the paper's §3.2 target: 16 nodes, each
//! with split 128 KB 4-way L1 caches and a 4 MB 4-way unified L2, kept
//! coherent with a MOSI invalidation-based snooping protocol over a crossbar
//! interconnect (50 ns per traversal) and 80 ns DRAM, clocked at 1 GHz.
//! Processors run either a blocking IPC-1 model or a TFsim-like 4-wide
//! out-of-order model with a configurable reorder buffer and real branch
//! predictor structures. An OS scheduler model (quanta, priorities, blocking
//! locks, I/O sleep) makes thread interleaving a function of simulated time,
//! so the §3.3 pseudo-random perturbation of L2-miss latencies exposes the
//! workloads' inherent space variability.
//!
//! # Quick start
//!
//! ```
//! # fn main() -> Result<(), mtvar_sim::SimError> {
//! use mtvar_sim::config::MachineConfig;
//! use mtvar_sim::machine::Machine;
//! use mtvar_sim::workload::UniformWorkload;
//!
//! // The paper's 16-node target with 0–4 ns perturbation on L2 misses.
//! let cfg = MachineConfig::hpca2003().with_perturbation(4, 42);
//! let mut machine = Machine::new(cfg, UniformWorkload::new(32, 40, 25))?;
//! let run = machine.run_transactions(200)?;
//! println!("cycles/txn = {:.0}", run.cycles_per_transaction());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod check;
pub mod checkpoint;
pub mod config;
pub mod equeue;
pub mod hash;
pub mod ids;
pub mod machine;
pub mod mem;
pub mod noise;
pub mod ops;
pub mod proc;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod sync;
pub mod workload;

use std::fmt;

/// Error type for simulator construction and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A configuration value was inconsistent or out of range.
    InvalidConfig {
        /// Description of the violated constraint.
        what: String,
    },
    /// Simulation wedged: no runnable thread and no pending event before the
    /// requested work completed.
    Deadlock {
        /// Simulated time at which the machine wedged.
        at_cycle: ids::Cycle,
        /// Transactions committed in the current interval before wedging.
        committed: u64,
    },
    /// A checkpoint could not be decoded into a machine (truncated,
    /// corrupted, or produced by an incompatible encoding version).
    BadCheckpoint {
        /// Description of the rejection.
        what: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            SimError::Deadlock {
                at_cycle,
                committed,
            } => write!(
                f,
                "simulation deadlocked at cycle {at_cycle} after {committed} transaction(s)"
            ),
            SimError::BadCheckpoint { what } => write!(f, "bad checkpoint: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = SimError::InvalidConfig {
            what: "x must be y".into(),
        };
        assert!(e.to_string().contains("x must be y"));
        let d = SimError::Deadlock {
            at_cycle: 5,
            committed: 2,
        };
        assert!(d.to_string().contains("cycle 5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
