//! `mtvar-core`: the statistical simulation methodology of *Variability in
//! Architectural Simulations of Multi-Threaded Workloads* (Alameldeen &
//! Wood, HPCA 2003).
//!
//! The paper's central claim is that single-simulation experiments on
//! multi-threaded workloads draw the **wrong conclusion** alarmingly often
//! (31% of run pairs in its cache-associativity experiment), and that a
//! simple methodology fixes it: inject small pseudo-random timing
//! perturbations to expose the workload's space of executions, run several
//! simulations per configuration, and apply classical statistics. This crate
//! is that methodology:
//!
//! * [`runspace`] — execute the space of perturbed runs for one
//!   configuration (or from a snapshot, the only kind of checkpoint),
//!   sequentially or in parallel via the deterministic
//!   [`runspace::Executor`]: seeds derive from `(configuration or snapshot
//!   content, run index)`, so results are bit-identical for any thread
//!   count, with run-result caching and progress observation.
//!   By default a sweep with warmup simulates the warmup *once*, snapshots,
//!   and forks each perturbed run from the restored snapshot (§3.2.2's
//!   checkpoint protocol); `RunPlan::with_shared_warmup(false)` keeps the
//!   legacy perturb-from-cycle-zero path.
//! * [`checkpoint`] — the content-addressed [`checkpoint::CheckpointStore`]
//!   behind shared warmup: an in-memory LRU of machine snapshots with
//!   crash-safe disk spill, longest-prefix warmup extension, and the
//!   single-flight that lets concurrent callers pay for a warmup once.
//! * [`resultcache`] — the run-result cache's persistent layer
//!   ([`resultcache::ResultStore`]): completed measurements and their
//!   violation records spill to disk with the same crash-safe framing, so a
//!   restarted process (or a long-lived service) keeps its warm results.
//! * [`metrics`] — coefficient of variation, range of variability, and
//!   windowed time series (§4.2, §4.3).
//! * [`wcr`] — the wrong-conclusion ratio by pairwise enumeration (§4.1).
//! * [`compare`] — confidence intervals, hypothesis tests, minimum-run
//!   estimation and verdicts for comparison experiments (§5.1).
//! * [`timesample`] — snapshot sweeps over starting points
//!   ([`timesample::sweep_positions_with`]) and one-way ANOVA to decide whether
//!   time sampling is required (§5.2).
//! * [`sampling`] — 2024-era sampling methodologies (stratified, ranked-set,
//!   live) driven over the checkpoint substrate, with an evaluation harness
//!   scoring them by WCR and CI coverage against full-run ground truth.
//! * [`budget`] — the paper's stated future work: splitting a fixed
//!   simulation budget between run count and run length.
//! * [`experiment`] — the one-call declarative form of the whole workflow:
//!   configurations in, variability + WCR + verdict tables out.
//! * [`report`] — plain-text tables used by the benches and examples.
//!
//! # Example: a variability-aware comparison
//!
//! ```
//! # fn main() -> Result<(), mtvar_core::CoreError> {
//! use mtvar_core::compare::Comparison;
//!
//! // Cycles/transaction from 6 perturbed runs per configuration.
//! let base = [4.61e6, 4.72e6, 4.55e6, 4.68e6, 4.59e6, 4.70e6];
//! let enhanced = [4.41e6, 4.52e6, 4.38e6, 4.49e6, 4.44e6, 4.47e6];
//! let cmp = Comparison::from_runs("2-way", &base, "4-way", &enhanced)?;
//! let verdict = cmp.verdict(0.05)?;
//! assert!(verdict.is_conclusive());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod budget;
pub mod checkpoint;
pub mod compare;
pub mod experiment;
pub mod golden;
pub mod metrics;
mod pool;
pub mod report;
pub mod resultcache;
pub mod runspace;
pub mod sampling;
mod spill;
pub mod timesample;
pub mod wcr;

use std::fmt;

/// Error type for methodology operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// An underlying simulation failed.
    Sim(mtvar_sim::SimError),
    /// An underlying statistical computation failed.
    Stats(mtvar_stats::StatsError),
    /// The experiment design itself was invalid.
    InvalidExperiment {
        /// Description of the violated constraint.
        what: String,
    },
    /// A run inside an executor sweep violated simulator invariants and the
    /// executor was in strict mode
    /// ([`runspace::Executor::with_invariant_checks`]). The statistical
    /// aggregate was never built: a polluted run space is not data.
    InvariantViolation {
        /// Run index (seed order) of the lowest-indexed violating run.
        run: usize,
        /// That run's stored violation reports (capped by the monitor; the
        /// run's uncapped total can be larger).
        report: Vec<mtvar_sim::check::Violation>,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Sim(e) => write!(f, "simulation error: {e}"),
            CoreError::Stats(e) => write!(f, "statistics error: {e}"),
            CoreError::InvalidExperiment { what } => {
                write!(f, "invalid experiment: {what}")
            }
            CoreError::InvariantViolation { run, report } => {
                write!(f, "run {run} violated {} invariant(s)", report.len())?;
                if let Some(first) = report.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Sim(e) => Some(e),
            CoreError::Stats(e) => Some(e),
            CoreError::InvalidExperiment { .. } => None,
            CoreError::InvariantViolation { .. } => None,
        }
    }
}

impl From<mtvar_sim::SimError> for CoreError {
    fn from(e: mtvar_sim::SimError) -> Self {
        CoreError::Sim(e)
    }
}

impl From<mtvar_stats::StatsError> for CoreError {
    fn from(e: mtvar_stats::StatsError) -> Self {
        CoreError::Stats(e)
    }
}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_and_display() {
        let s: CoreError = mtvar_sim::SimError::InvalidConfig { what: "x".into() }.into();
        assert!(s.to_string().contains("simulation error"));
        let t: CoreError = mtvar_stats::StatsError::EmptySample.into();
        assert!(t.to_string().contains("statistics error"));
        let e = CoreError::InvalidExperiment {
            what: "needs runs".into(),
        };
        assert!(e.to_string().contains("needs runs"));
    }

    #[test]
    fn error_source_chain() {
        use std::error::Error;
        let s: CoreError = mtvar_stats::StatsError::EmptySample.into();
        assert!(s.source().is_some());
    }
}
