//! Shared plumbing for the `mtvar` benchmark harness.
//!
//! Every bench target under `benches/` regenerates one table or figure of
//! the HPCA 2003 paper, or one methodology study built on it, and prints the
//! measured artifact next to the values the paper reports, so shapes can be
//! compared at a glance. See `EXPERIMENTS.md` at the workspace root for the
//! full index and the scaling notes. Nothing here is a stopwatch: timings
//! live in `sh benchmark/run.sh` (`BENCHMARK.json` metric names), identities
//! in `tests/`.
//!
//! Environment knobs:
//!
//! * `MTVAR_RUNS` — perturbed runs per configuration (default 20, the
//!   paper's count). Lower it for a quick smoke pass.
//! * `MTVAR_SEED` — workload seed (default 42).
//! * `MTVAR_STRICT` — set to `1` to run every sweep under a strict
//!   executor: any invariant violation aborts the bench with a typed
//!   error instead of being merely reported.

use std::sync::Arc;
use std::time::Instant;

use mtvar_core::checkpoint::CheckpointStore;
use mtvar_core::runspace::{Executor, RunPlan, RunSpace};

/// Run plan for reproducing a paper artifact: `txns` measured transactions
/// under the **legacy perturb-from-cycle-zero semantics**
/// (`with_shared_warmup(false)`). At the scaled-down run lengths this
/// harness uses, divergence accumulated during a perturbed warmup carries
/// most of the variability the paper's tables measure, so the artifacts pin
/// that protocol explicitly instead of inheriting the shared-warmup default
/// — which also keeps the committed `bench_output.txt` values regenerable
/// byte-for-byte. See EXPERIMENTS.md, "Shared warmup vs legacy
/// perturb-from-zero".
pub fn paper_plan(txns: u64) -> RunPlan {
    RunPlan::new(txns).with_shared_warmup(false)
}

/// Number of perturbed runs per configuration (env `MTVAR_RUNS`, default 20).
pub fn runs() -> usize {
    std::env::var("MTVAR_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(20)
}

/// The workload seed (env `MTVAR_SEED`, default 42).
pub fn seed() -> u64 {
    std::env::var("MTVAR_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// The bench harness's executor: observing by default, strict when
/// `MTVAR_STRICT=1` (any invariant violation then surfaces as
/// [`mtvar_core::CoreError::InvariantViolation`] instead of a count), and
/// always backed by a warmup [`CheckpointStore`] spilling to
/// `target/mtvar-checkpoints/`. The store never changes a statistic — run
/// seeds derive from the configuration, not the store — it only removes
/// repeated warmup simulation within and across bench invocations.
pub fn executor() -> Executor {
    let mut exec = Executor::new();
    if std::env::var("MTVAR_STRICT").is_ok_and(|v| v == "1") {
        exec = exec.with_invariant_checks();
    }
    exec.with_checkpoint_store(Arc::new(CheckpointStore::new().with_default_disk_spill()))
}

/// Prints a one-line invariant report for a sweep when anything fired;
/// silent on clean spaces so the paper tables stay uncluttered.
pub fn report_violations(label: &str, space: &RunSpace) {
    if !space.is_clean() {
        println!(
            "    !! {label}: {} invariant violation(s) across {} run(s)",
            space.total_violations(),
            space.violations().len()
        );
    }
}

/// Prints the standard experiment banner and returns the start instant.
pub fn banner(id: &str, title: &str) -> Instant {
    println!();
    println!("=== {id}: {title} ===");
    println!(
        "    ({} runs/config, workload seed {}; see EXPERIMENTS.md for scaling)",
        runs(),
        seed()
    );
    Instant::now()
}

/// Prints the closing line with elapsed wall time.
pub fn footer(start: Instant) {
    println!("    [completed in {:.1?}]", start.elapsed());
}

/// Formats a slice of runtimes as `mean ± sd (min / max)`.
pub fn fmt_sample(rt: &[f64]) -> String {
    let s = mtvar_stats::describe::Summary::from_slice(rt).expect("non-empty runtimes");
    format!(
        "{:8.1} ± {:6.1}  (min {:8.1}, max {:8.1})",
        s.mean(),
        s.sd(),
        s.min(),
        s.max()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        // These read the environment; absent overrides they use the paper's
        // run count.
        if std::env::var("MTVAR_RUNS").is_err() {
            assert_eq!(runs(), 20);
        }
        if std::env::var("MTVAR_SEED").is_err() {
            assert_eq!(seed(), 42);
        }
    }

    #[test]
    fn executor_strictness_follows_env() {
        // The env var is process-global, so only assert in the states we can
        // observe without mutating it.
        match std::env::var("MTVAR_STRICT") {
            Ok(v) if v == "1" => assert!(executor().strict_invariants()),
            Ok(_) | Err(_) => assert!(!executor().strict_invariants()),
        }
    }

    #[test]
    fn fmt_sample_contains_moments() {
        let s = fmt_sample(&[1.0, 2.0, 3.0]);
        assert!(s.contains("2.0"));
        assert!(s.contains("min"));
    }
}
