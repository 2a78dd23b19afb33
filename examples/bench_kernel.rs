//! Kernel-throughput benchmark: events/second of the discrete-event core on
//! the paper's 16-processor OLTP reference workload, plus the run-space
//! wall-clock on the PR-4 `design_comparison` workload, written to
//! `BENCH_kernel.json`.
//!
//! ```text
//! cargo run --release --example bench_kernel
//! ```
//!
//! The `before_*` constants are the same measurements taken on this host at
//! the commit immediately preceding the kernel overhaul (binary heap event
//! queue, broadcast snoops, per-decision allocations); the `after` numbers
//! are measured live. The digests pin the statistics: every optimization
//! must leave the simulated execution bit-identical, so the events/second
//! ratio is an honest like-for-like speedup, not a semantics change.

use std::time::Instant;

use mtvar_core::golden::run_digest;
use mtvar_core::runspace::{Executor, RunPlan};
use mtvar_sim::config::MachineConfig;
use mtvar_sim::hash::fold_digest;
use mtvar_sim::machine::Machine;
use mtvar_sim::proc::{OooConfig, ProcessorConfig};
use mtvar_workloads::Benchmark;

/// Measurement samples per scenario; the median is reported.
const SAMPLES: usize = 5;
/// Warmup transactions before the timed interval.
const WARMUP_TXNS: u64 = 100;
/// Timed transactions on the 16-CPU OLTP machine.
const MEASURE_TXNS: u64 = 2000;

/// Run-space scenario (PR 4's `design_comparison` shape): 16 perturbed OLTP
/// runs of one ROB-32 configuration.
const SPACE_RUNS: usize = 16;
const SPACE_TXNS: u64 = 50;
const SPACE_WARMUP: u64 = 400;

/// Baseline (pre-overhaul) measurements on this host; see module docs.
/// Zero means "not yet recorded" — the example then only prints the live
/// numbers so the baseline can be captured. The space baseline is the
/// faster of two baseline runs (0.1319 s and 0.1414 s), so the reported
/// run-space delta is the conservative one.
const BEFORE_EVENTS_PER_SEC: f64 = 2_617_590.0;
const BEFORE_NS_PER_EVENT: f64 = 382.0;
const BEFORE_SPACE_SECONDS: f64 = 0.1319;

/// Digest of the timed 16-CPU OLTP interval at baseline (statistics pin).
const EXPECTED_THROUGHPUT_DIGEST: u64 = 0x3169_0f97_be50_30cb;
/// Fold of per-run digests over the run-space scenario at baseline.
const EXPECTED_SPACE_DIGEST: u64 = 0x9d11_8919_29d9_39e3;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

/// One throughput sample: fresh 16-CPU OLTP machine, warmup, then a timed
/// measured interval. Returns (events in interval, wall seconds, digest).
fn throughput_sample() -> (u64, f64, u64) {
    let cfg = MachineConfig::hpca2003().with_perturbation(4, 1);
    let mut m = Machine::new(cfg, Benchmark::Oltp.workload(16, 42)).expect("machine");
    m.run_transactions(WARMUP_TXNS).expect("warmup");
    let events0 = m.events_posted();
    let t0 = Instant::now();
    let result = m.run_transactions(MEASURE_TXNS).expect("measure");
    let wall = t0.elapsed().as_secs_f64();
    (m.events_posted() - events0, wall, run_digest(&result))
}

fn space_sample() -> (f64, u64) {
    let cfg = MachineConfig::hpca2003()
        .with_processor(ProcessorConfig::OutOfOrder(OooConfig::with_rob_size(32)))
        .with_perturbation(4, 0);
    let plan = RunPlan::new(SPACE_TXNS)
        .with_runs(SPACE_RUNS)
        .with_warmup(SPACE_WARMUP);
    let exec = Executor::sequential().without_cache();
    let t0 = Instant::now();
    let space = exec
        .run_space(&cfg, || Benchmark::Oltp.workload(16, 42), &plan)
        .expect("run space");
    let wall = t0.elapsed().as_secs_f64();
    let digest = space
        .results()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |acc, r| {
            fold_digest(acc, run_digest(r))
        });
    (wall, digest)
}

fn main() {
    println!("kernel throughput: 16-CPU OLTP, {MEASURE_TXNS} txns after {WARMUP_TXNS} warmup");

    let mut events = 0u64;
    let mut digest = 0u64;
    let walls: Vec<f64> = (0..SAMPLES)
        .map(|i| {
            let (ev, wall, d) = throughput_sample();
            if i == 0 {
                events = ev;
                digest = d;
            } else {
                assert_eq!(ev, events, "event count must be deterministic");
                assert_eq!(d, digest, "statistics must be deterministic");
            }
            wall
        })
        .collect();
    let wall = median(walls);
    let events_per_sec = events as f64 / wall;
    let ns_per_event = wall * 1e9 / events as f64;
    println!("  events in interval : {events}");
    println!("  median wall        : {wall:.4} s");
    println!("  events/sec         : {events_per_sec:.0}");
    println!("  ns/event           : {ns_per_event:.1}");
    println!("  digest             : {digest:#018x}");

    let mut space_digest = 0u64;
    let space_walls: Vec<f64> = (0..SAMPLES)
        .map(|i| {
            let (wall, d) = space_sample();
            if i == 0 {
                space_digest = d;
            } else {
                assert_eq!(
                    d, space_digest,
                    "run-space statistics must be deterministic"
                );
            }
            wall
        })
        .collect();
    let space_wall = median(space_walls);
    println!("run space: OLTP 16 CPUs, ROB-32, {SPACE_RUNS} runs x {SPACE_TXNS} txns, warmup {SPACE_WARMUP}");
    println!("  median wall        : {space_wall:.4} s");
    println!("  space digest       : {space_digest:#018x}");

    let statistics_identical = EXPECTED_THROUGHPUT_DIGEST != 0
        && digest == EXPECTED_THROUGHPUT_DIGEST
        && space_digest == EXPECTED_SPACE_DIGEST;
    if EXPECTED_THROUGHPUT_DIGEST != 0 {
        assert_eq!(
            digest, EXPECTED_THROUGHPUT_DIGEST,
            "optimizations must be digest-preserving"
        );
        assert_eq!(
            space_digest, EXPECTED_SPACE_DIGEST,
            "optimizations must be digest-preserving"
        );
    }

    if BEFORE_EVENTS_PER_SEC > 0.0 {
        let speedup = events_per_sec / BEFORE_EVENTS_PER_SEC;
        println!("  speedup vs baseline: {speedup:.3}x");
        let json = format!(
            "{{\n  \"workload\": \"16-CPU OLTP (hpca2003), {MEASURE_TXNS} measured txns after {WARMUP_TXNS} warmup; simple cores, perturbation (4 ns, seed 1)\",\n  \"events_in_interval\": {events},\n  \"before\": {{\n    \"events_per_sec\": {BEFORE_EVENTS_PER_SEC:.0},\n    \"ns_per_event\": {BEFORE_NS_PER_EVENT:.1}\n  }},\n  \"after\": {{\n    \"events_per_sec\": {events_per_sec:.0},\n    \"ns_per_event\": {ns_per_event:.1}\n  }},\n  \"speedup_events_per_sec\": {speedup:.3},\n  \"runspace_delta\": {{\n    \"workload\": \"design_comparison: OLTP 16 CPUs, ROB-32, {SPACE_RUNS} runs x {SPACE_TXNS} txns, warmup {SPACE_WARMUP} (sequential, uncached)\",\n    \"before_seconds\": {BEFORE_SPACE_SECONDS:.4},\n    \"after_seconds\": {space_wall:.4},\n    \"speedup\": {:.3}\n  }},\n  \"statistics_identical\": {statistics_identical}\n}}\n",
            BEFORE_SPACE_SECONDS / space_wall,
        );
        std::fs::write("BENCH_kernel.json", json).expect("write BENCH_kernel.json");
        println!("wrote BENCH_kernel.json");
    } else {
        println!("(baseline constants unset: record these numbers as before_* first)");
    }
}
