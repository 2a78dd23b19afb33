//! Sampling methodologies (EXPERIMENTS.md, "Sampling methodologies"): the
//! sampling estimators scored against full-run ground truth on the 16-CPU
//! OLTP workload.
//!
//! Two experiments share one checkpoint substrate:
//!
//! 1. **Headline accuracy/cost**: a 40-position frame through the OLTP
//!    warmup timeline is censused for ground truth, then each estimator
//!    (SRS, stratified, ranked-set, live) estimates the frame mean from a
//!    fraction of the positions. The bench asserts that every estimator's
//!    95% CI contains the full-run mean at ≤ 25% of the full run's
//!    simulated cycles.
//! 2. **Methodology evaluation**: the same frame on a second configuration
//!    (slower DRAM) gives a comparison experiment with a known true
//!    direction; `evaluate` scores each estimator's empirical CI coverage,
//!    wrong-conclusion ratio versus that truth, absolute error, and cost
//!    over several design-seed trials.
//!
//! The frame fixes its own run count per position, so `MTVAR_RUNS` does not
//! apply here; `tests/sampling_eval.rs` is the scaled-down version that
//! `cargo test` runs.

use mtvar_bench::{banner, executor, footer, seed};
use mtvar_core::report::Table;
use mtvar_core::runspace::RunPlan;
use mtvar_core::sampling::{evaluate, Method, SamplingFrame, SamplingStudy};
use mtvar_sim::config::MachineConfig;
use mtvar_workloads::Benchmark;

/// Frame: 40 starting points, 25 warmup transactions apart (1,000-txn span).
const POSITIONS: u64 = 40;
const SPACING: u64 = 25;
/// Per measured position: 3 perturbed runs of 250 transactions.
const RUNS: usize = 3;
const TXNS: u64 = 250;
/// Design seed of the headline estimates and base of the trial seeds.
const SEED: u64 = 2003;
/// Evaluation trials per estimator per side.
const TRIALS: usize = 3;

const METHODS: [Method; 4] = [
    Method::Position {
        samples: 6,
        strata: 1,
    },
    Method::Position {
        samples: 6,
        strata: 3,
    },
    Method::RankedSet {
        set_size: 2,
        cycles: 2,
    },
    Method::Live {
        target_half_width: 0.03,
        max_samples: 6,
    },
];

fn main() {
    let t0 = banner(
        "Sampling methodologies",
        "Which starting points? Estimators vs the full-run census",
    );
    let executor = executor();
    let plan = RunPlan::new(TXNS).with_runs(RUNS);
    let frame = SamplingFrame::new(POSITIONS, SPACING);
    let make_study = |cfg: MachineConfig| {
        SamplingStudy::new(
            &executor,
            cfg.with_perturbation(4, 0),
            || Benchmark::Oltp.workload(16, seed()),
            frame,
            &plan,
        )
        .expect("study")
    };
    let base = make_study(MachineConfig::hpca2003());
    let alt = make_study(MachineConfig::hpca2003().with_dram_latency_ns(150));

    println!(
        "  censusing the {POSITIONS}-position OLTP frame for ground truth \
         ({} warmup + {} measured transactions)...",
        frame.span(),
        POSITIONS * RUNS as u64 * TXNS
    );
    let truth = base.ground_truth().expect("census");
    println!(
        "  full-run mean {:.4} cycles/txn over {} positions, {:.3e} simulated cycles",
        truth.mean(),
        truth.values().len(),
        truth.simulated_cycles()
    );

    // Headline: each estimator vs the full run, on the base configuration.
    let mut table = Table::new("\nEstimators vs the full run (base configuration)");
    table.set_headers(vec![
        "estimator",
        "estimate",
        "95% CI",
        "n",
        "probes",
        "cost (% of full run)",
    ]);
    for method in METHODS {
        let r = base.estimate(method, SEED).expect("estimate");
        let e = &r.estimate;
        let cost_pct = 100.0 * e.cost().simulated / truth.simulated_cycles();
        assert!(
            e.ci().contains(truth.mean()),
            "{method}: 95% CI [{:.1}, {:.1}] must contain the full-run mean {:.1}",
            e.ci().lower(),
            e.ci().upper(),
            truth.mean()
        );
        assert!(
            cost_pct <= 25.0,
            "{method}: cost {cost_pct:.1}% exceeds 25% of the full run"
        );
        table.add_row(vec![
            method.name().to_owned(),
            format!("{:.1}", e.point()),
            format!("[{:.1}, {:.1}]", e.ci().lower(), e.ci().upper()),
            e.cost().measurements.to_string(),
            e.cost().proxy_probes.to_string(),
            format!("{cost_pct:.1}"),
        ]);
    }
    println!("{table}");

    // Evaluation: base vs slower-DRAM alternative, TRIALS seeds per method.
    println!("  scoring estimators on the base-vs-slow-DRAM comparison ({TRIALS} trials)...\n");
    let eval = evaluate(&base, &alt, &METHODS, TRIALS, SEED).expect("evaluation");
    println!("{}", eval.table());
    println!(
        "  true means: base {:.4}, slow DRAM {:.4} cycles/txn",
        eval.truth_base.mean(),
        eval.truth_alt.mean()
    );
    footer(t0);
}
