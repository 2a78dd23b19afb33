//! End-to-end tests of the paper's methodology across crates: run spaces,
//! variability metrics, WCR, comparisons and time sampling driving the real
//! simulator.

use mtvar::core::compare::{Comparison, Verdict};
use mtvar::core::metrics::{windowed_series, VariabilityReport};
use mtvar::core::runspace::{run_space, Executor, RunPlan};
use mtvar::core::timesample::sweep_positions_with;
use mtvar::core::wcr::wcr_from_spaces;
use mtvar::sim::config::MachineConfig;
use mtvar::sim::machine::Machine;
use mtvar::workloads::profile::ProfiledWorkload;
use mtvar::workloads::Benchmark;

fn cfg() -> MachineConfig {
    MachineConfig::hpca2003()
        .with_cpus(4)
        .with_perturbation(4, 0)
}

#[test]
fn run_space_yields_analyzable_variability() {
    let plan = RunPlan::new(100).with_runs(6).with_warmup(100);
    let space = run_space(&cfg(), || Benchmark::Oltp.workload(4, 42), &plan).expect("space");
    let report = VariabilityReport::from_runtimes(&space.runtimes()).expect("report");
    assert_eq!(report.runs, 6);
    assert!(report.mean > 0.0);
    assert!(report.cov_percent >= 0.0);
    assert!(report.range_percent >= 0.0);
    assert!(report.min <= report.mean && report.mean <= report.max);
}

#[test]
fn wcr_detects_overlap_between_close_configs() {
    // 2-way vs 4-way L2 on a small machine: close configs, overlapping
    // ranges, WCR strictly between 0 and 100. Both spaces execute on one
    // parallel executor and feed WCR directly.
    let executor = Executor::new();
    let collect = |ways| {
        let c = cfg().with_l2_associativity(ways);
        let plan = RunPlan::new(80).with_runs(8).with_warmup(200);
        executor
            .run_space(&c, || Benchmark::Oltp.workload(4, 42), &plan)
            .expect("space")
    };
    let a = collect(2);
    let b = collect(4);
    let w = wcr_from_spaces(&a, &b).expect("wcr");
    assert!(w.total_pairs == 64);
    assert!((0.0..=100.0).contains(&w.wcr_percent));
}

#[test]
fn comparison_workflow_runs_end_to_end() {
    let executor = Executor::new();
    let collect = |seed_base: u64| {
        let mut c = cfg();
        c.perturbation_seed = seed_base;
        let plan = RunPlan::new(60).with_runs(5).with_base_seed(seed_base);
        executor
            .run_space(&c, || Benchmark::Apache.workload(4, 9), &plan)
            .expect("space")
    };
    let a = collect(0);
    let b = collect(1000);
    let cmp = Comparison::from_spaces("a", &a, "b", &b).expect("comparison");
    let (ci_a, ci_b) = cmp.confidence_intervals(0.95).expect("cis");
    assert!(ci_a.width() > 0.0 && ci_b.width() > 0.0);
    // Same configuration sampled twice: the verdict must not be a confident
    // separation at a tight level... but tiny samples can fluke; just check
    // the machinery produces a coherent answer.
    match cmp.verdict(0.001).expect("verdict") {
        Verdict::Superior {
            wrong_conclusion_bound,
            ..
        } => assert!(wrong_conclusion_bound <= 0.001),
        Verdict::Inconclusive { p_value } => assert!(p_value > 0.001),
    }
}

#[test]
fn checkpoint_run_space_and_windows() {
    let mut m = Machine::new(cfg(), Benchmark::Oltp.workload(4, 42)).expect("machine");
    m.run_transactions(50).expect("warmup");
    let plan = RunPlan::new(100).with_runs(4);
    let space = Executor::sequential()
        .run_space_from_snapshot::<ProfiledWorkload>(&m.snapshot(), 4, &plan)
        .expect("space");
    assert_eq!(space.len(), 4);
    // Windowed series over one of the runs.
    let series = windowed_series(&space.results()[0], 20).expect("series");
    assert_eq!(series.len(), 5);
    assert!(series.iter().all(|&v| v > 0.0));
}

#[test]
fn time_sampling_study_end_to_end() {
    let plan = RunPlan::new(60).with_runs(3);
    let study = sweep_positions_with(
        &Executor::new(),
        &cfg(),
        || Benchmark::Specjbb.workload(4, 42),
        &[500, 900, 1300],
        &plan,
    )
    .expect("sweep");
    assert_eq!(study.groups().len(), 3);
    let anova = study.anova().expect("anova");
    assert!(anova.f_statistic() >= 0.0);
    assert!((0.0..=1.0).contains(&anova.p_value()));
    // SPECjbb's heap growth should make time variability visible even on a
    // small machine; do not assert significance (short runs), just coherence.
    let _ = study.requires_time_sampling(0.05).expect("decision");
}

#[test]
fn two_way_anova_over_workload_and_configuration() {
    // The paper's §5.2 suggestion: when the system configuration may affect
    // variability, analyze workload x configuration combinations. Factor A:
    // workload (OLTP vs Apache); factor B: L2 associativity (2 vs 4); three
    // perturbed runs per cell.
    let cell = |b: Benchmark, ways: u32| -> Vec<f64> {
        let c = cfg().with_l2_associativity(ways);
        let plan = RunPlan::new(60).with_runs(3).with_warmup(100);
        run_space(&c, || b.workload(4, 42), &plan)
            .expect("space")
            .runtimes()
    };
    let cells = vec![
        vec![cell(Benchmark::Oltp, 2), cell(Benchmark::Oltp, 4)],
        vec![cell(Benchmark::Apache, 2), cell(Benchmark::Apache, 4)],
    ];
    let anova = mtvar::stats::infer::anova_two_way(&cells).expect("two-way anova");
    // The workload factor must dominate: OLTP and Apache transactions differ
    // in cost by integer factors, while associativity moves things by a few
    // percent.
    assert!(
        anova.factor_a.0 > anova.factor_b.0,
        "workload F ({:.1}) should exceed configuration F ({:.1})",
        anova.factor_a.0,
        anova.factor_b.0
    );
    assert!(
        anova.factor_a.1 < 0.05,
        "workload effect must be significant"
    );
    assert!((0.0..=1.0).contains(&anova.interaction.1));
}

#[test]
fn declarative_experiment_end_to_end() {
    use mtvar::core::experiment::{Arm, Experiment};

    let base = cfg();
    let exp = Experiment::new(
        "dram",
        vec![
            Arm {
                name: "80ns".into(),
                config: base.clone(),
            },
            Arm {
                name: "240ns".into(),
                config: base.clone().with_dram_latency_ns(240),
            },
        ],
        RunPlan::new(60).with_runs(4).with_warmup(60),
    )
    .expect("experiment");
    let report = exp.run(|| Benchmark::Oltp.workload(4, 42)).expect("run");
    assert_eq!(report.best_arm().name, "80ns", "3x DRAM latency must lose");
    let (arms, pairs) = report.to_table();
    assert_eq!(arms.row_count(), 2);
    assert_eq!(pairs.row_count(), 1);
    // CSV export round-trips through the report path.
    let csv = arms.to_csv();
    assert!(csv.lines().count() >= 3);
}

#[test]
fn budget_planner_consumes_pilot_covs() {
    use mtvar::core::budget::{plan_budget, CovModel};

    // Pilot on the real simulator at two lengths, measured and fitted by
    // the executor-driven helper.
    let model = CovModel::fit_by_pilot(
        &Executor::new(),
        &cfg(),
        || Benchmark::Oltp.workload(4, 42),
        &[40, 160],
        5,
        100,
    )
    .expect("fit");
    let plan = plan_budget(&model, 2_000, 40, 0.95).expect("plan");
    assert!(plan.runs >= 2);
    assert!(plan.runs as u64 * plan.transactions_per_run <= 2_000);
}

#[test]
fn all_benchmarks_run_on_the_paper_target() {
    for b in Benchmark::ALL {
        let mut m = Machine::new(
            MachineConfig::hpca2003().with_perturbation(4, 1),
            b.workload(16, 42),
        )
        .expect("machine");
        let txns = match b {
            Benchmark::Barnes | Benchmark::Ocean => 16,
            _ => 30,
        };
        let r = m.run_transactions(txns).expect("run");
        assert_eq!(r.transactions, txns, "{b} must commit {txns} transactions");
        assert!(r.cycles_per_transaction() > 0.0);
    }
}
