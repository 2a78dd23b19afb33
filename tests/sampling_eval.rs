//! Fast sampling-estimator gate: a small-n run of the evaluation harness on
//! a scaled-down OLTP frame, asserting each estimator lands within
//! tolerance of the full-run ground truth at a fraction of its cost. The
//! full-size study is `cargo bench -p mtvar-bench --bench
//! sampling_estimators`; this is the cheap version `cargo test` runs
//! (`scripts/verify.sh` runs both).

use mtvar::core::runspace::{Executor, RunPlan};
use mtvar::core::sampling::{evaluate, Method, SamplingFrame, SamplingStudy};
use mtvar::sim::config::MachineConfig;
use mtvar::workloads::profile::ProfiledWorkload;
use mtvar::workloads::Benchmark;

const METHODS: [Method; 3] = [
    Method::Position {
        samples: 4,
        strata: 2,
    },
    Method::RankedSet {
        set_size: 2,
        cycles: 2,
    },
    Method::Live {
        target_half_width: 0.05,
        max_samples: 6,
    },
];

fn study(cfg: MachineConfig) -> SamplingStudy<ProfiledWorkload, impl Fn() -> ProfiledWorkload> {
    SamplingStudy::new(
        &Executor::sequential(),
        cfg.with_perturbation(4, 0),
        || Benchmark::Oltp.workload(4, 7),
        SamplingFrame::new(10, 20),
        &RunPlan::new(60).with_runs(2),
    )
    .expect("valid study")
}

#[test]
fn estimators_land_within_tolerance_of_ground_truth() {
    let s = study(MachineConfig::hpca2003().with_cpus(4));
    let truth = s.ground_truth().expect("census");
    assert_eq!(truth.values().len(), 10);
    for method in METHODS {
        let r = s.estimate(method, 2003).expect("estimate");
        let rel_err = (r.estimate.point() - truth.mean()).abs() / truth.mean();
        assert!(
            rel_err < 0.10,
            "{method}: point {:.1} is {:.1}% from the full-run mean {:.1}",
            r.estimate.point(),
            100.0 * rel_err,
            truth.mean()
        );
        assert!(
            r.estimate.cost().simulated < 0.75 * truth.simulated_cycles(),
            "{method}: sampling must cost well under the census"
        );
    }
}

#[test]
fn evaluation_harness_scores_and_reproduces() {
    let base = study(MachineConfig::hpca2003().with_cpus(4));
    let alt = study(
        MachineConfig::hpca2003()
            .with_cpus(4)
            .with_dram_latency_ns(160),
    );
    let eval = evaluate(&base, &alt, &METHODS, 2, 11).expect("evaluation");
    assert_eq!(eval.scores.len(), METHODS.len());
    assert!(
        eval.truth_base.mean() < eval.truth_alt.mean(),
        "slower DRAM must raise cycles/transaction"
    );
    for score in &eval.scores {
        assert!((0.0..=100.0).contains(&score.coverage_percent));
        assert!((0.0..=100.0).contains(&score.wcr_percent));
        assert!(
            score.wcr_percent < 50.0,
            "{}: estimator comparisons must beat a coin flip ({}%)",
            score.method,
            score.wcr_percent
        );
        assert!(score.mean_cost_percent < 100.0);
    }
    // The harness is fully seeded: the same call reproduces bit-identically.
    let again = evaluate(&base, &alt, &METHODS, 2, 11).expect("evaluation");
    assert_eq!(eval, again);
}
