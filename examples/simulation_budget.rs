//! Planning a simulation campaign under a fixed budget, with
//! strategy-chosen starting points — the §5.2 "future work" features.
//!
//! Workflow: pilot-measure the workload's CoV decay, plan the budget split,
//! place checkpoints with stratified sampling, and run the campaign.
//!
//! ```text
//! cargo run --release --example simulation_budget
//! ```

use mtvar_core::budget::{plan_budget, CovModel};
use mtvar_core::metrics::VariabilityReport;
use mtvar_core::runspace::{Executor, RunPlan};
use mtvar_core::timesample::{checkpoint_positions, sweep_positions_with, SamplingStrategy};
use mtvar_sim::config::MachineConfig;
use mtvar_workloads::Benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MachineConfig::hpca2003().with_perturbation(4, 0);
    let executor = Executor::new();

    // 1. Pilot: a quick CoV-vs-length sweep (a miniature Table 4), measured
    //    and fitted in one call. The pilot's run spaces execute in parallel
    //    on the executor.
    println!("pilot sweep on {} thread(s)...", executor.threads());
    let model = CovModel::fit_by_pilot(
        &executor,
        &cfg,
        || Benchmark::Oltp.workload(16, 42),
        &[100, 200, 400],
        6,
        600,
    )?;
    for len in [100u64, 200, 400] {
        println!(
            "  {len:>4}-txn runs: fitted CoV {:.2}%",
            model.cov_percent_at(len)
        );
    }

    // 2. Plan: how should 6,000 transactions of budget be spent?
    let plan = plan_budget(&model, 6_000, 100, 0.95)?;
    println!(
        "\nplan for a 6,000-transaction budget: {} runs x {} transactions \
         (predicted CI halfwidth ±{:.2}%)",
        plan.runs, plan.transactions_per_run, plan.ci_halfwidth_percent
    );

    // 3. Time sampling: place 4 starting points by stratified sampling over
    //    the first 4,000 transactions of the workload's lifetime.
    let positions = checkpoint_positions(SamplingStrategy::Stratified { seed: 9 }, 4, 4_000)?;
    println!("stratified starting points (txns warmed): {positions:?}");

    let run_plan = RunPlan::new(plan.transactions_per_run).with_runs(plan.runs.min(5));
    let study = sweep_positions_with(
        &executor,
        &cfg,
        || Benchmark::Oltp.workload(16, 42),
        &positions,
        &run_plan,
    )?;
    assert!(
        study.is_clean(),
        "campaign runs violated invariants: {:?}",
        study.violation_counts()
    );

    for (ck, group) in study.checkpoints().iter().zip(study.groups()) {
        let rep = VariabilityReport::from_runtimes(group)?;
        println!(
            "  checkpoint @{ck:>5}: cycles/txn {:.1} ± {:.1}",
            rep.mean, rep.sd
        );
    }
    let anova = study.anova()?;
    println!(
        "ANOVA across starting points: F = {:.2}, p = {:.3e} -> {}",
        anova.f_statistic(),
        anova.p_value(),
        if study.requires_time_sampling(0.05)? {
            "report the grand mean over all starting points"
        } else {
            "a single starting point would have sufficed"
        }
    );
    Ok(())
}
