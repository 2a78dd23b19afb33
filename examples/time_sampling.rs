//! Time sampling (§5.2): checkpoints, ANOVA, and deciding whether runs from
//! one starting point are enough.
//!
//! SPECjbb is the paper's showcase: almost no space variability within a
//! checkpoint, yet checkpoint means drift by tens of percent as the heap
//! grows and GC behaviour shifts — so single-checkpoint studies silently
//! measure a phase, not the workload.
//!
//! ```text
//! cargo run --release --example time_sampling
//! ```

use mtvar_core::runspace::{Executor, RunPlan};
use mtvar_core::timesample::sweep_positions_with;
use mtvar_sim::config::MachineConfig;
use mtvar_stats::describe::Summary;
use mtvar_workloads::Benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MachineConfig::hpca2003().with_perturbation(4, 0);

    // Six starting points, 1,500 transactions apart, five perturbed
    // 400-transaction runs from each. Each snapshot's run space fans out
    // over the executor's threads; seeds derive from the snapshot's content
    // fingerprint, so the groups are decorrelated and reproducible.
    let executor = Executor::new();
    println!(
        "sweeping checkpoints through the SPECjbb lifetime on {} thread(s)...",
        executor.threads()
    );
    let plan = RunPlan::new(400).with_runs(5);
    let positions: Vec<u64> = (1..=6).map(|point| point * 1_500).collect();
    let workload = || Benchmark::Specjbb.workload(16, 42);
    let study = sweep_positions_with(&executor, &cfg, workload, &positions, &plan)?;
    if !study.is_clean() {
        println!(
            "  !! invariant violations per checkpoint: {:?}",
            study.violation_counts()
        );
    }

    println!("\n  checkpoint (txns warmed)   cycles/txn mean ± sd");
    for (ck, group) in study.checkpoints().iter().zip(study.groups()) {
        let s = Summary::from_slice(group)?;
        println!("  {ck:>22}   {:>9.1} ± {:.2}", s.mean(), s.sd());
    }

    let anova = study.anova()?;
    println!(
        "\n  ANOVA: F({:.0}, {:.0}) = {:.2}, p = {:.3e}",
        anova.df_between(),
        anova.df_within(),
        anova.f_statistic(),
        anova.p_value()
    );
    if study.requires_time_sampling(0.05)? {
        println!(
            "  between-checkpoint variability is significant: single-checkpoint \
             experiments would measure a phase, not the workload. Sample runs \
             from multiple starting points."
        );
    } else {
        println!("  checkpoints are statistically interchangeable: one starting point suffices.");
    }
    Ok(())
}
