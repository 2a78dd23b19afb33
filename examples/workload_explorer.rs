//! Explore the seven benchmark profiles: run each briefly on the paper's
//! target and print its fingerprint — thread count, transaction size,
//! memory behaviour, lock contention, and where its variability comes from.
//!
//! ```text
//! cargo run --release --example workload_explorer [benchmark]
//! ```

use mtvar_core::runspace::{Executor, RunPlan};
use mtvar_sim::config::MachineConfig;
use mtvar_sim::workload::Workload;
use mtvar_stats::describe::Summary;
use mtvar_workloads::Benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let filter = std::env::args().nth(1);
    if let Some(f) = &filter {
        if !Benchmark::ALL.iter().any(|b| b.name() == f) {
            let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
            return Err(
                format!("unknown benchmark {f:?}; valid names: {}", names.join(", ")).into(),
            );
        }
    }
    // One executor across all profiles: each benchmark's small run space
    // (4 perturbed runs) executes in parallel, and the first run supplies
    // the detailed event counts below.
    let executor = Executor::new();
    for b in Benchmark::ALL {
        if let Some(f) = &filter {
            if b.name() != f {
                continue;
            }
        }
        let cfg = MachineConfig::hpca2003()
            .with_perturbation(4, 1)
            .with_invariant_checks();
        let txns = match b {
            Benchmark::Barnes | Benchmark::Ocean => 16,
            Benchmark::Ecperf => 40,
            Benchmark::Slashcode => 60,
            _ => 300,
        };
        let plan = RunPlan::new(txns).with_runs(4);
        let space = executor.run_space(&cfg, || b.workload(16, 42), &plan)?;
        if !space.is_clean() {
            println!(
                "  !! {} invariant violation(s) in this profile",
                space.total_violations()
            );
        }
        let run = &space.results()[0];
        let cov = Summary::from_slice(&space.runtimes())?.coefficient_of_variation()?;

        println!("== {} ==", b.name());
        println!(
            "  threads: {:>4}   measured txns: {:>6}   cycles/txn: {:>9.1}   CoV over {} runs: {:.2}%",
            b.workload(16, 42).thread_count(),
            run.transactions,
            run.cycles_per_transaction(),
            space.len(),
            cov
        );
        let m = &run.mem;
        let total = m.data_accesses().max(1);
        println!(
            "  memory: {:>8} data refs; L1D hit {:>5.1}%, L2 miss ratio {:>5.1}%, c2c {:>6}, upgrades {:>5}",
            m.data_accesses(),
            100.0 * m.l1d_hits as f64 / total as f64,
            100.0 * m.l2_miss_ratio(),
            m.cache_to_cache,
            m.upgrades
        );
        println!(
            "  locks: {:>6} acquisitions, {:>4.1}% contended, {:>9} ns waited",
            run.locks.acquisitions,
            100.0 * run.locks.contention_ratio(),
            run.locks.wait_ns
        );
        println!(
            "  sched: {:>5} dispatches, {:>4} preemptions, {:>4} migrations",
            run.sched.dispatches, run.sched.preemptions, run.sched.migrations
        );
        println!(
            "  proc:  {:>9} instructions, {:>6} branch mispredicts",
            run.proc.instructions, run.proc.branch_mispredicts
        );
        println!();
    }
    Ok(())
}
