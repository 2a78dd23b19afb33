//! Calibration scratchpad: prints variability numbers for the paper's key
//! experiments so workload-profile constants can be tuned. Not part of the
//! reproduction itself — see the `mtvar-bench` crate for the real harness.

use std::time::Instant;

use mtvar_core::metrics::VariabilityReport;
use mtvar_core::runspace::{run_space, RunPlan};
use mtvar_core::wcr::wrong_conclusion_ratio;
use mtvar_sim::config::MachineConfig;
use mtvar_workloads::Benchmark;

fn main() {
    let t0 = Instant::now();
    let args: Vec<String> = std::env::args().collect();
    let what = args.get(1).map(String::as_str).unwrap_or("oltp");

    match what {
        "oltp" => {
            // OLTP space variability vs run length (Table 4 shape).
            for txns in [200u64, 400, 1000] {
                let cfg = MachineConfig::hpca2003().with_perturbation(4, 0);
                let plan = RunPlan::new(txns).with_runs(10).with_warmup(1000);
                let space = run_space(&cfg, || Benchmark::Oltp.workload(16, 42), &plan).unwrap();
                let rep = VariabilityReport::from_runtimes(&space.runtimes()).unwrap();
                println!(
                    "oltp {txns}-txn: mean={:.0} cov={:.2}% range={:.2}%  [{:.1?}]",
                    rep.mean,
                    rep.cov_percent,
                    rep.range_percent,
                    t0.elapsed()
                );
            }
        }
        "assoc" => {
            // Experiment 1 shape: L2 associativity 1/2/4.
            let mut spaces = Vec::new();
            for ways in [1u32, 2, 4] {
                let cfg = MachineConfig::hpca2003()
                    .with_l2_associativity(ways)
                    .with_perturbation(4, 0);
                let plan = RunPlan::new(200).with_runs(10).with_warmup(1000);
                let space = run_space(&cfg, || Benchmark::Oltp.workload(16, 42), &plan).unwrap();
                let rep = VariabilityReport::from_runtimes(&space.runtimes()).unwrap();
                println!(
                    "assoc {ways}-way: mean={:.0} cov={:.2}% range={:.2}% [{:.1?}]",
                    rep.mean,
                    rep.cov_percent,
                    rep.range_percent,
                    t0.elapsed()
                );
                spaces.push(space.runtimes());
            }
            for (i, j, label) in [(0, 1, "DM vs 2w"), (0, 2, "DM vs 4w"), (1, 2, "2w vs 4w")] {
                let w = wrong_conclusion_ratio(&spaces[i], &spaces[j]).unwrap();
                println!(
                    "{label}: superior={:?} wcr={:.1}%",
                    w.superior, w.wcr_percent
                );
            }
        }
        "rob" => {
            use mtvar_sim::proc::{OooConfig, ProcessorConfig};
            let mut spaces = Vec::new();
            for rob in [16u32, 32, 64] {
                let cfg = MachineConfig::hpca2003()
                    .with_processor(ProcessorConfig::OutOfOrder(OooConfig::with_rob_size(rob)))
                    .with_perturbation(4, 0);
                let plan = RunPlan::new(50).with_runs(10).with_warmup(400);
                let space = run_space(&cfg, || Benchmark::Oltp.workload(16, 42), &plan).unwrap();
                let rep = VariabilityReport::from_runtimes(&space.runtimes()).unwrap();
                println!(
                    "rob {rob}: mean={:.0} cov={:.2}% range={:.2}% [{:.1?}]",
                    rep.mean,
                    rep.cov_percent,
                    rep.range_percent,
                    t0.elapsed()
                );
                spaces.push(space.runtimes());
            }
            for (i, j, label) in [(0, 1, "16 vs 32"), (0, 2, "16 vs 64"), (1, 2, "32 vs 64")] {
                let w = wrong_conclusion_ratio(&spaces[i], &spaces[j]).unwrap();
                println!(
                    "{label}: superior={:?} wcr={:.1}%",
                    w.superior, w.wcr_percent
                );
            }
        }
        "bench7" => {
            for b in Benchmark::ALL {
                let cfg = MachineConfig::hpca2003().with_perturbation(4, 0);
                let txns = match b {
                    Benchmark::Ecperf => 50,
                    Benchmark::Specjbb => 2000,
                    Benchmark::Apache => 500,
                    Benchmark::Oltp => 400,
                    _ => b.table3_transactions(16),
                };
                let warmup = match b {
                    Benchmark::Barnes | Benchmark::Ocean => 0,
                    _ => 200,
                };
                let plan = RunPlan::new(txns).with_runs(8).with_warmup(warmup);
                let space = run_space(&cfg, || b.workload(16, 42), &plan).unwrap();
                let rep = VariabilityReport::from_runtimes(&space.runtimes()).unwrap();
                println!(
                    "{b}: txns={txns} mean={:.0} cov={:.2}% range={:.2}% [{:.1?}]",
                    rep.mean,
                    rep.cov_percent,
                    rep.range_percent,
                    t0.elapsed()
                );
            }
        }
        "fig9" => {
            use mtvar_core::runspace::Executor;
            use mtvar_sim::machine::Machine;
            use mtvar_workloads::profile::ProfiledWorkload;
            let executor = Executor::sequential().without_cache();
            for (b, spacing, txns) in [
                (Benchmark::Oltp, 1000u64, 200u64),
                (Benchmark::Specjbb, 2000, 500),
            ] {
                let cfg = MachineConfig::hpca2003().with_perturbation(4, 0);
                let mut m = Machine::new(cfg, b.workload(16, 42)).unwrap();
                let mut means = Vec::new();
                let mut covs = Vec::new();
                for pt in 0..10u64 {
                    m.run_transactions(spacing).unwrap();
                    let plan = RunPlan::new(txns).with_runs(5).with_base_seed(pt * 1000);
                    let space = executor
                        .run_space_from_snapshot::<ProfiledWorkload>(&m.snapshot(), 4, &plan)
                        .unwrap();
                    let rep = VariabilityReport::from_runtimes(&space.runtimes()).unwrap();
                    means.push(rep.mean);
                    covs.push(rep.cov_percent);
                }
                let lo = means.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                println!(
                    "{b}: checkpoint means {:?} spread={:.1}% within-cov avg={:.2}% [{:.1?}]",
                    means.iter().map(|m| m.round()).collect::<Vec<_>>(),
                    100.0 * (hi - lo) / (means.iter().sum::<f64>() / 10.0),
                    covs.iter().sum::<f64>() / 10.0,
                    t0.elapsed()
                );
            }
        }
        "fig8" => {
            use mtvar_core::metrics::windowed_series;
            use mtvar_sim::machine::Machine;
            let cfg = MachineConfig::hpca2003().with_perturbation(4, 7);
            let mut m = Machine::new(cfg, Benchmark::Oltp.workload(16, 42)).unwrap();
            m.run_transactions(500).unwrap();
            let r = m.run_transactions(8000).unwrap();
            let series = windowed_series(&r, 200).unwrap();
            let lo = series.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mean = series.iter().sum::<f64>() / series.len() as f64;
            println!(
                "fig8: {} windows, mean={:.0}, swing={:.1}% [{:.1?}]",
                series.len(),
                mean,
                100.0 * (hi - lo) / mean,
                t0.elapsed()
            );
        }
        "diag" => {
            use mtvar_sim::machine::Machine;
            use mtvar_sim::proc::{OooConfig, ProcessorConfig};
            for (label, cfg) in [
                ("simple", MachineConfig::hpca2003().with_perturbation(4, 1)),
                (
                    "rob16",
                    MachineConfig::hpca2003()
                        .with_processor(ProcessorConfig::OutOfOrder(OooConfig::with_rob_size(16)))
                        .with_perturbation(4, 1),
                ),
                (
                    "rob64",
                    MachineConfig::hpca2003()
                        .with_processor(ProcessorConfig::OutOfOrder(OooConfig::with_rob_size(64)))
                        .with_perturbation(4, 1),
                ),
            ] {
                let mut m = Machine::new(cfg, Benchmark::Oltp.workload(16, 42)).unwrap();
                m.run_transactions(100).unwrap();
                let r = m.run_transactions(200).unwrap();
                println!(
                    "--- {label}: cpt={:.0} elapsed={}",
                    r.cycles_per_transaction(),
                    r.elapsed()
                );
                println!("  mem {:?}", r.mem);
                println!("  proc {:?}", r.proc);
                println!(
                    "  locks {:?} contention={:.2}",
                    r.locks,
                    r.locks.contention_ratio()
                );
                println!("  sched {:?}", r.sched);
            }
        }
        other => eprintln!("unknown calibration target {other}"),
    }
}
