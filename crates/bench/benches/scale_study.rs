//! Scaling study: the machine past the paper's 16 processors.
//!
//! The paper's snooping bus stops at 16 CPUs; the exact sharer table and
//! the directory transport carry the same protocols to 64 nodes, the most a
//! machine may have. This bench quantifies what the transports cost and
//! whether the paper's methodology conclusions survive the scale-up:
//!
//! 1. **Probe traffic** — measured coherence probes per transport (snooping
//!    vs directory, both probing exact sharers) against the analytic
//!    broadcast-snooping equivalent `(cpus − 1) × (misses + upgrades)`, at
//!    16 and 64 CPUs.
//! 2. **WCR at 64 CPUs** — Experiment 1's L2-associativity comparison
//!    re-run on a 64-CPU directory machine: perturbed run spaces per
//!    associativity and the pairwise wrong-conclusion ratio, showing that
//!    single-run comparisons stay unreliable at scale.

use mtvar_bench::{
    banner, executor, fmt_sample, footer, paper_plan, report_violations, runs, seed,
};
use mtvar_core::report::Table;
use mtvar_core::wcr::wrong_conclusion_ratio;
use mtvar_sim::config::MachineConfig;
use mtvar_sim::machine::Machine;
use mtvar_workloads::Benchmark;

const TRANSACTIONS: u64 = 60;
const WARMUP: u64 = 100;

/// One deterministic OLTP reference run; returns (l2 misses, upgrades,
/// measured scan probes, measured invalidate probes).
fn probe_counts(cfg: MachineConfig, cpus: usize) -> (u64, u64, u64, u64) {
    let mut m =
        Machine::new(cfg, Benchmark::Oltp.workload(cpus, seed())).expect("probe-count machine");
    m.run_transactions(WARMUP).expect("warmup");
    let r = m.run_transactions(TRANSACTIONS).expect("run");
    let p = m.memory().probe_stats();
    (
        r.mem.l2_misses,
        r.mem.upgrades,
        p.scan_probes,
        p.invalidate_probes,
    )
}

fn main() {
    let t0 = banner(
        "Scaling study",
        "Probe traffic and WCR on machines past 16 CPUs",
    );

    // Part 1: transport probe traffic. Probe counters reset with the other
    // statistics at each measurement boundary, so the probes read after the
    // measured interval and the miss/upgrade counts in its `RunResult`
    // cover exactly the same span.
    let mut table = Table::new(&format!(
        "Coherence probes by transport (OLTP, {TRANSACTIONS} measured txns, deterministic)"
    ));
    table.set_headers(vec![
        "cpus",
        "transport",
        "scan probes",
        "inval probes",
        "broadcast equiv",
        "probes vs broadcast",
    ]);
    for cpus in [16usize, 64] {
        let snoop = probe_counts(MachineConfig::hpca2003().with_cpus(cpus), cpus);
        let dir = probe_counts(
            MachineConfig::hpca2003()
                .with_cpus(cpus)
                .with_directory_coherence(),
            cpus,
        );
        for (label, (misses, upgrades, scans, invals)) in [("snooping", snoop), ("directory", dir)]
        {
            // What a broadcast bus would have probed for the
            // same protocol events: every other node on every miss and
            // every explicit upgrade.
            let broadcast = (cpus as u64 - 1) * (misses + upgrades);
            table.add_row(vec![
                cpus.to_string(),
                label.to_owned(),
                scans.to_string(),
                invals.to_string(),
                broadcast.to_string(),
                format!("{:.1}%", 100.0 * (scans + invals) as f64 / broadcast as f64),
            ]);
        }
    }
    println!("{table}");

    // Part 2: Experiment 1 (L2 associativity WCR) on the 64-CPU directory
    // machine.
    const DIR_CPUS: usize = 64;
    let exec = executor();
    let mut samples: Vec<(String, Vec<f64>)> = Vec::new();
    println!("\n  Experiment 1 at {DIR_CPUS} CPUs under directory coherence:");
    for ways in [1u32, 2, 4] {
        let cfg = MachineConfig::hpca2003()
            .with_cpus(DIR_CPUS)
            .with_directory_coherence()
            .with_l2_associativity(ways)
            .with_perturbation(4, 0);
        let plan = paper_plan(TRANSACTIONS)
            .with_runs(runs())
            .with_warmup(WARMUP);
        let space = exec
            .run_space(&cfg, || Benchmark::Oltp.workload(DIR_CPUS, seed()), &plan)
            .expect("simulation");
        let label = match ways {
            1 => "direct-mapped".to_owned(),
            w => format!("{w}-way"),
        };
        report_violations(&label, &space);
        println!(
            "  L2 {label:>13}: cycles/txn {}",
            fmt_sample(&space.runtimes())
        );
        samples.push((label, space.runtimes()));
    }

    let mut wcr_table = Table::new(&format!(
        "\nWrong-conclusion ratio at {DIR_CPUS} CPUs (directory MOSI, {} runs/config)",
        runs()
    ));
    wcr_table.set_headers(vec![
        "Configurations Compared",
        "Superior (measured)",
        "WCR measured",
    ]);
    for (i, j) in [(0usize, 1usize), (0, 2), (1, 2)] {
        let w = wrong_conclusion_ratio(&samples[i].1, &samples[j].1).expect("wcr");
        let superior = match w.superior {
            mtvar_core::wcr::Superior::First => &samples[i].0,
            mtvar_core::wcr::Superior::Second => &samples[j].0,
        };
        wcr_table.add_row(vec![
            format!("{} vs {}", samples[i].0, samples[j].0),
            superior.clone(),
            format!("{:.1}%", w.wcr_percent),
        ]);
    }
    println!("{wcr_table}");
    println!(
        "  (variability persists at 64 CPUs: single-run comparisons still mislead, \
         so the paper's multi-run discipline is not a small-machine artifact)"
    );
    footer(t0);
}
