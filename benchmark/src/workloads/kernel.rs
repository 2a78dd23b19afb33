//! `kernel`: four unforked machines run back to back.
//!
//! Only the discrete-event kernel works here (`equeue`, `mem::system`,
//! `cache`, `sched`, `proc`, snoop filter or directory); the executor, the
//! snapshots and the daemon do nothing. A kernel change shows undiluted and
//! a launch-path change must show nothing.

use std::time::Instant;

use mtvar_core::golden::run_digest;
use mtvar_serve::protocol::fold_digest;
use mtvar_sim::config::MachineConfig;
use mtvar_sim::machine::Machine;
use mtvar_sim::proc::{OooConfig, ProcessorConfig};
use mtvar_workloads::Benchmark;

use super::{Outcome, TraceCtx};

pub const NAME: &str = "kernel";

/// One machine of the iteration.
#[derive(Debug, Clone)]
struct MachineSpec {
    name: &'static str,
    config: MachineConfig,
    benchmark: Benchmark,
    cpus: usize,
    transactions: u64,
}

/// Host time and event count of one machine in one iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineRun {
    pub name: &'static str,
    pub events: u64,
    pub run_s: f64,
}

#[derive(Debug)]
pub struct Kernel {
    seed: u64,
    machines: Vec<MachineSpec>,
}

impl Kernel {
    pub fn new(seed: u64) -> Self {
        let base = || MachineConfig::hpca2003().with_perturbation(4, 1);
        let spec = |name, config, benchmark, cpus, transactions| MachineSpec {
            name,
            config,
            benchmark,
            cpus,
            transactions,
        };
        Kernel {
            seed,
            machines: vec![
                spec("oltp16-simple", base(), Benchmark::Oltp, 16, 4000),
                spec(
                    "oltp16-ooo64",
                    base()
                        .with_processor(ProcessorConfig::OutOfOrder(OooConfig::with_rob_size(64))),
                    Benchmark::Oltp,
                    16,
                    2500,
                ),
                spec("slashcode16-simple", base(), Benchmark::Slashcode, 16, 750),
                spec(
                    "apache64-dir",
                    base().with_cpus(64).with_directory_coherence(),
                    Benchmark::Apache,
                    64,
                    2000,
                ),
            ],
        }
    }

    pub fn iterate(&self, trace: Option<TraceCtx<'_>>) -> (Outcome, Vec<MachineRun>) {
        let mut outcome = Outcome {
            work: 0,
            sim_cycles: 0,
            digest: 0,
            attempted: self.machines.len() as u64,
            failed: 0,
        };
        let mut runs = Vec::with_capacity(self.machines.len());
        let mut body = |parent| {
            for spec in &self.machines {
                let start_ns = trace.map(|ctx| ctx.tracer.now_ns());
                let workload = spec.benchmark.workload(spec.cpus, self.seed);
                let mut machine = Machine::new(spec.config.clone(), workload)
                    .expect("benchmark configurations are valid");
                let built_ns = trace.map(|ctx| ctx.tracer.now_ns());
                let t0 = Instant::now();
                let result = machine.run_transactions(spec.transactions);
                let run_s = t0.elapsed().as_secs_f64();
                if let (Some(ctx), Some(start_ns), Some(built_ns)) = (trace, start_ns, built_ns) {
                    let TraceCtx { tracer, iteration } = ctx;
                    tracer.record(
                        "sim.machine_new",
                        NAME,
                        iteration,
                        parent,
                        start_ns,
                        built_ns,
                    );
                    tracer.record(
                        spec.name,
                        NAME,
                        iteration,
                        parent,
                        built_ns,
                        tracer.now_ns(),
                    );
                }
                match result {
                    Ok(result) => {
                        outcome.work += machine.events_posted();
                        outcome.sim_cycles += result.elapsed();
                        outcome.digest = fold_digest(outcome.digest, run_digest(&result));
                    }
                    Err(_) => outcome.failed += 1,
                }
                runs.push(MachineRun {
                    name: spec.name,
                    events: machine.events_posted(),
                    run_s,
                });
            }
        };
        match trace {
            Some(ctx) => ctx
                .tracer
                .span("kernel.iteration", NAME, ctx.iteration, None, |id| {
                    body(Some(id))
                }),
            None => body(None),
        }
        (outcome, runs)
    }
}
