//! The traced run: every per-layer metric, measured from outside.
//!
//! Whatever workload the run names, it drives every layer once — stand-alone
//! probes of single public functions, then traced iterations of all four
//! workloads — so that no timing is ever reported unmeasured. The named
//! workload gets more iterations, alternating with untraced ones, and
//! supplies the `trace.*` metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use mtvar_core::checkpoint::{CheckpointKey, CheckpointStore};
use mtvar_core::compare::Comparison;
use mtvar_core::runspace::Executor;
use mtvar_core::wcr::wrong_conclusion_ratio;
use mtvar_serve::client::Client;
use mtvar_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    ServerStats,
};
use mtvar_sim::checkpoint::Checkpoint;
use mtvar_sim::config::MachineConfig;
use mtvar_sim::ids::ThreadId;
use mtvar_sim::machine::Machine;
use mtvar_sim::mem::arena;
use mtvar_sim::rng::Xoshiro256StarStar;
use mtvar_sim::workload::Workload as _;
use mtvar_workloads::profile::ProfiledWorkload;
use mtvar_workloads::Benchmark;

use crate::metrics::PER_LAYER;
use crate::mix::{self, JobClass};
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{self, Span, Tracer};
use crate::workloads::compare::Compare;
use crate::workloads::kernel::Kernel;
use crate::workloads::serve::{JobTiming, Serve, ServeRun};
use crate::workloads::timesample::Timesample;
use crate::workloads::{compare, kernel, serve, timesample, Load, Outcome, TraceCtx};

/// Traced iterations of the named workload, and of each other workload.
const NAMED_ITERATIONS: u32 = 5;
const OTHER_ITERATIONS: u32 = 1;
/// Calls timed per snapshot-path function.
const SNAPSHOT_CALLS: usize = 32;

/// Everything a traced run produced.
#[derive(Debug)]
pub struct LayerReport {
    pub metrics: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
    /// Iterations run, traced or not, and how many of them failed an
    /// operation or folded to a digest other than their workload's first.
    pub attempted: u64,
    pub failed: u64,
    /// The first digest of each workload, for the golden check.
    pub digests: Vec<(&'static str, u64)>,
}

struct Instrument {
    named: String,
    tracer: Arc<Tracer>,
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    digests: Vec<(&'static str, u64)>,
    next_iteration: u32,
}

impl Instrument {
    /// Records a metric of the per-layer table; any other name is a bug.
    fn set(&mut self, name: &str, value: f64) {
        let metric = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer table"));
        self.metrics.insert(metric.name, value);
    }

    /// Counts an iteration and holds its digest against the workload's first.
    fn check(&mut self, workload: &'static str, outcome: &Outcome) {
        self.attempted += 1;
        let first = match self.digests.iter().find(|(name, _)| *name == workload) {
            Some(&(_, digest)) => digest,
            None => {
                self.digests.push((workload, outcome.digest));
                self.set(
                    &format!("sim.mcycles.{workload}"),
                    outcome.sim_cycles as f64 / 1e6,
                );
                outcome.digest
            }
        };
        if outcome.failed > 0 || outcome.digest != first {
            self.failed += 1;
        }
    }

    /// Runs `body` as one traced iteration; returns its result, checked,
    /// with the iteration number its spans carry.
    fn traced(
        &mut self,
        workload: &'static str,
        body: impl FnOnce(TraceCtx<'_>) -> (Outcome, f64),
    ) -> (u32, f64) {
        let iteration = self.next_iteration;
        self.next_iteration += 1;
        let tracer = Arc::clone(&self.tracer);
        let (outcome, wall) = body(TraceCtx {
            tracer: &tracer,
            iteration,
        });
        self.check(workload, &outcome);
        (iteration, wall)
    }

    /// Runs traced iterations of `body`: one, or for the workload the run
    /// names, several after a warm-up and alternating with as many untraced
    /// ones, which give the `trace.*` metrics. Returns the traced
    /// iterations' numbers and walls.
    fn alternate(
        &mut self,
        workload: &'static str,
        mut body: impl FnMut(Option<TraceCtx<'_>>) -> (Outcome, f64),
    ) -> (Vec<u32>, Vec<f64>) {
        let is_named = workload == self.named;
        let mut untraced_walls = Vec::new();
        let (mut iterations, mut walls) = (Vec::new(), Vec::new());
        let mut count = OTHER_ITERATIONS;
        if is_named {
            let (outcome, _) = body(None);
            self.check(workload, &outcome);
            count = NAMED_ITERATIONS;
        }
        for _ in 0..count {
            if is_named {
                let (outcome, wall) = body(None);
                self.check(workload, &outcome);
                untraced_walls.push(wall);
            }
            let (iteration, wall) = self.traced(workload, |ctx| body(Some(ctx)));
            iterations.push(iteration);
            walls.push(wall);
        }
        if is_named {
            // What the spans under each iteration's root span cover of it.
            // Below the root every span's children and self time add up to
            // it by construction, so this is the share of the wall that the
            // trace attributes to a named layer.
            let spans = self.tracer.spans();
            let accounted: Vec<f64> = spans
                .iter()
                .filter(|s| s.workload == workload && s.parent.is_none())
                .filter(|s| iterations.contains(&s.iteration))
                .map(|root| secs(root.duration_ns() - trace::self_time_ns(&spans, root.id)))
                .collect();
            // Each traced iteration against the untraced one just before it,
            // so that slow drift of the host cancels.
            let overhead: Vec<f64> = walls
                .iter()
                .zip(&untraced_walls)
                .map(|(traced, untraced)| traced / untraced)
                .collect();
            self.set("trace.wall_s", median(&walls));
            self.set("trace.overhead_ratio", median(&overhead));
            self.set(
                "trace.accounted_ratio",
                median(&accounted) / median(&untraced_walls),
            );
        }
        (iterations, walls)
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn timed<R>(body: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let result = body();
    (result, t0.elapsed().as_secs_f64())
}

/// Median seconds of `calls` calls of `body`.
fn time_calls<R>(calls: usize, body: impl FnMut() -> R) -> f64 {
    time_batches(calls, 1, body)
}

/// Median seconds per call over `samples` batches of `batch` calls each, for
/// a `body` too short for the clock to resolve one call of.
fn time_batches<R>(samples: usize, batch: usize, mut body: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..samples)
        .map(|_| {
            let (_, wall) = timed(|| {
                for _ in 0..batch {
                    black_box(body());
                }
            });
            wall / batch as f64
        })
        .collect();
    median(&samples)
}

fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

pub fn run(named: &str, seed: u64, load: Load, socket: PathBuf) -> LayerReport {
    let mut ins = Instrument {
        named: named.to_owned(),
        tracer: Arc::new(Tracer::new()),
        metrics: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        digests: Vec::new(),
        next_iteration: 0,
    };

    probe_generator(&mut ins, seed);
    probe_snapshot_path(&mut ins, seed, load.threads);
    probe_verdict(&mut ins, seed);
    probe_codec(&mut ins, seed);

    kernel_layers(&mut ins, &Kernel::new(seed));

    let compare = Compare::new(seed);
    sweep_layers(&mut ins, compare::NAME, load.threads, |threads, trace| {
        compare.iterate(threads, trace)
    });
    probe_replay(&mut ins, &compare, load.threads);

    let timesample = Timesample::new(seed);
    let mut snapshots = Vec::new();
    sweep_layers(
        &mut ins,
        timesample::NAME,
        load.threads,
        |threads, trace| {
            let (outcome, taken) = timesample.iterate(threads, trace);
            if !taken.is_empty() {
                snapshots = taken;
            }
            outcome
        },
    );
    probe_store(&mut ins, &snapshots, timesample.positions());

    let serve = Serve::new(seed, load.clients, socket);
    probe_stats_rtt(&mut ins, &serve);
    serve_layers(&mut ins, &serve);

    LayerReport {
        spans: ins.tracer.spans(),
        metrics: ins.metrics,
        attempted: ins.attempted,
        failed: ins.failed,
        digests: ins.digests,
    }
}

/// `workloads.ns_per_op`: the OLTP generator driven stand-alone.
fn probe_generator(ins: &mut Instrument, seed: u64) {
    const OPS: u32 = 2_000_000;
    let mut workload = Benchmark::Oltp.workload(16, seed);
    let threads = workload.thread_count() as u32;
    let (_, wall) = timed(|| {
        for i in 0..OPS {
            black_box(workload.next_op(ThreadId(i % threads)));
        }
    });
    ins.set("workloads.ns_per_op", wall * 1e9 / f64::from(OPS));
}

/// `sim.machine_new_us` and the snapshot path, on the 16-CPU OLTP machine
/// warmed 300 transactions.
fn probe_snapshot_path(ins: &mut Instrument, seed: u64, threads: usize) {
    let config = MachineConfig::hpca2003().with_perturbation(4, 1);
    let build = || Machine::new(config.clone(), Benchmark::Oltp.workload(16, seed));
    ins.set("sim.machine_new_us", time_calls(16, build) * 1e6);

    let mut machine = build().expect("the reference configuration is valid");
    machine
        .run_transactions(300)
        .expect("the reference workload runs");
    ins.set(
        "sim.snapshot_encode_us",
        time_calls(SNAPSHOT_CALLS, || machine.snapshot()) * 1e6,
    );
    let snapshot: Checkpoint = machine.snapshot();
    ins.set("sim.snapshot_bytes", snapshot.len() as f64);

    let restore = || Machine::<ProfiledWorkload>::restore(&snapshot);
    let before = arena::stats();
    ins.set(
        "sim.template_decode_us",
        time_calls(SNAPSHOT_CALLS, restore) * 1e6,
    );
    let after = arena::stats();
    let takes = after.takes - before.takes;
    ins.set(
        "sim.arena_hit_ratio",
        if takes == 0 {
            0.0
        } else {
            (after.hits - before.hits) as f64 / takes as f64
        },
    );
    let restore_mt = || Machine::<ProfiledWorkload>::restore_with_threads(&snapshot, threads);
    ins.set(
        "sim.template_decode_mt_us",
        time_calls(SNAPSHOT_CALLS, restore_mt) * 1e6,
    );
    let template = restore().expect("a fresh snapshot decodes");
    ins.set(
        "sim.fork_us",
        time_calls(2 * SNAPSHOT_CALLS, || template.fork()) * 1e6,
    );
}

/// `stats.verdict_us`: the statistics behind one verdict on 20 against 20.
fn probe_verdict(ins: &mut Instrument, seed: u64) {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut sample = |mean: f64| -> Vec<f64> {
        (0..20)
            .map(|_| mean * (0.97 + 0.06 * rng.next_f64()))
            .collect()
    };
    let (a, b) = (sample(4.6e6), sample(4.4e6));
    let verdict = || {
        let comparison = Comparison::from_runs("a", &a, "b", &b)?;
        Ok::<_, mtvar_core::CoreError>((comparison.verdict(0.05)?, wrong_conclusion_ratio(&a, &b)?))
    };
    ins.set("stats.verdict_us", time_batches(32, 64, verdict) * 1e6);
}

/// `serve.frame_codec_ns`: one `Submit` and one `RunDone`, each encoded and
/// decoded.
fn probe_codec(ins: &mut Instrument, seed: u64) {
    let request = Request::Submit(mix::client_sequence(seed, 0, 1)[0].spec.clone());
    let response = Response::RunDone {
        job: 7,
        run_index: 3,
        digest: seed,
        cached: false,
        violations: 0,
    };
    let round = || {
        let frame = encode_request(black_box(&request));
        let decoded = decode_request(&frame);
        let frame = encode_response(black_box(&response));
        (decoded, decode_response(&frame))
    };
    ins.set("serve.frame_codec_ns", time_batches(32, 256, round) * 1e9);
}

/// `sim.events` and `sim.ns_per_event.*`, from the traced `kernel`
/// iterations.
fn kernel_layers(ins: &mut Instrument, kernel: &Kernel) {
    let mut per_machine: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut events = 0;
    ins.alternate(kernel::NAME, |trace| {
        let ((outcome, machines), wall) = timed(|| kernel.iterate(trace));
        if trace.is_some() {
            events = outcome.work;
            for m in machines {
                per_machine
                    .entry(m.name)
                    .or_default()
                    .push(m.run_s * 1e9 / m.events as f64);
            }
        }
        (outcome, wall)
    });
    ins.set("sim.events", events as f64);
    for (machine, ns_per_event) in per_machine {
        ins.set(
            &format!("sim.ns_per_event.{machine}"),
            median(&ns_per_event),
        );
    }
}

/// Per-iteration span totals of one sweep workload at one thread count.
struct SweepTotals {
    wall_s: Vec<f64>,
    warmup_s: Vec<f64>,
    run_busy_s: Vec<f64>,
    sweep_self_s: Vec<f64>,
    run_ms: Vec<f64>,
}

fn sweep_totals(
    spans: &[Span],
    workload: &str,
    (iterations, walls): (Vec<u32>, Vec<f64>),
) -> SweepTotals {
    let per_iteration = |total: &dyn Fn(u32) -> u64| -> Vec<f64> {
        iterations.iter().map(|&i| secs(total(i))).collect()
    };
    SweepTotals {
        warmup_s: per_iteration(&|i| trace::total_ns(spans, workload, i, "runspace.warmup")),
        run_busy_s: per_iteration(&|i| trace::total_ns(spans, workload, i, "runspace.run")),
        sweep_self_s: per_iteration(&|i| {
            trace::total_self_ns(spans, workload, i, "runspace.sweep")
        }),
        run_ms: iterations
            .iter()
            .flat_map(|&i| trace::named(spans, workload, i, "runspace.run"))
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect(),
        wall_s: walls,
    }
}

/// The `runspace.<workload>.*` metrics: traced iterations at `threads`
/// threads, then one at a single thread for the speed-up and the inflation
/// of run time that workers cause each other.
fn sweep_layers(
    ins: &mut Instrument,
    workload: &'static str,
    threads: usize,
    mut iterate: impl FnMut(usize, Option<TraceCtx<'_>>) -> Outcome,
) {
    let at_t = ins.alternate(workload, |trace| timed(|| iterate(threads, trace)));
    let (iteration, wall) = ins.traced(workload, |ctx| timed(|| iterate(1, Some(ctx))));
    let spans = ins.tracer.spans();
    let multi = sweep_totals(&spans, workload, at_t);
    let single = sweep_totals(&spans, workload, (vec![iteration], vec![wall]));

    let mut set =
        |metric: &str, value: f64| ins.set(&format!("runspace.{workload}.{metric}"), value);
    set("warmup_s", median(&multi.warmup_s));
    set("run_busy_s", median(&multi.run_busy_s));
    set("run_p50_ms", median_or_zero(&multi.run_ms));
    set("sweep_self_s", median(&multi.sweep_self_s));
    set(
        "speedup_vs_1_thread",
        median(&single.wall_s) / median(&multi.wall_s),
    );
    set(
        "run_inflation",
        median(&multi.run_busy_s) / median(&single.run_busy_s),
    );
}

/// `runspace.replay_ms`: one arm of the `compare` plan re-issued to an
/// executor whose result cache and checkpoint store already hold it.
fn probe_replay(ins: &mut Instrument, compare: &Compare, threads: usize) {
    let executor =
        Executor::with_threads(threads).with_checkpoint_store(Arc::new(CheckpointStore::new()));
    let issue = || executor.run_space(compare.base_config(), || compare.workload(), compare.plan());
    if issue().is_err() {
        ins.failed += 1;
    }
    ins.set("runspace.replay_ms", time_calls(8, issue) * 1e3);
}

/// `ckstore.*`: a store holding the snapshots the `timesample` sweep took.
fn probe_store(ins: &mut Instrument, snapshots: &[Arc<Checkpoint>], positions: &[u64]) {
    if snapshots.is_empty() {
        // The sweep failed and was counted; there is nothing to store.
        for name in [
            "ckstore.insert_us",
            "ckstore.get_us",
            "ckstore.longest_prefix_us",
        ] {
            ins.set(name, 0.0);
        }
        return;
    }
    let store = CheckpointStore::new().with_capacity(2 * snapshots.len());
    let key = |warmup| CheckpointKey {
        config: 1,
        workload: 2,
        base_seed: 3,
        warmup,
    };
    let mut pairs = positions.iter().zip(snapshots).cycle();
    let mut next = || pairs.next().expect("a cycle over a non-empty list");
    let batch = snapshots.len();
    let insert_s = time_batches(16, batch, || {
        let (&position, snapshot) = next();
        store.insert(key(position), Arc::clone(snapshot));
    });
    let get_s = time_batches(16, 8 * batch, || store.get(&key(*next().0)));
    let prefix_s = time_batches(16, 8 * batch, || store.longest_prefix(&key(*next().0 + 1)));
    ins.set("ckstore.insert_us", insert_s * 1e6);
    ins.set("ckstore.get_us", get_s * 1e6);
    ins.set("ckstore.longest_prefix_us", prefix_s * 1e6);
}

/// `serve.stats_rtt_p50_us`: `Client::stats` round trips on an idle daemon,
/// which isolates the accept loop.
fn probe_stats_rtt(ins: &mut Instrument, serve: &Serve) {
    let Some(server) = serve.start_server() else {
        ins.failed += 1;
        ins.set("serve.stats_rtt_p50_us", 0.0);
        return;
    };
    let client = Client::new(server.socket());
    ins.set(
        "serve.stats_rtt_p50_us",
        time_calls(200, || client.stats()) * 1e6,
    );
    if client.shutdown().is_err() {
        server.shutdown();
    }
    server.join();
}

/// Milliseconds from each job's submit to the event `end` picks.
fn latencies_ms<'a>(
    jobs: impl IntoIterator<Item = &'a JobTiming>,
    end: impl Fn(&JobTiming) -> Option<u64>,
) -> Vec<f64> {
    jobs.into_iter()
        .filter_map(|j| end(j).map(|end| (end - j.submit_ns) as f64 / 1e6))
        .collect()
}

/// The `serve.*` metrics, from the client-side timestamps of the traced
/// loops and the daemon's own counters.
fn serve_layers(ins: &mut Instrument, serve: &Serve) {
    let mut runs: Vec<ServeRun> = Vec::new();
    ins.alternate(serve::NAME, |trace| {
        let run = serve.iterate(trace);
        let result = (run.outcome, run.wall_s);
        if trace.is_some() {
            runs.push(run);
        }
        result
    });
    let jobs: Vec<&JobTiming> = runs.iter().flat_map(|r| &r.jobs).collect();
    let jobs_per_s: Vec<f64> = runs
        .iter()
        .filter(|r| r.wall_s > 0.0)
        .map(|r| r.outcome.work as f64 / r.wall_s)
        .collect();
    ins.set("serve.jobs_per_s", median_or_zero(&jobs_per_s));

    let done = latencies_ms(jobs.iter().copied(), |j| Some(j.done_ns));
    ins.set("serve.job_p50_ms", median_or_zero(&done));
    // The highest percentile that still has ten jobs beyond it.
    let tail = tail_percentile(done.len()).unwrap_or(50.0);
    ins.set("serve.job_tail_pct", tail);
    ins.set(
        "serve.job_tail_ms",
        if done.is_empty() {
            0.0
        } else {
            percentile(&done, tail)
        },
    );
    ins.set(
        "serve.queue_wait_p50_ms",
        median_or_zero(&latencies_ms(jobs.iter().copied(), |j| j.started_ns)),
    );
    ins.set(
        "serve.first_result_p50_ms",
        median_or_zero(&latencies_ms(jobs.iter().copied(), |j| j.first_result_ns)),
    );
    let exec: Vec<f64> = jobs
        .iter()
        .filter_map(|j| j.started_ns.map(|s| (j.done_ns - s) as f64 / 1e6))
        .collect();
    ins.set("serve.exec_p50_ms", median_or_zero(&exec));
    for (class, metric) in JobClass::ALL.into_iter().zip([
        "serve.cold_job_p50_ms",
        "serve.family_job_p50_ms",
        "serve.repeat_job_p50_ms",
    ]) {
        let of_class = jobs.iter().copied().filter(|j| j.class == class);
        ins.set(
            metric,
            median_or_zero(&latencies_ms(of_class, |j| Some(j.done_ns))),
        );
    }

    // Every loop is the same work, so the last one's counters stand for all.
    let stats = runs.last().and_then(|r| r.stats.as_ref());
    let counter = |pick: fn(&ServerStats) -> u64| stats.map_or(0.0, |s| pick(s) as f64);
    let (simulated, cached) = (counter(|s| s.runs_completed), counter(|s| s.runs_cached));
    ins.set("serve.runs_simulated", simulated);
    ins.set("serve.runs_cached", cached);
    ins.set(
        "serve.cache_hit_ratio",
        if simulated + cached > 0.0 {
            cached / (simulated + cached)
        } else {
            0.0
        },
    );
    ins.set("serve.warmups_simulated", counter(|s| s.coalesce_leaders));
    ins.set("serve.rejected", counter(|s| s.rejected));
}
