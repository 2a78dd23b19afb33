//! `serve`: a closed loop of clients against one in-process daemon.
//!
//! The only workload where `protocol`, `job`, `batcher`, `server` and
//! `client` run at all. It drives the executor's sequential path
//! (`executor_threads: 1`) that the sweeps of the other workloads bypass,
//! and it reads the checkpoint store and the result cache (`family`,
//! `repeat`) beside writing them (`cold`), so a gain for one that costs the
//! other shows in the per-class latencies.

use std::path::PathBuf;
use std::time::Instant;

use mtvar_serve::client::{Client, SweepOutcome};
use mtvar_serve::protocol::{fold_digest, Response, ServerStats};
use mtvar_serve::server::{ServeConfig, Server};

use super::{Outcome, TraceCtx};
use crate::mix::{client_sequence, JobClass, PlannedJob, RUNS, TRANSACTIONS};
use crate::trace::SpanId;

pub const NAME: &str = "serve";
/// Jobs each client submits per iteration.
pub const JOBS_PER_CLIENT: usize = 20;

/// Client-side timestamps of one job, in ns since the loop began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTiming {
    pub class: JobClass,
    pub submit_ns: u64,
    /// When `JobStarted` arrived: connect, accept, admission, queue and
    /// dispatch precede it.
    pub started_ns: Option<u64>,
    /// When the first `RunDone` arrived.
    pub first_result_ns: Option<u64>,
    /// When the terminal frame (or the error) arrived.
    pub done_ns: u64,
}

/// One closed loop, start to drain.
#[derive(Debug, Clone)]
pub struct ServeRun {
    pub outcome: Outcome,
    /// Seconds from the first submit to the last terminal frame.
    pub wall_s: f64,
    pub jobs: Vec<JobTiming>,
    /// The daemon's counters after the loop; `None` if it did not answer.
    pub stats: Option<ServerStats>,
}

#[derive(Debug)]
pub struct Serve {
    socket: PathBuf,
    sequences: Vec<Vec<PlannedJob>>,
}

struct JobResult {
    timing: JobTiming,
    /// The job's `JobDone.digest` and simulated cycles, if it completed.
    done: Option<(u64, u64)>,
}

impl Serve {
    /// `socket` must be short enough for a Unix socket address.
    pub fn new(seed: u64, clients: usize, socket: PathBuf) -> Self {
        Serve {
            socket,
            sequences: (0..clients)
                .map(|client| client_sequence(seed, client, JOBS_PER_CLIENT))
                .collect(),
        }
    }

    pub fn clients(&self) -> usize {
        self.sequences.len()
    }

    /// Starts a daemon with one dispatcher per client and a sequential
    /// executor, coalescing on, nothing spilled to disk.
    pub fn start_server(&self) -> Option<mtvar_serve::server::ServerHandle> {
        Server::start(ServeConfig {
            dispatchers: self.clients(),
            executor_threads: 1,
            ..ServeConfig::new(&self.socket)
        })
        .ok()
    }

    /// One fresh daemon, every client's whole sequence, then a drain.
    pub fn iterate(&self, trace: Option<TraceCtx<'_>>) -> ServeRun {
        let attempted = (self.clients() * JOBS_PER_CLIENT) as u64;
        let Some(server) = self.start_server() else {
            return ServeRun {
                outcome: Outcome {
                    work: 0,
                    sim_cycles: 0,
                    digest: 0,
                    attempted,
                    failed: attempted,
                },
                wall_s: 0.0,
                jobs: Vec::new(),
                stats: None,
            };
        };
        let epoch = Instant::now();
        let trace_offset_ns = trace.map(|ctx| ctx.tracer.now_ns());
        let per_client: Vec<Vec<JobResult>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .sequences
                .iter()
                .map(|sequence| scope.spawn(|| run_client(&self.socket, sequence, epoch)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
        let wall_s = epoch.elapsed().as_secs_f64();
        let client = Client::new(&self.socket);
        let stats = client.stats().ok();
        // A refused shutdown frame would leave `join` waiting for ever.
        if client.shutdown().is_err() {
            server.shutdown();
        }
        server.join();

        let mut outcome = Outcome {
            work: 0,
            sim_cycles: 0,
            digest: 0,
            attempted,
            failed: 0,
        };
        let root = trace.zip(trace_offset_ns).map(|(ctx, offset)| {
            let end = offset + (wall_s * 1e9) as u64;
            let id = ctx
                .tracer
                .record("serve.loop", NAME, ctx.iteration, None, offset, end);
            (ctx, offset, id)
        });
        for (sequence, results) in self.sequences.iter().zip(&per_client) {
            for (job, result) in sequence.iter().zip(results) {
                // A repeat must replay exactly what its target returned.
                let expected = (job.class == JobClass::Repeat)
                    .then(|| job.depends_on.and_then(|t| results[t].done))
                    .flatten();
                match result.done {
                    Some((digest, cycles)) if expected.is_none_or(|e| e.0 == digest) => {
                        outcome.work += 1;
                        outcome.sim_cycles += cycles;
                        outcome.digest = fold_digest(outcome.digest, digest);
                    }
                    _ => outcome.failed += 1,
                }
                if let Some((ctx, offset, root)) = root {
                    record_job(ctx, offset, root, &result.timing);
                }
            }
        }
        ServeRun {
            outcome,
            wall_s,
            jobs: per_client
                .iter()
                .flatten()
                .map(|result| result.timing)
                .collect(),
            stats,
        }
    }
}

fn run_client(socket: &std::path::Path, sequence: &[PlannedJob], epoch: Instant) -> Vec<JobResult> {
    let client = Client::new(socket);
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    sequence
        .iter()
        .map(|job| {
            let submit_ns = now_ns();
            let mut started_ns = None;
            let mut first_result_ns = None;
            let outcome = client.submit(job.spec.clone(), |event| match event {
                Response::JobStarted { .. } => started_ns = Some(now_ns()),
                Response::RunDone { .. } if first_result_ns.is_none() => {
                    first_result_ns = Some(now_ns());
                }
                _ => {}
            });
            let done_ns = now_ns();
            JobResult {
                timing: JobTiming {
                    class: job.class,
                    submit_ns,
                    started_ns,
                    first_result_ns,
                    done_ns,
                },
                done: match outcome {
                    Ok(SweepOutcome::Done(done)) if done.runs == RUNS => {
                        let cycles = done.mean_cpt * (TRANSACTIONS * RUNS) as f64;
                        Some((done.digest, cycles.round() as u64))
                    }
                    _ => None,
                },
            }
        })
        .collect()
}

fn record_job(ctx: TraceCtx<'_>, offset_ns: u64, root: SpanId, timing: &JobTiming) {
    let name = match timing.class {
        JobClass::Cold => "serve.job.cold",
        JobClass::Family => "serve.job.family",
        JobClass::Repeat => "serve.job.repeat",
    };
    let at = |ns: u64| offset_ns + ns;
    let job = ctx.tracer.record(
        name,
        NAME,
        ctx.iteration,
        Some(root),
        at(timing.submit_ns),
        at(timing.done_ns),
    );
    if let Some(started) = timing.started_ns {
        ctx.tracer.record(
            "serve.queue_wait",
            NAME,
            ctx.iteration,
            Some(job),
            at(timing.submit_ns),
            at(started),
        );
        ctx.tracer.record(
            "serve.exec",
            NAME,
            ctx.iteration,
            Some(job),
            at(started),
            at(timing.done_ns),
        );
    }
}
