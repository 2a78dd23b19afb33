//! The wire protocol: typed request/response messages, each in the
//! workspace's one frame.
//!
//! Every message travels in [`mtvar_sim::checkpoint::frame`], the frame
//! checkpoint files and spilled run results use:
//!
//! ```text
//! magic(8) | version(4) | payload_len(8) | payload_fingerprint(8) | payload
//! ```
//!
//! Requests carry [`REQUEST_MAGIC`], responses [`RESPONSE_MAGIC`], both at
//! [`PROTOCOL_VERSION`], so a frame sent to the wrong side fails on its
//! magic. The payload is the message's [`Snap`] encoding (fixed-width LE
//! integers, explicit enum tags), so the format is stable across builds and
//! every malformed input decodes to an error, never a panic. The stream
//! reader ([`read_message`]) checks the header with
//! [`frame_payload_len`] and rejects a length over [`MAX_FRAME_BODY`]
//! **before** any allocation.

use std::io::{Read, Write};

use mtvar_core::runspace::{Executor, RunSpace};
use mtvar_core::CoreError;
use mtvar_sim::checkpoint::{
    frame, frame_payload_len, unframe, CheckpointError, Decoder, Encoder, Snap, FRAME_HEADER_BYTES,
};
use mtvar_sim::config::MAX_CPUS;
use mtvar_sim::hash::Fnv1a;
use mtvar_sim::workload::SharingWorkload;

/// Folds per-run digests into the job-level digest `JobDone` carries.
pub use mtvar_sim::hash::fold_digest;

use crate::{Result, ServeError};

/// Frame magic of every [`Request`].
pub const REQUEST_MAGIC: [u8; 8] = *b"MTVARREQ";

/// Frame magic of every [`Response`].
pub const RESPONSE_MAGIC: [u8; 8] = *b"MTVARRSP";

/// Current protocol version; frames of other versions are rejected.
pub const PROTOCOL_VERSION: u32 = 2;

/// Hard cap on a frame body. Far above any real message (the largest is a
/// stats report with its warning strings), and small enough that a hostile
/// `payload_len` can never drive a large allocation.
pub const MAX_FRAME_BODY: usize = 1 << 20;

/// The workspace's content hash ([`Fnv1a`]), applied here as the frame's
/// payload fingerprint.
pub fn checksum(bytes: &[u8]) -> u64 {
    Fnv1a::hash(bytes)
}

/// A wire message: its [`Snap`] body travels in a frame under its own
/// magic, so requests and responses cannot be mistaken for each other.
pub trait Message: Snap {
    /// [`REQUEST_MAGIC`] or [`RESPONSE_MAGIC`].
    const MAGIC: [u8; 8];
}

/// Encodes a message as one complete frame.
fn encode_message<M: Message>(message: &M) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(message.snap_size_hint());
    message.encode_snap(&mut enc);
    frame(M::MAGIC, PROTOCOL_VERSION, &enc.into_bytes())
}

/// The one message decode behind every reader: validates the frame
/// ([`unframe`]), then decodes its body as `M`, rejecting trailing bytes.
fn decode_message<M: Message>(bytes: &[u8]) -> std::result::Result<M, CheckpointError> {
    let (body, _) = unframe(M::MAGIC, PROTOCOL_VERSION, bytes)?;
    let mut dec = Decoder::new(body);
    let message = M::decode_snap(&mut dec)?;
    dec.finish()?;
    Ok(message)
}

/// Writes one message as one frame and flushes it.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_message<M: Message>(w: &mut impl Write, message: &M) -> std::io::Result<()> {
    w.write_all(&encode_message(message))?;
    w.flush()
}

/// Reads one message from a stream: the header first, its length checked
/// against [`MAX_FRAME_BODY`] before the frame buffer is sized, then the
/// payload, validated and decoded by the same path as a byte slice.
///
/// # Errors
///
/// [`ServeError::Disconnected`] on a clean close before any header byte;
/// [`ServeError::Io`] on a failed read; [`ServeError::Protocol`] on a cut
/// mid-frame ([`CheckpointError::Truncated`]) or any validation failure.
pub fn read_message<M: Message>(r: &mut impl Read) -> Result<M> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    // Distinguish a clean close (no bytes at all) from a mid-frame cut.
    let mut filled = 0;
    while filled < header.len() {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            return if filled == 0 {
                Err(ServeError::Disconnected)
            } else {
                Err(ServeError::Protocol(CheckpointError::Truncated))
            };
        }
        filled += n;
    }
    let body_len = frame_payload_len(M::MAGIC, PROTOCOL_VERSION, &header)?;
    if body_len > MAX_FRAME_BODY {
        return Err(ServeError::Protocol(CheckpointError::Corrupt {
            what: format!("frame body length {body_len} exceeds cap {MAX_FRAME_BODY}"),
        }));
    }
    let mut bytes = Vec::with_capacity(FRAME_HEADER_BYTES + body_len);
    bytes.extend_from_slice(&header);
    bytes.resize(FRAME_HEADER_BYTES + body_len, 0);
    r.read_exact(&mut bytes[FRAME_HEADER_BYTES..])
        .map_err(|_| ServeError::Protocol(CheckpointError::Truncated))?;
    Ok(decode_message(&bytes)?)
}

// ---------------------------------------------------------------------------
// Sweep specification
// ---------------------------------------------------------------------------

/// Machine configuration, declaratively: a delta over
/// [`MachineConfig::hpca2003`]. Shipping knobs instead of code keeps the
/// protocol closed-world — the server builds the config, fingerprints it,
/// and derives seeds exactly as a batch study would.
///
/// [`MachineConfig::hpca2003`]: mtvar_sim::config::MachineConfig::hpca2003
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigSpec {
    /// Number of CPUs.
    pub cpus: u64,
    /// §3.3 perturbation magnitude in ns (0 disables perturbation).
    pub perturbation_max_ns: u64,
    /// Override of the L2 associativity, if any.
    pub l2_associativity: Option<u32>,
    /// Override of the DRAM latency in ns, if any.
    pub dram_latency_ns: Option<u64>,
    /// Use directory coherence instead of the default snooping protocol.
    pub directory: bool,
}

mtvar_sim::impl_snap!(ConfigSpec {
    cpus,
    perturbation_max_ns,
    l2_associativity,
    dram_latency_ns,
    directory,
});

impl ConfigSpec {
    /// The paper's 16-CPU machine with a 4 ns perturbation.
    pub fn hpca2003() -> Self {
        ConfigSpec {
            cpus: 16,
            perturbation_max_ns: 4,
            l2_associativity: None,
            dram_latency_ns: None,
            directory: false,
        }
    }

    /// Builds the concrete [`MachineConfig`](mtvar_sim::config::MachineConfig).
    pub fn build(&self) -> mtvar_sim::config::MachineConfig {
        let mut cfg = mtvar_sim::config::MachineConfig::hpca2003()
            .with_cpus(self.cpus as usize)
            .with_perturbation(self.perturbation_max_ns, 0);
        if let Some(ways) = self.l2_associativity {
            cfg = cfg.with_l2_associativity(ways);
        }
        if let Some(ns) = self.dram_latency_ns {
            cfg = cfg.with_dram_latency_ns(ns);
        }
        if self.directory {
            cfg = cfg.with_directory_coherence();
        }
        cfg
    }
}

/// Workload selection, declaratively. Mirrors the two workload families the
/// studies use: the synthetic sharing microbenchmark and the paper's Table-3
/// profiled benchmarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// [`SharingWorkload`] with its five constructor parameters.
    Sharing {
        /// Number of threads.
        threads: u64,
        /// Workload RNG seed.
        seed: u64,
        /// Operations per transaction.
        ops_per_txn: u64,
        /// Footprint in cache blocks.
        footprint_blocks: u64,
        /// A lock acquire every N operations.
        lock_every: u64,
    },
    /// A profiled paper benchmark by [`Benchmark`] name (case-insensitive).
    ///
    /// [`Benchmark`]: mtvar_workloads::Benchmark
    Benchmark {
        /// Benchmark name, e.g. `"oltp"` or `"barnes"`.
        name: String,
        /// Number of CPUs the workload is generated for.
        cpus: u64,
        /// Workload RNG seed.
        seed: u64,
    },
}

mtvar_sim::impl_snap!(enum WorkloadSpec {
    0 => Sharing { threads, seed, ops_per_txn, footprint_blocks, lock_every },
    1 => Benchmark { name, cpus, seed },
});

impl WorkloadSpec {
    /// Resolves a benchmark name against [`Benchmark::ALL`]
    /// (case-insensitive).
    ///
    /// [`Benchmark::ALL`]: mtvar_workloads::Benchmark::ALL
    pub fn resolve_benchmark(name: &str) -> Option<mtvar_workloads::Benchmark> {
        mtvar_workloads::Benchmark::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(name))
    }

    /// Validates the spec without building anything: nonzero sizing,
    /// `ops_per_txn` and `lock_every` within the simulator's `u32`, a
    /// resolvable benchmark name generated for 1 to [`MAX_CPUS`] CPUs.
    pub fn validate(&self) -> std::result::Result<(), String> {
        match self {
            WorkloadSpec::Sharing {
                threads,
                ops_per_txn,
                footprint_blocks,
                lock_every,
                ..
            } => {
                if *threads == 0 || *ops_per_txn == 0 || *footprint_blocks == 0 {
                    return Err("sharing workload needs threads, ops_per_txn and \
                                footprint_blocks >= 1"
                        .into());
                }
                if u32::try_from(*ops_per_txn).is_err() || u32::try_from(*lock_every).is_err() {
                    return Err(format!(
                        "sharing workload needs ops_per_txn and lock_every <= {}",
                        u32::MAX
                    ));
                }
                Ok(())
            }
            WorkloadSpec::Benchmark { name, cpus, .. } => {
                if Self::resolve_benchmark(name).is_none() {
                    return Err(format!("unknown benchmark {name:?}"));
                }
                if !(1..=MAX_CPUS as u64).contains(cpus) {
                    return Err(format!(
                        "benchmark workload needs cpus 1 to {MAX_CPUS}, not {cpus}"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// The run plan, declaratively — one-to-one with
/// [`RunPlan`](mtvar_core::runspace::RunPlan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanSpec {
    /// Number of perturbed runs.
    pub runs: u64,
    /// Transactions measured per run.
    pub transactions: u64,
    /// Warmup transactions before measurement.
    pub warmup: u64,
    /// Base perturbation seed.
    pub base_seed: u64,
    /// Shared-warmup (checkpoint-forked) vs legacy per-run warmup.
    pub shared_warmup: bool,
}

mtvar_sim::impl_snap!(PlanSpec {
    runs,
    transactions,
    warmup,
    base_seed,
    shared_warmup,
});

impl PlanSpec {
    /// Builds the concrete [`RunPlan`](mtvar_core::runspace::RunPlan).
    pub fn build(&self) -> mtvar_core::runspace::RunPlan {
        mtvar_core::runspace::RunPlan::new(self.transactions)
            .with_runs(self.runs as usize)
            .with_warmup(self.warmup)
            .with_base_seed(self.base_seed)
            .with_shared_warmup(self.shared_warmup)
    }
}

/// Scheduling priority of a submitted job. Higher lanes drain first;
/// submission order breaks ties within a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Interactive work, drained before everything else.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Bulk background work.
    Low,
}

impl Priority {
    /// Lane index, 0 (high) to 2 (low).
    pub fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

mtvar_sim::impl_snap!(enum Priority {
    0 => High,
    1 => Normal,
    2 => Low,
});

/// One complete sweep request: what to simulate and how urgently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Machine configuration delta.
    pub config: ConfigSpec,
    /// Workload selection.
    pub workload: WorkloadSpec,
    /// Run plan.
    pub plan: PlanSpec,
    /// Queue lane.
    pub priority: Priority,
}

mtvar_sim::impl_snap!(SweepSpec {
    config,
    workload,
    plan,
    priority,
});

impl SweepSpec {
    /// The one admission check for a sweep, made before anything is built
    /// or queued: the machine's CPU count within 1 to [`MAX_CPUS`], the
    /// workload's counts ([`WorkloadSpec::validate`]) and a plan with runs
    /// and transactions >= 1. The daemon checks every `Submit` with it, and
    /// [`Self::run`] (so `mtvar batch`) begins with it, so no size from the
    /// wire reaches an allocation unchecked.
    ///
    /// # Errors
    ///
    /// A message naming the first field out of range.
    pub fn validate(&self) -> std::result::Result<(), String> {
        let cpus = self.config.cpus;
        if !(1..=MAX_CPUS as u64).contains(&cpus) {
            return Err(format!("machine needs cpus 1 to {MAX_CPUS}, not {cpus}"));
        }
        self.workload.validate()?;
        if self.plan.runs == 0 || self.plan.transactions == 0 {
            return Err("plan needs runs and transactions >= 1".into());
        }
        Ok(())
    }

    /// Runs the sweep on `executor`: the one way from a spec to a run
    /// space, taken by the daemon's dispatchers and by `mtvar batch` alike,
    /// so a served digest equals the batch one by construction.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidExperiment`] if the spec fails
    /// [`Self::validate`]; otherwise the executor's error.
    pub fn run(&self, executor: &Executor) -> mtvar_core::Result<RunSpace> {
        self.validate()
            .map_err(|what| CoreError::InvalidExperiment { what })?;
        let config = self.config.build();
        let plan = self.plan.build();
        match self.workload {
            WorkloadSpec::Sharing {
                threads,
                seed,
                ops_per_txn,
                footprint_blocks,
                lock_every,
            } => executor.run_space(
                &config,
                // `validate` has checked that both counts fit a `u32`.
                move || {
                    SharingWorkload::new(
                        threads as usize,
                        seed,
                        ops_per_txn as u32,
                        footprint_blocks,
                        lock_every as u32,
                    )
                },
                &plan,
            ),
            WorkloadSpec::Benchmark {
                ref name,
                cpus,
                seed,
            } => {
                let bench =
                    WorkloadSpec::resolve_benchmark(name).expect("validate resolved the name");
                executor.run_space(&config, move || bench.workload(cpus as usize, seed), &plan)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Requests and responses
// ---------------------------------------------------------------------------

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a sweep; the connection then streams response frames until a
    /// terminal one ([`Response::JobDone`], [`Response::JobFailed`],
    /// [`Response::Cancelled`], or [`Response::Error`]).
    Submit(SweepSpec),
    /// Query a job's state (any connection, not just the submitter's).
    Status {
        /// Job to query.
        job: u64,
    },
    /// Request cancellation of a queued or running job.
    Cancel {
        /// Job to cancel.
        job: u64,
    },
    /// Fetch server statistics.
    Stats,
    /// Ask the server to drain and exit (equivalent to SIGTERM).
    Shutdown,
}

mtvar_sim::impl_snap!(enum Request {
    0 => Submit(spec),
    1 => Status { job },
    2 => Cancel { job },
    3 => Stats,
    4 => Shutdown,
});

/// Machine-readable rejection reasons carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The queue is at its admission limit.
    QueueFull,
    /// The server is draining for shutdown and takes no new work.
    Draining,
    /// The request was structurally valid but semantically broken (unknown
    /// benchmark, zero-run plan, ...).
    BadRequest,
    /// The referenced job does not exist.
    UnknownJob,
}

mtvar_sim::impl_snap!(enum ErrorCode {
    0 => QueueFull,
    1 => Draining,
    2 => BadRequest,
    3 => UnknownJob,
});

/// Lifecycle state of a job, as reported by [`Response::JobStatus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in a queue lane.
    Queued,
    /// Executing on a dispatcher.
    Running,
    /// Finished successfully.
    Done,
    /// Finished with an error.
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
}

mtvar_sim::impl_snap!(enum JobState {
    0 => Queued,
    1 => Running,
    2 => Done,
    3 => Failed,
    4 => Cancelled,
});

/// A snapshot of the server's counters, returned by [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServerStats {
    /// Jobs accepted into the queue since startup.
    pub submitted: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs finished with an error.
    pub failed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Submissions rejected by admission control (queue full or draining).
    pub rejected: u64,
    /// Jobs currently queued.
    pub queue_depth: u64,
    /// Runs that began simulating, across all jobs.
    pub runs_started: u64,
    /// Runs that finished simulating.
    pub runs_completed: u64,
    /// Runs satisfied from the shared result cache.
    pub runs_cached: u64,
    /// Invariant-violation reports observed.
    pub run_violations: u64,
    /// Warmups simulated
    /// ([`CheckpointStore::warmups_simulated`](mtvar_core::checkpoint::CheckpointStore::warmups_simulated)).
    pub coalesce_leaders: u64,
    /// Warmups answered by a snapshot another job produced
    /// ([`CheckpointStore::warmups_shared`](mtvar_core::checkpoint::CheckpointStore::warmups_shared)).
    pub coalesce_followers: u64,
    /// Warmed snapshots resident in the checkpoint store.
    pub checkpoints_in_memory: u64,
    /// Run results spilled on disk (0 when spill is off).
    pub results_on_disk: u64,
    /// Whether the server is draining for shutdown.
    pub draining: bool,
    /// Drained store warnings (degraded disk operations) — surfaced here
    /// instead of dropped, per the store's `take_warnings` contract.
    pub warnings: Vec<String>,
}

mtvar_sim::impl_snap!(ServerStats {
    submitted,
    completed,
    failed,
    cancelled,
    rejected,
    queue_depth,
    runs_started,
    runs_completed,
    runs_cached,
    run_violations,
    coalesce_leaders,
    coalesce_followers,
    checkpoints_in_memory,
    results_on_disk,
    draining,
    warnings,
});

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The sweep was admitted and assigned a job id.
    Submitted {
        /// Assigned job id.
        job: u64,
    },
    /// The job left the queue and began executing.
    JobStarted {
        /// The job.
        job: u64,
    },
    /// One run's measurement is available (simulated or replayed from
    /// cache); streamed in completion order, which is *not* run order.
    RunDone {
        /// The job.
        job: u64,
        /// Run index within the sweep.
        run_index: u64,
        /// [`golden::run_digest`](mtvar_core::golden::run_digest) of the
        /// run's full measurement.
        digest: u64,
        /// Whether the run replayed from the shared cache.
        cached: bool,
        /// Violation reports recorded for the run.
        violations: u64,
    },
    /// Terminal: the sweep finished. `digest` folds every run's digest in
    /// run-index order ([`fold_digest`]), so it is bit-comparable with a
    /// batch execution of the same plan.
    JobDone {
        /// The job.
        job: u64,
        /// Order-sensitive fold of all per-run digests.
        digest: u64,
        /// Runs in the sweep.
        runs: u64,
        /// Runs that simulated.
        completed: u64,
        /// Runs replayed from cache.
        cached: u64,
        /// Total violation reports across runs.
        violations: u64,
        /// Mean cycles-per-transaction over the sweep.
        mean_cpt: f64,
    },
    /// Terminal: the sweep errored.
    JobFailed {
        /// The job.
        job: u64,
        /// Server-side error rendered to text.
        message: String,
    },
    /// Terminal: the job was cancelled before completing.
    Cancelled {
        /// The job.
        job: u64,
    },
    /// Reply to [`Request::Status`].
    JobStatus {
        /// The job.
        job: u64,
        /// Lifecycle state.
        state: JobState,
        /// Runs finished so far (simulated + cached).
        runs_done: u64,
        /// Total runs in the sweep.
        runs_total: u64,
        /// Final digest, once the job is done.
        digest: Option<u64>,
    },
    /// Reply to [`Request::Cancel`]: whether the cancellation took effect
    /// (`true`) or the job had already reached a terminal state (`false`).
    CancelResult {
        /// The job.
        job: u64,
        /// Whether the job will stop (or already stopped) as cancelled.
        cancelled: bool,
    },
    /// Reply to [`Request::Stats`].
    StatsReport(ServerStats),
    /// Reply to [`Request::Shutdown`]: the drain has begun.
    ShuttingDown,
    /// Typed rejection (admission control, validation, unknown job).
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

mtvar_sim::impl_snap!(enum Response {
    0 => Submitted { job },
    1 => JobStarted { job },
    2 => RunDone { job, run_index, digest, cached, violations },
    3 => JobDone { job, digest, runs, completed, cached, violations, mean_cpt },
    4 => JobFailed { job, message },
    5 => Cancelled { job },
    6 => JobStatus { job, state, runs_done, runs_total, digest },
    7 => CancelResult { job, cancelled },
    8 => StatsReport(stats),
    9 => ShuttingDown,
    10 => Error { code, message },
});

impl Message for Request {
    const MAGIC: [u8; 8] = REQUEST_MAGIC;
}

impl Message for Response {
    const MAGIC: [u8; 8] = RESPONSE_MAGIC;
}

/// Encodes a request as one complete frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    encode_message(req)
}

/// Decodes a request from one complete frame; a response frame is
/// [`CheckpointError::BadMagic`] and trailing bytes are an error.
///
/// # Errors
///
/// Returns the [`CheckpointError`] naming the first validation failure.
pub fn decode_request(frame: &[u8]) -> std::result::Result<Request, CheckpointError> {
    decode_message(frame)
}

/// Encodes a response as one complete frame.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    encode_message(resp)
}

/// Decodes a response from one complete frame; a request frame is
/// [`CheckpointError::BadMagic`] and trailing bytes are an error.
///
/// # Errors
///
/// Returns the [`CheckpointError`] naming the first validation failure.
pub fn decode_response(frame: &[u8]) -> std::result::Result<Response, CheckpointError> {
    decode_message(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_spec() -> SweepSpec {
        SweepSpec {
            config: ConfigSpec {
                cpus: 4,
                perturbation_max_ns: 4,
                l2_associativity: Some(2),
                dram_latency_ns: None,
                directory: false,
            },
            workload: WorkloadSpec::Sharing {
                threads: 8,
                seed: 42,
                ops_per_txn: 40,
                footprint_blocks: 4096,
                lock_every: 10,
            },
            plan: PlanSpec {
                runs: 6,
                transactions: 25,
                warmup: 10,
                base_seed: 0,
                shared_warmup: true,
            },
            priority: Priority::Normal,
        }
    }

    /// Oversized CPU counts, in the machine or in a benchmark workload, and
    /// an empty plan fail the one admission check; `run` (the batch path)
    /// refuses them before it builds anything.
    #[test]
    fn the_admission_check_bounds_cpus_and_the_plan() {
        assert_eq!(sample_spec().validate(), Ok(()));
        let bench = |cpus| WorkloadSpec::Benchmark {
            name: "oltp".into(),
            cpus,
            seed: 7,
        };
        let mut rejected = Vec::new();
        for cpus in [0, 65, u64::MAX] {
            let mut spec = sample_spec();
            spec.config.cpus = cpus;
            rejected.push(spec);
            rejected.push(SweepSpec {
                workload: bench(cpus),
                ..sample_spec()
            });
        }
        let mut spec = sample_spec();
        spec.plan.runs = 0;
        rejected.push(spec);
        let executor = Executor::with_threads(1);
        for spec in rejected {
            assert!(spec.validate().is_err(), "{spec:?}");
            assert!(
                matches!(
                    spec.run(&executor),
                    Err(CoreError::InvalidExperiment { .. })
                ),
                "{spec:?}"
            );
        }
        let mut widest = sample_spec();
        widest.config.cpus = MAX_CPUS as u64;
        widest.workload = bench(MAX_CPUS as u64);
        assert_eq!(widest.validate(), Ok(()));
    }

    /// The [`Fnv1a::hash`] of every frame and of its body, in that order.
    fn frame_and_body_hashes(magic: [u8; 8], frame: &[u8]) -> (u64, u64) {
        let (body, _) = unframe(magic, PROTOCOL_VERSION, frame).unwrap();
        (Fnv1a::hash(frame), Fnv1a::hash(body))
    }

    /// Every request round-trips, and the [`Fnv1a::hash`] of its body and of
    /// its frame are pinned: a change to any tag byte or field order fails
    /// here. The body pins predate protocol version 2 and never move; the
    /// frame pins move with the frame.
    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit(sample_spec()),
            Request::Submit(SweepSpec {
                workload: WorkloadSpec::Benchmark {
                    name: "oltp".into(),
                    cpus: 4,
                    seed: 7,
                },
                priority: Priority::High,
                ..sample_spec()
            }),
            Request::Status { job: 7 },
            Request::Cancel { job: 9 },
            Request::Stats,
            Request::Shutdown,
            Request::Submit(SweepSpec {
                priority: Priority::Low,
                ..sample_spec()
            }),
        ];
        let (mut hashes, mut bodies) = (Vec::new(), Vec::new());
        for req in reqs {
            let frame = encode_request(&req);
            assert_eq!(decode_request(&frame).unwrap(), req);
            let (hash, body) = frame_and_body_hashes(REQUEST_MAGIC, &frame);
            hashes.push(hash);
            bodies.push(body);
        }
        assert_eq!(
            bodies,
            [
                0x8735_d30a_63e9_829d,
                0x30e4_ce8b_2811_785b,
                0x60be_a350_a66d_8570,
                0xca4d_dfc9_2936_6404,
                0xcc28_0d4b_8806_f793,
                0xad00_7841_5cb9_ab67,
                0x1331_c940_9693_0d10
            ],
            "body hashes {bodies:#018x?}"
        );
        assert_eq!(
            hashes,
            [
                0x1b8e_a3e8_e3ce_9a0b,
                0x4c2d_101b_205e_faa3,
                0xa558_a664_064f_aad2,
                0xa406_32af_5aa7_5623,
                0xa29e_91c9_e72e_2746,
                0x2df6_53f1_73e4_d15e,
                0xa801_cc5f_b913_dad6
            ],
            "frame hashes {hashes:#018x?}"
        );
    }

    /// Every response round-trips — every [`JobState`] and [`ErrorCode`]
    /// included — and the [`Fnv1a::hash`] of its body and of its frame are
    /// pinned, as for requests.
    #[test]
    fn responses_round_trip() {
        let status = |state| Response::JobStatus {
            job: 1,
            state,
            runs_done: 2,
            runs_total: 6,
            digest: Some(0xABCD),
        };
        let error = |code| Response::Error {
            code,
            message: "no".into(),
        };
        let resps = [
            Response::Submitted { job: 1 },
            Response::JobStarted { job: 1 },
            Response::RunDone {
                job: 1,
                run_index: 3,
                digest: 0xDEAD_BEEF,
                cached: true,
                violations: 2,
            },
            Response::JobDone {
                job: 1,
                digest: 0xABCD,
                runs: 6,
                completed: 4,
                cached: 2,
                violations: 0,
                mean_cpt: 1234.5,
            },
            Response::JobFailed {
                job: 1,
                message: "deadlock".into(),
            },
            Response::Cancelled { job: 1 },
            Response::JobStatus {
                job: 1,
                state: JobState::Running,
                runs_done: 2,
                runs_total: 6,
                digest: None,
            },
            Response::CancelResult {
                job: 1,
                cancelled: false,
            },
            Response::StatsReport(ServerStats {
                submitted: 3,
                warnings: vec!["w".into()],
                draining: true,
                ..ServerStats::default()
            }),
            Response::ShuttingDown,
            Response::Error {
                code: ErrorCode::Draining,
                message: "bye".into(),
            },
            status(JobState::Queued),
            status(JobState::Done),
            status(JobState::Failed),
            status(JobState::Cancelled),
            error(ErrorCode::QueueFull),
            error(ErrorCode::BadRequest),
            error(ErrorCode::UnknownJob),
        ];
        let (mut hashes, mut bodies) = (Vec::new(), Vec::new());
        for resp in resps {
            let frame = encode_response(&resp);
            assert_eq!(decode_response(&frame).unwrap(), resp);
            let (hash, body) = frame_and_body_hashes(RESPONSE_MAGIC, &frame);
            hashes.push(hash);
            bodies.push(body);
        }
        assert_eq!(
            bodies,
            [
                0x3561_90d1_e770_67cb,
                0x2854_78f2_ee18_debf,
                0x4f47_fba4_22d7_8cd0,
                0x8df4_bc26_faa2_a957,
                0xfc87_292d_c69b_e7dc,
                0x020f_2340_e5a2_5254,
                0x791e_c8d4_cad6_f377,
                0x773f_93cc_5f98_9d1d,
                0x7f55_cac1_5053_4578,
                0x884b_3f19_8a3e_cae1,
                0xbf3a_0239_73a3_ddd9,
                0x83a3_8f8e_1bad_4553,
                0x0fa4_e604_93a7_e06a,
                0xa48e_2d87_b178_ed38,
                0x7db0_6fbe_271c_dcca,
                0xa149_bd3e_16a8_88c1,
                0x9a7f_2e65_c88a_5d3d,
                0xf8c4_c270_6a4e_486a
            ],
            "body hashes {bodies:#018x?}"
        );
        assert_eq!(
            hashes,
            [
                0x8f1f_7273_49f5_479a,
                0x255b_9862_a861_2022,
                0x37c3_ae9c_2280_7c0b,
                0x1674_ab09_72f9_29e8,
                0xcc7b_0468_a1f1_40d8,
                0x3fcd_4233_ea0a_6db9,
                0x876b_edf4_8133_3dad,
                0xc7c8_7a15_a6d1_c007,
                0x542b_9792_0201_a127,
                0xb1e5_705f_2bff_2bc6,
                0x6ca4_e1ac_e280_8a1a,
                0xddc4_4e46_776c_cc44,
                0x8c92_4a51_39a0_9d9d,
                0xe300_e590_e12b_1afe,
                0x0fd9_2339_3c87_07f1,
                0xe58b_8c9a_c2f8_d25d,
                0x6c5f_1454_2f6a_39c2,
                0x7676_9a85_0f24_896d
            ],
            "frame hashes {hashes:#018x?}"
        );
    }

    #[test]
    fn a_tag_past_the_largest_is_corrupt_and_an_empty_buffer_truncated() {
        fn check<T: Snap + std::fmt::Debug>(tag: u8) {
            let name = std::any::type_name::<T>();
            let mut bytes = vec![tag];
            bytes.resize(256, 0);
            let corrupt = T::decode_snap(&mut Decoder::new(&bytes));
            assert!(
                matches!(corrupt, Err(CheckpointError::Corrupt { .. })),
                "{name}"
            );
            let empty = T::decode_snap(&mut Decoder::new(&[]));
            assert!(matches!(empty, Err(CheckpointError::Truncated)), "{name}");
        }
        let table: [(u8, fn(u8)); 6] = [
            (2, check::<WorkloadSpec>),
            (3, check::<Priority>),
            (5, check::<Request>),
            (4, check::<ErrorCode>),
            (5, check::<JobState>),
            (11, check::<Response>),
        ];
        for (tag, check) in table {
            check(tag);
        }
    }

    #[test]
    fn a_frame_sent_to_the_wrong_side_is_bad_magic() {
        let frame = encode_request(&Request::Stats);
        assert_eq!(decode_response(&frame), Err(CheckpointError::BadMagic));
        let frame = encode_response(&Response::ShuttingDown);
        assert_eq!(decode_request(&frame), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn stream_round_trip_distinguishes_clean_close() {
        let request = Request::Submit(sample_spec());
        let mut buf = Vec::new();
        write_message(&mut buf, &request).unwrap();
        assert_eq!(buf, encode_request(&request));
        let mut cursor = std::io::Cursor::new(buf.clone());
        assert_eq!(read_message::<Request>(&mut cursor).unwrap(), request);
        // Clean EOF at a frame boundary is Disconnected...
        match read_message::<Request>(&mut cursor) {
            Err(ServeError::Disconnected) => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
        // ...a cut inside the header or the body is a protocol error.
        for cut in [5, FRAME_HEADER_BYTES + 1] {
            let mut cut = std::io::Cursor::new(buf[..cut].to_vec());
            match read_message::<Request>(&mut cut) {
                Err(ServeError::Protocol(CheckpointError::Truncated)) => {}
                other => panic!("expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_length_is_rejected_from_the_header() {
        let mut frame = encode_request(&Request::Stats);
        frame[12..20].copy_from_slice(&((MAX_FRAME_BODY + 1) as u64).to_le_bytes());
        assert_eq!(decode_request(&frame), Err(CheckpointError::Truncated));
        // The stream reader rejects it from the header, before allocating.
        match read_message::<Request>(&mut std::io::Cursor::new(frame)) {
            Err(ServeError::Protocol(CheckpointError::Corrupt { what })) => {
                assert!(what.contains("exceeds cap"), "{what}");
            }
            other => panic!("expected the cap to reject, got {other:?}"),
        }
    }

    #[test]
    fn digest_fold_is_order_sensitive() {
        let a = fold_digest(fold_digest(0, 1), 2);
        let b = fold_digest(fold_digest(0, 2), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn checksum_known_answers() {
        let pattern: Vec<u8> = (0..1024u32).map(|i| i as u8).collect();
        assert_eq!(checksum(b""), 0xC381_7C01_6BA4_FF30);
        assert_eq!(checksum(&pattern), 0xF88C_FB1E_BBAC_3CEF);
    }
}
