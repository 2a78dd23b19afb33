//! The wire protocol: length-prefixed, checksummed frames carrying typed
//! request/response messages.
//!
//! One frame is
//!
//! ```text
//! magic "MTVS" (4) | version u16 | kind u8 | reserved u8 | body_len u32
//! | body (body_len bytes) | checksum u64
//! ```
//!
//! with every multi-byte field little-endian, the checksum an FNV-1a +
//! SplitMix64 fingerprint over header *and* body, and `body_len` capped at
//! [`MAX_FRAME_BODY`] **before** any allocation — a hostile length is
//! rejected from the 12-byte header alone, mirroring the checkpoint codec's
//! `decode_len` discipline. Message bodies are [`Snap`]-encoded (fixed-width
//! LE integers, explicit enum tags), so the format is stable across builds
//! and every malformed input decodes to an error, never a panic.

use std::io::{Read, Write};

use mtvar_sim::checkpoint::{CheckpointError, Decoder, Encoder, Snap};
use mtvar_sim::hash::Fnv1a;

/// Folds per-run digests into the job-level digest `JobDone` carries.
pub use mtvar_sim::hash::fold_digest;

use crate::{Result, ServeError};

/// Magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"MTVS";

/// Current protocol version; requests from other versions are rejected.
pub const PROTOCOL_VERSION: u16 = 1;

/// Hard cap on a frame body. Far above any real message (the largest is a
/// stats report with its warning strings), and small enough that a hostile
/// `body_len` can never drive a large allocation.
pub const MAX_FRAME_BODY: usize = 1 << 20;

/// Frame header size in bytes: magic + version + kind + reserved + body_len.
pub const FRAME_HEADER: usize = 12;

/// Whether a frame carries a request or a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server.
    Request,
    /// Server → client.
    Response,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
        }
    }

    fn from_byte(b: u8) -> std::result::Result<Self, CheckpointError> {
        match b {
            1 => Ok(FrameKind::Request),
            2 => Ok(FrameKind::Response),
            other => Err(CheckpointError::Corrupt {
                what: format!("invalid frame kind {other}"),
            }),
        }
    }
}

/// The workspace's content hash ([`Fnv1a`]), applied here as the frame
/// checksum.
pub fn checksum(bytes: &[u8]) -> u64 {
    Fnv1a::hash(bytes)
}

/// [`checksum`] over the concatenation of `parts`, without materializing
/// it. FNV-1a is a plain byte fold, so summing header and body in place is
/// exactly the sum of the contiguous frame — this is what lets the stream
/// reader and writer validate/emit frames from separate header and body
/// buffers with no assembly copy.
pub fn checksum_parts(parts: &[&[u8]]) -> u64 {
    let mut h = Fnv1a::new();
    for part in parts {
        h.update(part);
    }
    h.finish()
}

/// Encodes one complete frame.
pub fn encode_frame(kind: FrameKind, body: &[u8]) -> Vec<u8> {
    assert!(body.len() <= MAX_FRAME_BODY, "frame body over the cap");
    let mut out = Vec::with_capacity(FRAME_HEADER + body.len() + 8);
    out.extend_from_slice(&frame_header(kind, body.len()));
    out.extend_from_slice(body);
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validates the 12-byte header, returning the body length. Shared by the
/// slice and stream decoders so both reject hostile lengths before any
/// allocation or read.
fn validate_header(
    header: &[u8; FRAME_HEADER],
) -> std::result::Result<(FrameKind, usize), CheckpointError> {
    if header[..4] != FRAME_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != PROTOCOL_VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            found: u32::from(version),
        });
    }
    let kind = FrameKind::from_byte(header[6])?;
    if header[7] != 0 {
        return Err(CheckpointError::Corrupt {
            what: format!("nonzero reserved byte {}", header[7]),
        });
    }
    let body_len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    if body_len > MAX_FRAME_BODY {
        return Err(CheckpointError::Corrupt {
            what: format!("frame body length {body_len} exceeds cap {MAX_FRAME_BODY}"),
        });
    }
    Ok((kind, body_len))
}

/// Decodes one frame from a byte slice, validating magic, version, kind,
/// length (against both the cap and the actual byte count) and checksum.
///
/// # Errors
///
/// Returns the [`CheckpointError`] naming the first validation failure.
pub fn decode_frame(bytes: &[u8]) -> std::result::Result<(FrameKind, &[u8]), CheckpointError> {
    if bytes.len() < FRAME_HEADER + 8 {
        return Err(CheckpointError::Truncated);
    }
    let header: [u8; FRAME_HEADER] = bytes[..FRAME_HEADER].try_into().expect("sized");
    let (kind, body_len) = validate_header(&header)?;
    let framed = FRAME_HEADER + body_len;
    if bytes.len() != framed + 8 {
        return Err(CheckpointError::Truncated);
    }
    let stored = u64::from_le_bytes(bytes[framed..framed + 8].try_into().expect("sized"));
    let actual = checksum(&bytes[..framed]);
    if stored != actual {
        return Err(CheckpointError::FingerprintMismatch { stored, actual });
    }
    Ok((kind, &bytes[FRAME_HEADER..framed]))
}

/// Builds the 12-byte header for a frame with the given kind and body
/// length. The caller has already checked the length against
/// [`MAX_FRAME_BODY`].
fn frame_header(kind: FrameKind, body_len: usize) -> [u8; FRAME_HEADER] {
    let mut header = [0u8; FRAME_HEADER];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4..6].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    header[6] = kind.to_byte();
    header[7] = 0; // reserved
    header[8..12].copy_from_slice(&(body_len as u32).to_le_bytes());
    header
}

/// Writes one frame to a stream.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, body: &[u8]) -> std::io::Result<()> {
    assert!(body.len() <= MAX_FRAME_BODY, "frame body over the cap");
    let header = frame_header(kind, body.len());
    let sum = checksum_parts(&[&header, body]).to_le_bytes();
    // One vectored write of header + body + checksum: the frame goes out
    // without ever being assembled into a contiguous buffer, so streaming
    // a body costs zero copies beyond its own encode. Short vectored
    // writes fall back to `write_all` on each remaining piece.
    let mut bufs = [
        std::io::IoSlice::new(&header),
        std::io::IoSlice::new(body),
        std::io::IoSlice::new(&sum),
    ];
    let total = header.len() + body.len() + sum.len();
    let mut slices = &mut bufs[..];
    let mut written = 0usize;
    while written < total {
        match w.write_vectored(slices) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ));
            }
            Ok(n) => {
                written += n;
                std::io::IoSlice::advance_slices(&mut slices, n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one frame from a stream: header first, length validated against
/// the cap before the body buffer is sized, then checksum verification.
///
/// # Errors
///
/// [`ServeError::Disconnected`] on clean EOF before any header byte;
/// [`ServeError::Io`] on short reads; [`ServeError::Protocol`] on
/// validation failure.
pub fn read_frame(r: &mut impl Read) -> Result<(FrameKind, Vec<u8>)> {
    let mut body = Vec::new();
    let kind = read_frame_into(r, &mut body)?;
    Ok((kind, body))
}

/// [`read_frame`] into a caller-owned body buffer, reusing its capacity.
/// `body` is cleared and on success holds exactly the frame body; the
/// checksum is verified over the separate header and body buffers
/// ([`checksum_parts`]), so a steady-state reader — a client draining a
/// stream of `RunDone` frames — performs no per-frame allocation at all
/// once the buffer has grown to the stream's largest body.
///
/// # Errors
///
/// As for [`read_frame`].
pub fn read_frame_into(r: &mut impl Read, body: &mut Vec<u8>) -> Result<FrameKind> {
    let mut header = [0u8; FRAME_HEADER];
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
    let (kind, body_len) = validate_header(&header)?;
    body.clear();
    // `body_len` is capped by `validate_header`, so this sizes at most
    // MAX_FRAME_BODY + 8 bytes; the extra 8 hold the trailing checksum so
    // body and checksum arrive in one read.
    body.resize(body_len + 8, 0);
    r.read_exact(body)
        .map_err(|_| ServeError::Protocol(CheckpointError::Truncated))?;
    let stored = u64::from_le_bytes(body[body_len..].try_into().expect("sized"));
    let actual = checksum_parts(&[&header, &body[..body_len]]);
    if stored != actual {
        return Err(ServeError::Protocol(CheckpointError::FingerprintMismatch {
            stored,
            actual,
        }));
    }
    body.truncate(body_len);
    Ok(kind)
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
    /// [`SharingWorkload`](mtvar_sim::workload::SharingWorkload) with its
    /// five constructor parameters.
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

    /// Validates the spec without building anything: nonzero sizing, a
    /// resolvable benchmark name.
    pub fn validate(&self) -> std::result::Result<(), String> {
        match self {
            WorkloadSpec::Sharing {
                threads,
                ops_per_txn,
                footprint_blocks,
                ..
            } => {
                if *threads == 0 || *ops_per_txn == 0 || *footprint_blocks == 0 {
                    return Err("sharing workload needs threads, ops_per_txn and \
                                footprint_blocks >= 1"
                        .into());
                }
                Ok(())
            }
            WorkloadSpec::Benchmark { name, cpus, .. } => {
                if Self::resolve_benchmark(name).is_none() {
                    return Err(format!("unknown benchmark {name:?}"));
                }
                if *cpus == 0 {
                    return Err("benchmark workload needs cpus >= 1".into());
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

/// Encodes a request as one complete frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(req.snap_size_hint());
    req.encode_snap(&mut enc);
    encode_frame(FrameKind::Request, &enc.into_bytes())
}

/// Decodes a request from one complete frame, rejecting response frames and
/// trailing bytes.
///
/// # Errors
///
/// Returns the [`CheckpointError`] naming the first validation failure.
pub fn decode_request(frame: &[u8]) -> std::result::Result<Request, CheckpointError> {
    decode_message(FrameKind::Request, decode_frame(frame)?)
}

/// The one message decode behind every reader, here and in the server and
/// client: checks that a validated frame is of the `expected` kind, then
/// decodes its body as `M`, rejecting trailing bytes.
pub(crate) fn decode_message<M: Snap>(
    expected: FrameKind,
    (kind, body): (FrameKind, &[u8]),
) -> std::result::Result<M, CheckpointError> {
    if kind != expected {
        return Err(CheckpointError::Corrupt {
            what: format!("expected a {expected:?} frame"),
        });
    }
    let mut dec = Decoder::new(body);
    let message = M::decode_snap(&mut dec)?;
    dec.finish()?;
    Ok(message)
}

/// Encodes a response as one complete frame.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(resp.snap_size_hint());
    resp.encode_snap(&mut enc);
    encode_frame(FrameKind::Response, &enc.into_bytes())
}

/// A per-connection frame writer that owns one reusable body buffer.
///
/// [`encode_response`] + `write_all` builds every frame twice: the body is
/// encoded into a fresh `Vec`, then copied into a second fresh `Vec`
/// behind a header. For a one-shot control reply that is noise; for the
/// `Submit` path — which streams one `RunDone` frame per run, thousands per
/// sweep — it is two allocations and a full body copy per run. The sink
/// encodes each response into the same recycled buffer
/// ([`Encoder::from_vec`]) and hands header, body, and checksum to one
/// vectored [`write_frame`], so a draining connection reaches a
/// zero-allocation, zero-copy steady state.
#[derive(Debug, Default)]
pub struct FrameSink {
    body: Vec<u8>,
}

impl FrameSink {
    /// An empty sink; the body buffer grows to the connection's largest
    /// response and stays there.
    pub fn new() -> Self {
        FrameSink::default()
    }

    /// Encodes `resp` into the recycled body buffer and writes it as one
    /// vectored frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_response(&mut self, w: &mut impl Write, resp: &Response) -> std::io::Result<()> {
        let mut enc = Encoder::from_vec(std::mem::take(&mut self.body));
        resp.encode_snap(&mut enc);
        self.body = enc.into_bytes();
        write_frame(w, FrameKind::Response, &self.body)
    }
}

/// Decodes a response from one complete frame, rejecting request frames and
/// trailing bytes.
///
/// # Errors
///
/// Returns the [`CheckpointError`] naming the first validation failure.
pub fn decode_response(frame: &[u8]) -> std::result::Result<Response, CheckpointError> {
    decode_message(FrameKind::Response, decode_frame(frame)?)
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

    /// Every request round-trips, and its frame's [`Fnv1a::hash`] is pinned:
    /// a change to any tag byte or field order fails here.
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
        let mut hashes = Vec::new();
        for req in reqs {
            let frame = encode_request(&req);
            assert_eq!(decode_request(&frame).unwrap(), req);
            hashes.push(Fnv1a::hash(&frame));
        }
        assert_eq!(
            hashes,
            [
                0xe6a4_8f1d_36f6_af53,
                0x83f2_9f1c_9af6_4387,
                0x8864_66fd_7efa_6bdb,
                0xef1d_8088_e737_af5a,
                0x583b_5a8b_961c_b64a,
                0x3601_06ea_1025_ccfc,
                0x99de_ceea_c596_9c1f
            ],
            "frame hashes {hashes:#018x?}"
        );
    }

    /// Every response round-trips — every [`JobState`] and [`ErrorCode`]
    /// included — and its frame's [`Fnv1a::hash`] is pinned.
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
        let mut hashes = Vec::new();
        for resp in resps {
            let frame = encode_response(&resp);
            assert_eq!(decode_response(&frame).unwrap(), resp);
            hashes.push(Fnv1a::hash(&frame));
        }
        assert_eq!(
            hashes,
            [
                0x9705_2723_a65a_c11b,
                0x9144_b4a8_1398_e3ea,
                0xdffa_98b9_76db_abca,
                0x1f9b_12d1_a34c_5c02,
                0xc9db_5728_0f93_aadc,
                0xa3b2_a6da_9da9_3665,
                0x4f6c_9ba1_f498_81d6,
                0xe7f4_090c_822c_f610,
                0xe88e_be80_ab30_929d,
                0x37ac_8638_12fd_0f75,
                0x275a_f638_4294_6371,
                0xa7c5_3c83_065b_6b82,
                0x6fc6_bf44_097f_4631,
                0x4096_429f_7d9c_9cbf,
                0xfc4d_fb30_29ee_5e75,
                0xf6c5_7564_e848_eebc,
                0x82cd_ba21_6c65_c0e1,
                0x3394_868c_20c0_e486
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
    fn kinds_do_not_cross() {
        let frame = encode_request(&Request::Stats);
        assert!(decode_response(&frame).is_err());
        let frame = encode_response(&Response::ShuttingDown);
        assert!(decode_request(&frame).is_err());
    }

    #[test]
    fn stream_round_trip_distinguishes_clean_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"body").unwrap();
        let mut cursor = std::io::Cursor::new(buf.clone());
        let (kind, body) = read_frame(&mut cursor).unwrap();
        assert_eq!(kind, FrameKind::Request);
        assert_eq!(body, b"body");
        // Clean EOF at a frame boundary is Disconnected...
        match read_frame(&mut cursor) {
            Err(ServeError::Disconnected) => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
        // ...a cut inside the header is a protocol error.
        let mut cut = std::io::Cursor::new(buf[..5].to_vec());
        match read_frame(&mut cut) {
            Err(ServeError::Protocol(CheckpointError::Truncated)) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn hostile_length_is_rejected_from_the_header() {
        let mut frame = encode_frame(FrameKind::Request, b"x");
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_frame(&frame).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Corrupt { ref what } if what.contains("exceeds cap")),
            "got {err:?}"
        );
        // The stream reader rejects it too, before allocating.
        let mut cursor = std::io::Cursor::new(frame);
        assert!(read_frame(&mut cursor).is_err());
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
        let split = checksum_parts(&[&pattern[..100], &pattern[100..]]);
        assert_eq!(split, 0xF88C_FB1E_BBAC_3CEF);
    }

    #[test]
    fn checksum_parts_matches_contiguous_checksum() {
        let bytes = b"the frame header then the frame body";
        for split in [0, 1, 12, bytes.len()] {
            assert_eq!(
                checksum_parts(&[&bytes[..split], &bytes[split..]]),
                checksum(bytes),
                "split at {split}"
            );
        }
        assert_eq!(checksum_parts(&[]), checksum(b""));
    }

    #[test]
    fn vectored_write_frame_is_byte_identical_to_encode_frame() {
        for body in [&b""[..], b"x", &[0xA5u8; 4096]] {
            let mut streamed = Vec::new();
            write_frame(&mut streamed, FrameKind::Response, body).unwrap();
            assert_eq!(streamed, encode_frame(FrameKind::Response, body));
        }
    }

    #[test]
    fn read_frame_into_reuses_one_buffer_across_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Response, b"first, the longer body").unwrap();
        write_frame(&mut wire, FrameKind::Request, b"second").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut body = Vec::new();
        assert_eq!(
            read_frame_into(&mut cursor, &mut body).unwrap(),
            FrameKind::Response
        );
        assert_eq!(body, b"first, the longer body");
        let capacity = body.capacity();
        assert_eq!(
            read_frame_into(&mut cursor, &mut body).unwrap(),
            FrameKind::Request
        );
        assert_eq!(body, b"second");
        assert_eq!(body.capacity(), capacity, "no regrowth for smaller frames");
        // A corrupted checksum still fails through the split-buffer path.
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Response, b"body").unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 1;
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(
            read_frame_into(&mut cursor, &mut body),
            Err(ServeError::Protocol(
                CheckpointError::FingerprintMismatch { .. }
            ))
        ));
    }

    #[test]
    fn frame_sink_frames_match_encode_response() {
        let resps = [
            Response::Submitted { job: 9 },
            Response::RunDone {
                job: 9,
                run_index: 0,
                digest: 0x1234_5678,
                cached: false,
                violations: 0,
            },
            Response::ShuttingDown,
        ];
        let mut sink = FrameSink::new();
        let mut streamed = Vec::new();
        let mut reference = Vec::new();
        for resp in &resps {
            sink.write_response(&mut streamed, resp).unwrap();
            reference.extend_from_slice(&encode_response(resp));
        }
        assert_eq!(streamed, reference);
    }
}
