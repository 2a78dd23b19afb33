//! The daemon: accept loop, dispatcher pool, and the progress bridge that
//! streams per-run results back to the submitting client.
//!
//! One server process owns one [`Executor`] (result cache, optional disk
//! spill) and one [`CheckpointStore`]; every job executes through the exact
//! same [`Executor::run_space`] entry point a batch study uses, so served
//! digests are bit-identical to batch ones, and concurrent jobs that need
//! the same warmup share one simulation of it through the store.
//! Connections and dispatchers are plain threads — no async runtime — and
//! graceful shutdown (SIGINT, SIGTERM, or a [`Request::Shutdown`] frame)
//! drains in-flight jobs while rejecting new submissions with a typed
//! [`ErrorCode::Draining`] frame.
//!
//! [`Executor`]: mtvar_core::runspace::Executor
//! [`Executor::run_space`]: mtvar_core::runspace::Executor::run_space
//! [`CheckpointStore`]: mtvar_core::checkpoint::CheckpointStore
//! [`Request::Shutdown`]: crate::protocol::Request::Shutdown
//! [`ErrorCode::Draining`]: crate::protocol::ErrorCode::Draining

use std::collections::{HashMap, HashSet};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mtvar_core::checkpoint::CheckpointStore;
use mtvar_core::golden::run_digest;
use mtvar_core::runspace::{Executor, ProgressCounters, RunProgress, RunSpace};
use mtvar_core::CoreError;
use mtvar_sim::checkpoint::{Decoder, Snap};
use mtvar_sim::stats::RunResult;
use mtvar_sim::workload::{SharingWorkload, Workload};

use crate::job::{AdmissionError, JobQueue, JobRecord, JobRegistry};
use crate::protocol::{
    fold_digest, read_frame, ErrorCode, FrameKind, FrameSink, JobState, Request, Response,
    ServerStats, WorkloadSpec,
};
use crate::ServeError;

/// Process-wide shutdown flag driven by SIGINT / SIGTERM.
///
/// The handler does the only async-signal-safe thing — it stores to a static
/// atomic — and the accept loop polls the flag between accepts. Installation
/// is explicit (the `mtvar serve` binary calls [`signal::install`]) so
/// embedding a server in a test binary never hijacks the harness's Ctrl-C.
pub mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Installs the SIGINT/SIGTERM handlers that request a graceful drain.
    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `signal` with a function whose body only stores to a
        // static atomic is async-signal-safe; 2 and 15 are valid signal
        // numbers on every Unix this crate targets.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    /// Whether a handled signal has requested shutdown.
    pub fn shutdown_requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

/// Everything needed to start a server.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-domain socket path to listen on. Stale files are replaced.
    pub socket: PathBuf,
    /// Dispatcher threads executing jobs (>= 1).
    pub dispatchers: usize,
    /// Worker threads inside the shared executor (>= 1). Two or more are
    /// one pool that every dispatcher's sweep submits to, so this caps the
    /// runs in flight across all jobs; with one, each dispatcher runs its
    /// job's sweep on its own thread.
    pub executor_threads: usize,
    /// Queue admission limit.
    pub queue_limit: usize,
    /// Disk-spill directory for warmed checkpoints, if any.
    pub checkpoint_spill: Option<PathBuf>,
    /// Disk-spill directory for run results, if any.
    pub result_spill: Option<PathBuf>,
    /// Strict invariant monitoring (fail sweeps on violations).
    pub strict: bool,
}

impl ServeConfig {
    /// Defaults: 2 dispatchers, 2 executor threads, depth-64 queue, no disk
    /// spill, relaxed invariants.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServeConfig {
            socket: socket.into(),
            dispatchers: 2,
            executor_threads: 2,
            queue_limit: 64,
            checkpoint_spill: None,
            result_spill: None,
            strict: false,
        }
    }
}

/// State shared by the accept loop, dispatchers, and connection handlers.
struct Shared {
    queue: JobQueue,
    registry: JobRegistry,
    /// The base executor; dispatchers clone it per job to attach that job's
    /// progress observer. Clones share the result cache, spill store, and
    /// checkpoint store through their `Arc`s.
    executor: Executor,
    store: Arc<CheckpointStore>,
    counters: Arc<ProgressCounters>,
    shutdown: AtomicBool,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    rejected: AtomicU64,
}

impl Shared {
    fn stats_snapshot(&self) -> ServerStats {
        let mut warnings = self.store.take_warnings();
        if let Some(results) = self.executor.result_store() {
            warnings.extend(results.take_warnings());
        }
        ServerStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            queue_depth: self.queue.depth() as u64,
            runs_started: self.counters.started() as u64,
            runs_completed: self.counters.completed() as u64,
            runs_cached: self.counters.cached() as u64,
            run_violations: self.counters.violations(),
            coalesce_leaders: self.store.warmups_simulated(),
            coalesce_followers: self.store.warmups_shared(),
            checkpoints_in_memory: self.store.len() as u64,
            results_on_disk: self
                .executor
                .result_store()
                .map_or(0, |s| s.len_on_disk() as u64),
            draining: self.queue.is_draining(),
            warnings,
        }
    }
}

/// Per-job [`RunProgress`] bridge: forwards every event to the job's own
/// counters *and* the server-wide ones, and streams a
/// [`Response::RunDone`] frame per finished run. The executor fires
/// `run_cached` / `run_violations` before `run_result` for the same run, so
/// the markers this observer records are visible by the time the frame is
/// built.
struct JobObserver {
    job: Arc<JobRecord>,
    local: ProgressCounters,
    global: Arc<ProgressCounters>,
    cached: Mutex<HashSet<usize>>,
    violations: Mutex<HashMap<usize, u64>>,
}

impl JobObserver {
    fn new(job: Arc<JobRecord>, global: Arc<ProgressCounters>) -> Self {
        JobObserver {
            job,
            local: ProgressCounters::new(),
            global,
            cached: Mutex::new(HashSet::new()),
            violations: Mutex::new(HashMap::new()),
        }
    }
}

impl RunProgress for JobObserver {
    fn run_started(&self, run_index: usize) {
        self.local.run_started(run_index);
        self.global.run_started(run_index);
    }

    fn run_completed(&self, run_index: usize, wall: Duration) {
        self.local.run_completed(run_index, wall);
        self.global.run_completed(run_index, wall);
    }

    fn run_cached(&self, run_index: usize) {
        self.cached
            .lock()
            .expect("observer poisoned")
            .insert(run_index);
        self.local.run_cached(run_index);
        self.global.run_cached(run_index);
    }

    fn run_violations(&self, run_index: usize, violations: &[mtvar_sim::check::Violation]) {
        self.violations
            .lock()
            .expect("observer poisoned")
            .insert(run_index, violations.len() as u64);
        self.local.run_violations(run_index, violations);
        self.global.run_violations(run_index, violations);
    }

    fn run_result(&self, run_index: usize, result: &RunResult) {
        self.job.note_run_done();
        let cached = self
            .cached
            .lock()
            .expect("observer poisoned")
            .contains(&run_index);
        let violations = self
            .violations
            .lock()
            .expect("observer poisoned")
            .get(&run_index)
            .copied()
            .unwrap_or(0);
        self.job.send(Response::RunDone {
            job: self.job.id,
            run_index: run_index as u64,
            digest: run_digest(result),
            cached,
            violations,
        });
    }
}

/// Executes one sweep through the shared executor, with the job's observer
/// attached.
fn run_sweep<W, F>(
    shared: &Shared,
    job: &JobRecord,
    observer: Arc<JobObserver>,
    config: &mtvar_sim::config::MachineConfig,
    factory: F,
) -> mtvar_core::Result<RunSpace>
where
    W: Workload + Snap + Clone + Send + Sync,
    F: Fn() -> W + Sync,
{
    shared
        .executor
        .clone()
        .with_progress(observer as Arc<dyn RunProgress>)
        .run_space(config, factory, &job.spec.plan.build())
}

fn dispatch_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop_blocking() {
        if job.cancel_requested() {
            job.set_state(JobState::Cancelled);
            job.send(Response::Cancelled { job: job.id });
            shared.cancelled.fetch_add(1, Ordering::Relaxed);
            shared.queue.note_done();
            continue;
        }
        job.set_state(JobState::Running);
        job.send(Response::JobStarted { job: job.id });
        let observer = Arc::new(JobObserver::new(
            Arc::clone(&job),
            Arc::clone(&shared.counters),
        ));
        let config = job.spec.config.build();
        let outcome = match job.spec.workload.clone() {
            WorkloadSpec::Sharing {
                threads,
                seed,
                ops_per_txn,
                footprint_blocks,
                lock_every,
            } => run_sweep(shared, &job, Arc::clone(&observer), &config, move || {
                SharingWorkload::new(
                    threads as usize,
                    seed,
                    ops_per_txn as u32,
                    footprint_blocks,
                    lock_every as u32,
                )
            }),
            WorkloadSpec::Benchmark { name, cpus, seed } => {
                match WorkloadSpec::resolve_benchmark(&name) {
                    Some(bench) => {
                        run_sweep(shared, &job, Arc::clone(&observer), &config, move || {
                            bench.workload(cpus as usize, seed)
                        })
                    }
                    // Unreachable past admission validation, but a dispatch
                    // must never panic on a record it popped.
                    None => Err(CoreError::InvalidExperiment {
                        what: format!("unknown benchmark {name:?}"),
                    }),
                }
            }
        };
        match outcome {
            Ok(space) if job.cancel_requested() => {
                // Cancelled mid-run: the sweep finished (its runs are cached,
                // so nothing was wasted) but the job reports cancelled.
                drop(space);
                job.set_state(JobState::Cancelled);
                job.send(Response::Cancelled { job: job.id });
                shared.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            Ok(space) => {
                let digest = space
                    .results()
                    .iter()
                    .fold(0u64, |acc, r| fold_digest(acc, run_digest(r)));
                let runtimes = space.runtimes();
                let mean_cpt = runtimes.iter().sum::<f64>() / runtimes.len() as f64;
                job.set_digest(digest);
                job.set_state(JobState::Done);
                job.send(Response::JobDone {
                    job: job.id,
                    digest,
                    runs: space.len() as u64,
                    completed: observer.local.completed() as u64,
                    cached: observer.local.cached() as u64,
                    violations: space.total_violations(),
                    mean_cpt,
                });
                shared.completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                job.set_state(JobState::Failed);
                job.send(Response::JobFailed {
                    job: job.id,
                    message: e.to_string(),
                });
                shared.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        shared.queue.note_done();
    }
}

fn handle_connection(shared: &Arc<Shared>, mut stream: UnixStream) {
    // One reusable frame writer per connection: every response on this
    // stream — above all the per-run `RunDone` frames a Submit drains —
    // encodes into the same recycled body buffer and goes out as a single
    // vectored write.
    let mut sink = FrameSink::new();
    // A failing client write is the client's problem; a malformed request
    // earns a typed BadRequest frame (best-effort) and a closed connection.
    if let Err(ServeError::Protocol(e)) = serve_connection(shared, &mut stream, &mut sink) {
        let _ = sink.write_response(
            &mut stream,
            &Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("malformed request: {e}"),
            },
        );
    }
}

fn serve_connection(
    shared: &Arc<Shared>,
    stream: &mut UnixStream,
    sink: &mut FrameSink,
) -> crate::Result<()> {
    let (kind, body) = read_frame(stream)?;
    if kind != FrameKind::Request {
        return Err(ServeError::Protocol(
            mtvar_sim::checkpoint::CheckpointError::Corrupt {
                what: "expected a request frame".into(),
            },
        ));
    }
    let mut dec = Decoder::new(&body);
    let request = Request::decode_snap(&mut dec)?;
    dec.finish()?;
    match request {
        Request::Submit(spec) => {
            if let Err(what) = spec.workload.validate() {
                sink.write_response(
                    stream,
                    &Response::Error {
                        code: ErrorCode::BadRequest,
                        message: what,
                    },
                )?;
                return Ok(());
            }
            if spec.plan.runs == 0 || spec.plan.transactions == 0 {
                sink.write_response(
                    stream,
                    &Response::Error {
                        code: ErrorCode::BadRequest,
                        message: "plan needs runs and transactions >= 1".into(),
                    },
                )?;
                return Ok(());
            }
            let (events, inbox) = mpsc::channel();
            match shared.queue.submit(spec, events) {
                Err(reason) => {
                    shared.rejected.fetch_add(1, Ordering::Relaxed);
                    let (code, message) = match reason {
                        AdmissionError::QueueFull => {
                            (ErrorCode::QueueFull, "queue at admission limit".into())
                        }
                        AdmissionError::Draining => (
                            ErrorCode::Draining,
                            "server is draining for shutdown".to_string(),
                        ),
                    };
                    sink.write_response(stream, &Response::Error { code, message })?;
                }
                Ok(job) => {
                    shared.registry.register(Arc::clone(&job));
                    shared.submitted.fetch_add(1, Ordering::Relaxed);
                    sink.write_response(stream, &Response::Submitted { job: job.id })?;
                    // Stream events until the job's terminal frame. If the
                    // client hangs up, the job still runs to completion —
                    // its results land in the shared cache either way.
                    for event in inbox {
                        let terminal = matches!(
                            event,
                            Response::JobDone { .. }
                                | Response::JobFailed { .. }
                                | Response::Cancelled { .. }
                        );
                        if sink.write_response(stream, &event).is_err() {
                            break;
                        }
                        if terminal {
                            break;
                        }
                    }
                }
            }
        }
        Request::Status { job } => {
            let reply = match shared.registry.get(job) {
                Some(record) => Response::JobStatus {
                    job,
                    state: record.state(),
                    runs_done: record.runs_done(),
                    runs_total: record.spec.plan.runs,
                    digest: record.digest(),
                },
                None => Response::Error {
                    code: ErrorCode::UnknownJob,
                    message: format!("no job {job}"),
                },
            };
            sink.write_response(stream, &reply)?;
        }
        Request::Cancel { job } => {
            let reply = match shared.registry.get(job) {
                Some(record) => Response::CancelResult {
                    job,
                    cancelled: record.request_cancel(),
                },
                None => Response::Error {
                    code: ErrorCode::UnknownJob,
                    message: format!("no job {job}"),
                },
            };
            sink.write_response(stream, &reply)?;
        }
        Request::Stats => {
            sink.write_response(stream, &Response::StatsReport(shared.stats_snapshot()))?;
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.queue.drain();
            sink.write_response(stream, &Response::ShuttingDown)?;
        }
    }
    Ok(())
}

/// The server entry point. [`Server::start`] binds the socket, spawns the
/// dispatcher pool, and returns a [`ServerHandle`] while the accept loop
/// runs on its own thread.
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Starts a server on `config.socket`. A stale socket file from a dead
    /// server is replaced; an error binding the socket is returned.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the socket cannot be bound.
    pub fn start(config: ServeConfig) -> crate::Result<ServerHandle> {
        if config.socket.exists() {
            std::fs::remove_file(&config.socket)?;
        }
        let listener = UnixListener::bind(&config.socket)?;
        listener.set_nonblocking(true)?;

        let mut store = CheckpointStore::new();
        if let Some(dir) = &config.checkpoint_spill {
            store = store.with_disk_spill(dir);
        }
        let store = Arc::new(store);
        let mut executor = Executor::with_threads(config.executor_threads.max(1))
            .with_checkpoint_store(Arc::clone(&store));
        if let Some(dir) = &config.result_spill {
            executor = executor.with_result_spill(dir);
        }
        if config.strict {
            executor = executor.with_invariant_checks();
        }
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_limit),
            registry: JobRegistry::new(),
            executor,
            store,
            counters: Arc::new(ProgressCounters::new()),
            shutdown: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });

        let dispatchers: Vec<_> = (0..config.dispatchers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mtvar-dispatch-{i}"))
                    .spawn(move || dispatch_loop(&shared))
                    .expect("spawn dispatcher")
            })
            .collect();

        let socket = config.socket.clone();
        let accept_shared = Arc::clone(&shared);
        let accept_socket = socket.clone();
        let thread = std::thread::Builder::new()
            .name("mtvar-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, dispatchers, &accept_socket))
            .expect("spawn accept loop");

        Ok(ServerHandle {
            socket,
            shared,
            thread,
        })
    }
}

fn accept_loop(
    listener: UnixListener,
    shared: Arc<Shared>,
    dispatchers: Vec<std::thread::JoinHandle<()>>,
    socket: &Path,
) {
    loop {
        if signal::shutdown_requested() || shared.shutdown.load(Ordering::SeqCst) {
            // Idempotent: flips admission to typed Draining rejections while
            // queued jobs keep executing.
            shared.queue.drain();
        }
        if shared.queue.is_draining() && shared.queue.is_idle() {
            break;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let shared = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("mtvar-conn".into())
                    .spawn(move || handle_connection(&shared, stream));
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Drained: no queued work, no running job, admission rejects. Stop the
    // dispatchers, surface the final accounting, release the socket.
    shared.queue.drain();
    shared.queue.wait_idle();
    for d in dispatchers {
        let _ = d.join();
    }
    let stats = shared.stats_snapshot();
    eprintln!(
        "[mtvar-serve] drained: {} submitted, {} completed, {} failed, {} cancelled, \
         {} rejected; runs: {} started, {} completed, {} cached, {} violations; \
         coalescing: {} leaders, {} followers",
        stats.submitted,
        stats.completed,
        stats.failed,
        stats.cancelled,
        stats.rejected,
        stats.runs_started,
        stats.runs_completed,
        stats.runs_cached,
        stats.run_violations,
        stats.coalesce_leaders,
        stats.coalesce_followers,
    );
    for warning in &stats.warnings {
        eprintln!("[mtvar-serve] warning: {warning}");
    }
    let _ = std::fs::remove_file(socket);
}

/// A running server. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::shutdown`] (or send SIGINT/SIGTERM/a `Shutdown` frame)
/// and then [`ServerHandle::join`].
#[derive(Debug)]
pub struct ServerHandle {
    socket: PathBuf,
    shared: Arc<Shared>,
    thread: std::thread::JoinHandle<()>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("queue_depth", &self.queue.depth())
            .field("draining", &self.queue.is_draining())
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Requests a graceful drain, as if the process received SIGTERM.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.drain();
    }

    /// Blocks until the accept loop exits (after a drain completes).
    pub fn join(self) {
        let _ = self.thread.join();
    }
}
