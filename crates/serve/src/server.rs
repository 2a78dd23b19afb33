//! The daemon: accept loop, dispatcher pool, and the progress bridge that
//! streams per-run results back to the submitting client.
//!
//! One server process owns one [`Executor`] (result cache, optional disk
//! spill) and one [`CheckpointStore`]; every job executes through
//! [`SweepSpec::run`], the same call `mtvar batch` makes, so served digests
//! are bit-identical to batch ones, and concurrent jobs that need the same
//! warmup share one simulation of it through the store. A sweep that
//! panics ends its job as `JobFailed`; the dispatcher lives on.
//! Connections and dispatchers are plain threads — no async runtime — and
//! graceful shutdown (a [`Request::Shutdown`] frame, which the `mtvar serve`
//! binary also sends on SIGINT/SIGTERM, or [`ServerHandle::shutdown`])
//! drains in-flight jobs while rejecting new submissions with a typed
//! [`ErrorCode::Draining`] frame. The acceptor blocks in `accept`; the
//! thread that completes the drain wakes it with a connection to its own
//! socket.
//!
//! [`Executor`]: mtvar_core::runspace::Executor
//! [`SweepSpec::run`]: crate::protocol::SweepSpec::run
//! [`CheckpointStore`]: mtvar_core::checkpoint::CheckpointStore
//! [`Request::Shutdown`]: crate::protocol::Request::Shutdown
//! [`ErrorCode::Draining`]: crate::protocol::ErrorCode::Draining

use std::collections::{HashMap, HashSet};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mtvar_core::checkpoint::CheckpointStore;
use mtvar_core::golden::run_digest;
use mtvar_core::runspace::{Executor, ProgressCounters, RunProgress};
use mtvar_sim::stats::RunResult;

use crate::job::{unpoisoned, AdmissionError, JobQueue, JobRecord, JobRegistry};
use crate::protocol::{
    fold_digest, read_message, write_message, ErrorCode, JobState, Request, Response, ServerStats,
};
use crate::ServeError;

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
    socket: PathBuf,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    rejected: AtomicU64,
}

impl Shared {
    /// The acceptor blocks in `accept`: called after every drain request and
    /// every closed job stream, this wakes it with a connection to its own
    /// socket once the drain is complete ([`JobQueue::is_drained`]).
    fn wake_acceptor_if_drained(&self) {
        if self.queue.is_drained() {
            // Fails only if the acceptor has already exited.
            let _ = UnixStream::connect(&self.socket);
        }
    }

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
        unpoisoned(self.cached.lock()).insert(run_index);
        self.local.run_cached(run_index);
        self.global.run_cached(run_index);
    }

    fn run_violations(&self, run_index: usize, violations: &[mtvar_sim::check::Violation]) {
        unpoisoned(self.violations.lock()).insert(run_index, violations.len() as u64);
        self.local.run_violations(run_index, violations);
        self.global.run_violations(run_index, violations);
    }

    fn run_result(&self, run_index: usize, result: &RunResult) {
        self.job.note_run_done();
        let cached = unpoisoned(self.cached.lock()).contains(&run_index);
        let violations = unpoisoned(self.violations.lock())
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

fn dispatch_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop_blocking() {
        // Each outcome is counted before its terminal frame goes out, so a
        // client that has read the frame sees it in the next `stats`.
        if job.cancel_requested() {
            job.set_state(JobState::Cancelled);
            shared.cancelled.fetch_add(1, Ordering::Relaxed);
            job.send(Response::Cancelled { job: job.id });
            continue;
        }
        job.set_state(JobState::Running);
        job.send(Response::JobStarted { job: job.id });
        let observer = Arc::new(JobObserver::new(
            Arc::clone(&job),
            Arc::clone(&shared.counters),
        ));
        let executor = shared
            .executor
            .clone()
            .with_progress(Arc::clone(&observer) as Arc<dyn RunProgress>);
        // A sweep that panics (a workload or simulator assert on a hostile
        // spec) fails its job instead of killing this dispatcher: a dead
        // dispatcher would leave the job's stream open forever, so its
        // client would wait and the drain would never complete.
        let outcome = match catch_unwind(AssertUnwindSafe(|| job.spec.run(&executor))) {
            Ok(result) => result.map_err(|e| e.to_string()),
            Err(payload) => {
                let what = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("a non-string payload");
                Err(format!("sweep panicked: {what}"))
            }
        };
        match outcome {
            Ok(space) if job.cancel_requested() => {
                // Cancelled mid-run: the sweep finished (its runs are cached,
                // so nothing was wasted) but the job reports cancelled.
                drop(space);
                job.set_state(JobState::Cancelled);
                shared.cancelled.fetch_add(1, Ordering::Relaxed);
                job.send(Response::Cancelled { job: job.id });
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
                shared.completed.fetch_add(1, Ordering::Relaxed);
                job.send(Response::JobDone {
                    job: job.id,
                    digest,
                    runs: space.len() as u64,
                    completed: observer.local.completed() as u64,
                    cached: observer.local.cached() as u64,
                    violations: space.total_violations(),
                    mean_cpt,
                });
            }
            Err(message) => {
                job.set_state(JobState::Failed);
                shared.failed.fetch_add(1, Ordering::Relaxed);
                job.send(Response::JobFailed {
                    job: job.id,
                    message,
                });
            }
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, mut stream: UnixStream) {
    // A failing client write is the client's problem; a malformed request
    // earns a typed BadRequest frame (best-effort) and a closed connection.
    if let Err(ServeError::Protocol(e)) = serve_connection(shared, &mut stream) {
        let _ = write_message(
            &mut stream,
            &Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("malformed request: {e}"),
            },
        );
    }
}

fn serve_connection(shared: &Arc<Shared>, stream: &mut UnixStream) -> crate::Result<()> {
    match read_message(stream)? {
        Request::Submit(spec) => {
            if let Err(what) = spec.validate() {
                write_message(
                    stream,
                    &Response::Error {
                        code: ErrorCode::BadRequest,
                        message: what,
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
                    write_message(stream, &Response::Error { code, message })?;
                }
                Ok(job) => {
                    shared.registry.register(Arc::clone(&job));
                    shared.submitted.fetch_add(1, Ordering::Relaxed);
                    let acked = write_message(stream, &Response::Submitted { job: job.id });
                    // Stream events until the job's terminal frame. If the
                    // client hangs up, the job still runs to completion —
                    // its results land in the shared cache either way.
                    for event in inbox.iter().take_while(|_| acked.is_ok()) {
                        let terminal = matches!(
                            event,
                            Response::JobDone { .. }
                                | Response::JobFailed { .. }
                                | Response::Cancelled { .. }
                        );
                        if write_message(stream, &event).is_err() {
                            break;
                        }
                        if terminal {
                            break;
                        }
                    }
                    // Closed only now, after the terminal frame is written,
                    // so a completed drain never outruns a job's last frame.
                    shared.queue.note_closed();
                    shared.wake_acceptor_if_drained();
                    acked?;
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
            write_message(stream, &reply)?;
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
            write_message(stream, &reply)?;
        }
        Request::Stats => {
            write_message(stream, &Response::StatsReport(shared.stats_snapshot()))?;
        }
        Request::Shutdown => {
            shared.queue.drain();
            shared.wake_acceptor_if_drained();
            write_message(stream, &Response::ShuttingDown)?;
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
            socket: config.socket.clone(),
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

        let accept_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("mtvar-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, dispatchers))
            .expect("spawn accept loop");

        Ok(ServerHandle { shared, thread })
    }
}

fn accept_loop(
    listener: UnixListener,
    shared: Arc<Shared>,
    dispatchers: Vec<std::thread::JoinHandle<()>>,
) {
    for stream in listener.incoming() {
        // A client's connection or the drain's own wake: once the drain is
        // complete, nothing more is served.
        if shared.queue.is_drained() {
            break;
        }
        if let Ok(stream) = stream {
            let shared = Arc::clone(&shared);
            let _ = std::thread::Builder::new()
                .name("mtvar-conn".into())
                .spawn(move || handle_connection(&shared, stream));
        }
    }
    // Drained: admission rejects and every job's stream is closed. Join the
    // dispatchers (one may still finish a job whose client hung up), surface
    // the final accounting, release the socket.
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
    let _ = std::fs::remove_file(&shared.socket);
}

/// A running server. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::shutdown`] (or send a `Shutdown` frame) and then
/// [`ServerHandle::join`].
#[derive(Debug)]
pub struct ServerHandle {
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
        &self.shared.socket
    }

    /// Requests a graceful drain, like a `Shutdown` frame.
    pub fn shutdown(&self) {
        self.shared.queue.drain();
        self.shared.wake_acceptor_if_drained();
    }

    /// Blocks until the accept loop exits (after a drain completes).
    pub fn join(self) {
        let _ = self.thread.join();
    }
}
