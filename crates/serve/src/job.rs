//! The prioritized job queue and job registry.
//!
//! Admission control happens at submit time: a bounded queue depth keeps a
//! flood of sweeps from accumulating unbounded state, and a draining server
//! takes no new work at all — both rejections are *typed*
//! ([`crate::protocol::ErrorCode`]), never silent drops. Admitted jobs wait
//! in one of three priority lanes; dispatchers pop the highest non-empty
//! lane, FIFO within a lane. Cancellation is a per-job flag: a queued job
//! flips to `Cancelled` the moment a dispatcher (or the canceller) sees the
//! flag, while a running job finishes its sweep — the executor's runs are
//! cached, so finishing wastes nothing — and then reports `Cancelled`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError};

use crate::protocol::{JobState, Response, SweepSpec};

/// Takes a lock (or wakes from a condvar wait) even if a thread panicked
/// while holding it. A panic in one connection or dispatcher must not
/// cascade into every later user of the queue, the registry or a job: each
/// critical section guarded this way makes one flag, counter, state or
/// single-container write, so its data is whole at every point where it can
/// panic.
pub(crate) fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Everything the server tracks about one submitted job. Shared between the
/// submitting connection, the dispatcher executing it, and any `status` /
/// `cancel` connection that names it.
#[derive(Debug)]
pub struct JobRecord {
    /// The job's id (unique per server lifetime, ascending).
    pub id: u64,
    /// The sweep to execute.
    pub spec: SweepSpec,
    /// Stream back to the submitting connection. Attached at construction —
    /// before the job is visible to any dispatcher — so no event can race
    /// past a not-yet-registered receiver.
    events: Sender<Response>,
    state: Mutex<JobState>,
    cancel: AtomicBool,
    runs_done: AtomicU64,
    digest: AtomicU64,
    has_digest: AtomicBool,
}

impl JobRecord {
    fn new(id: u64, spec: SweepSpec, events: Sender<Response>) -> Self {
        JobRecord {
            id,
            spec,
            events,
            state: Mutex::new(JobState::Queued),
            cancel: AtomicBool::new(false),
            runs_done: AtomicU64::new(0),
            digest: AtomicU64::new(0),
            has_digest: AtomicBool::new(false),
        }
    }

    /// Streams a response frame toward the submitting client. Best-effort:
    /// a disconnected client just stops listening — the job still runs to
    /// completion (its results land in the shared cache either way).
    pub fn send(&self, response: Response) {
        let _ = self.events.send(response);
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        *unpoisoned(self.state.lock())
    }

    /// Moves the job to `state`.
    pub fn set_state(&self, state: JobState) {
        *unpoisoned(self.state.lock()) = state;
    }

    /// Requests cancellation. Returns `true` if the job had not yet reached
    /// a terminal state (so the request can still take effect).
    pub fn request_cancel(&self) -> bool {
        self.cancel.store(true, Ordering::SeqCst);
        !matches!(
            self.state(),
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// Whether cancellation was requested.
    pub fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    /// Records one finished run (simulated or cached).
    pub fn note_run_done(&self) {
        self.runs_done.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs finished so far.
    pub fn runs_done(&self) -> u64 {
        self.runs_done.load(Ordering::Relaxed)
    }

    /// Stores the job's final folded digest.
    pub fn set_digest(&self, digest: u64) {
        self.digest.store(digest, Ordering::SeqCst);
        self.has_digest.store(true, Ordering::SeqCst);
    }

    /// The final digest, once the job completed.
    pub fn digest(&self) -> Option<u64> {
        if self.has_digest.load(Ordering::SeqCst) {
            Some(self.digest.load(Ordering::SeqCst))
        } else {
            None
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The queue is at its depth limit.
    QueueFull,
    /// The server is draining for shutdown.
    Draining,
}

#[derive(Debug, Default)]
struct QueueInner {
    lanes: [VecDeque<Arc<JobRecord>>; 3],
    draining: bool,
    /// Admitted jobs whose submitting connection has not closed its stream
    /// — a drained shutdown waits for zero.
    open: usize,
}

impl QueueInner {
    fn depth(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }
}

/// The three-lane priority queue with admission control.
///
/// All operations take an internal lock; `pop_blocking` parks on a condvar
/// until work arrives or the queue is told to drain dry.
#[derive(Debug)]
pub struct JobQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    limit: usize,
    next_id: AtomicU64,
}

impl JobQueue {
    /// A queue admitting at most `limit` queued jobs (clamped to >= 1).
    pub fn new(limit: usize) -> Self {
        JobQueue {
            inner: Mutex::new(QueueInner::default()),
            ready: Condvar::new(),
            limit: limit.max(1),
            next_id: AtomicU64::new(1),
        }
    }

    /// Admits `spec` into its priority lane, or rejects it with a typed
    /// reason. `events` is the submitting connection's response stream,
    /// attached before the job is visible to dispatchers.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Draining`] once [`JobQueue::drain`] was called;
    /// [`AdmissionError::QueueFull`] at the depth limit.
    pub fn submit(
        &self,
        spec: SweepSpec,
        events: Sender<Response>,
    ) -> std::result::Result<Arc<JobRecord>, AdmissionError> {
        let mut inner = unpoisoned(self.inner.lock());
        if inner.draining {
            return Err(AdmissionError::Draining);
        }
        if inner.depth() >= self.limit {
            return Err(AdmissionError::QueueFull);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let lane = spec.priority.lane();
        let record = Arc::new(JobRecord::new(id, spec, events));
        inner.lanes[lane].push_back(Arc::clone(&record));
        inner.open += 1;
        drop(inner);
        self.ready.notify_one();
        Ok(record)
    }

    /// Pops the next job: highest non-empty lane, FIFO within it. Blocks
    /// until work arrives; returns `None` once the queue is draining *and*
    /// empty (the dispatcher's signal to exit). The popped job may already
    /// carry a cancellation request — the dispatcher checks the flag and
    /// reports `Cancelled` without executing the sweep.
    pub fn pop_blocking(&self) -> Option<Arc<JobRecord>> {
        let mut inner = unpoisoned(self.inner.lock());
        loop {
            let next = inner.lanes.iter_mut().find_map(|lane| lane.pop_front());
            match next {
                Some(job) => return Some(job),
                None if inner.draining => return None,
                None => {
                    inner = unpoisoned(self.ready.wait(inner));
                }
            }
        }
    }

    /// Marks an admitted job's stream closed: its terminal frame is
    /// written, or its client is gone. Pairs with [`JobQueue::submit`].
    pub fn note_closed(&self) {
        let mut inner = unpoisoned(self.inner.lock());
        inner.open = inner.open.saturating_sub(1);
    }

    /// Switches to draining: new submissions are rejected, queued jobs still
    /// execute, and dispatchers exit once the lanes are dry.
    pub fn drain(&self) {
        unpoisoned(self.inner.lock()).draining = true;
        self.ready.notify_all();
    }

    /// Whether the queue is draining.
    pub fn is_draining(&self) -> bool {
        unpoisoned(self.inner.lock()).draining
    }

    /// Jobs currently queued (not counting the one a dispatcher holds).
    pub fn depth(&self) -> usize {
        unpoisoned(self.inner.lock()).depth()
    }

    /// Whether the drain is complete: draining, and every admitted job's
    /// stream closed (nothing queued, no terminal frame unwritten). Once
    /// true it stays true: a draining queue admits nothing.
    pub fn is_drained(&self) -> bool {
        let inner = unpoisoned(self.inner.lock());
        inner.draining && inner.open == 0
    }
}

/// The id → record map behind `status` and `cancel` queries.
#[derive(Debug, Default)]
pub struct JobRegistry {
    jobs: Mutex<std::collections::HashMap<u64, Arc<JobRecord>>>,
}

impl JobRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        JobRegistry::default()
    }

    /// Registers a job under its id.
    pub fn register(&self, job: Arc<JobRecord>) {
        unpoisoned(self.jobs.lock()).insert(job.id, job);
    }

    /// Looks a job up by id.
    pub fn get(&self, id: u64) -> Option<Arc<JobRecord>> {
        unpoisoned(self.jobs.lock()).get(&id).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ConfigSpec, PlanSpec, Priority, WorkloadSpec};

    fn spec(priority: Priority) -> SweepSpec {
        SweepSpec {
            config: ConfigSpec::hpca2003(),
            workload: WorkloadSpec::Sharing {
                threads: 4,
                seed: 1,
                ops_per_txn: 10,
                footprint_blocks: 64,
                lock_every: 5,
            },
            plan: PlanSpec {
                runs: 2,
                transactions: 10,
                warmup: 0,
                base_seed: 0,
                shared_warmup: true,
            },
            priority,
        }
    }

    fn sink() -> Sender<Response> {
        std::sync::mpsc::channel().0
    }

    #[test]
    fn priorities_drain_high_first_fifo_within_lane() {
        let q = JobQueue::new(16);
        let low = q.submit(spec(Priority::Low), sink()).unwrap();
        let norm1 = q.submit(spec(Priority::Normal), sink()).unwrap();
        let high = q.submit(spec(Priority::High), sink()).unwrap();
        let norm2 = q.submit(spec(Priority::Normal), sink()).unwrap();
        let order: Vec<u64> = (0..4).map(|_| q.pop_blocking().unwrap().id).collect();
        assert_eq!(order, vec![high.id, norm1.id, norm2.id, low.id]);
    }

    #[test]
    fn admission_rejects_over_limit_and_draining() {
        let q = JobQueue::new(2);
        q.submit(spec(Priority::Normal), sink()).unwrap();
        q.submit(spec(Priority::Normal), sink()).unwrap();
        assert_eq!(
            q.submit(spec(Priority::Normal), sink()).unwrap_err(),
            AdmissionError::QueueFull
        );
        q.drain();
        assert_eq!(
            q.submit(spec(Priority::High), sink()).unwrap_err(),
            AdmissionError::Draining
        );
        // Queued jobs still pop during the drain; then the queue reports
        // exhaustion instead of blocking.
        assert!(q.pop_blocking().is_some());
        q.note_closed();
        assert!(q.pop_blocking().is_some());
        assert!(!q.is_drained(), "a job's stream is still open");
        q.note_closed();
        assert!(q.pop_blocking().is_none());
        assert!(q.is_drained());
    }

    #[test]
    fn cancellation_flag_survives_the_queue() {
        let q = JobQueue::new(8);
        let a = q.submit(spec(Priority::Normal), sink()).unwrap();
        let b = q.submit(spec(Priority::Normal), sink()).unwrap();
        assert!(a.request_cancel());
        q.drain();
        // The dispatcher sees the flag on the popped record and reports
        // Cancelled instead of executing.
        let popped = q.pop_blocking().unwrap();
        assert_eq!(popped.id, a.id);
        assert!(popped.cancel_requested());
        popped.set_state(JobState::Cancelled);
        q.note_closed();
        assert!(
            !a.request_cancel(),
            "re-cancelling a terminal job reports no effect"
        );
        let popped = q.pop_blocking().unwrap();
        assert_eq!(popped.id, b.id);
        assert!(!popped.cancel_requested());
        q.note_closed();
        assert!(q.pop_blocking().is_none());
    }

    #[test]
    fn record_tracks_progress_and_digest() {
        let q = JobQueue::new(2);
        let (tx, rx) = std::sync::mpsc::channel();
        let job = q.submit(spec(Priority::Normal), tx).unwrap();
        assert_eq!(job.state(), JobState::Queued);
        assert_eq!(job.digest(), None);
        job.note_run_done();
        job.note_run_done();
        assert_eq!(job.runs_done(), 2);
        job.set_digest(0xFEED);
        assert_eq!(job.digest(), Some(0xFEED));
        job.send(Response::JobStarted { job: job.id });
        assert_eq!(rx.try_recv().unwrap(), Response::JobStarted { job: job.id });
        drop(rx);
        job.send(Response::Cancelled { job: job.id }); // must not panic
        let reg = JobRegistry::new();
        reg.register(Arc::clone(&job));
        assert_eq!(reg.get(job.id).unwrap().id, job.id);
        assert!(reg.get(9999).is_none());
    }

    #[test]
    fn a_panic_holding_the_queue_lock_does_not_poison_the_queue() {
        let q = Arc::new(JobQueue::new(4));
        let first = q.submit(spec(Priority::Normal), sink()).unwrap();
        let q2 = Arc::clone(&q);
        let panicked = std::thread::spawn(move || {
            let _held = q2.inner.lock().unwrap();
            panic!("dies holding the queue lock");
        })
        .join();
        assert!(panicked.is_err() && q.inner.is_poisoned());

        let second = q.submit(spec(Priority::High), sink()).unwrap();
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop_blocking().unwrap().id, second.id);
        assert_eq!(q.pop_blocking().unwrap().id, first.id);
        // A dispatcher parked on the condvar wakes through the poison too.
        let q3 = Arc::clone(&q);
        let parked = std::thread::spawn(move || q3.pop_blocking().map(|j| j.id));
        std::thread::sleep(std::time::Duration::from_millis(20));
        let third = q.submit(spec(Priority::Low), sink()).unwrap();
        assert_eq!(parked.join().unwrap(), Some(third.id));
        q.drain();
        assert!(q.is_draining() && q.pop_blocking().is_none());
        for _ in 0..3 {
            q.note_closed();
        }
        assert!(q.is_drained() && q.depth() == 0);
    }

    #[test]
    fn pop_blocks_until_submit() {
        let q = Arc::new(JobQueue::new(4));
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || q2.pop_blocking().map(|j| j.id));
        std::thread::sleep(std::time::Duration::from_millis(20));
        let job = q.submit(spec(Priority::Normal), sink()).unwrap();
        assert_eq!(handle.join().unwrap(), Some(job.id));
    }
}
