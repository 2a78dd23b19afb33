//! The operating-system thread scheduler model.
//!
//! Scheduling decisions are pure functions of *simulated time* — quantum
//! expiry, wakeup order, ready-queue contents — so the tiny timing
//! perturbations of §3.3 cascade into different thread interleavings, exactly
//! the §2.1 causes the paper identifies ("a scheduling quantum may end before
//! an event in one run, but not another"). The dispatch log reproduces
//! Figure 1.

use std::collections::VecDeque;

use crate::ids::{CpuId, Cycle, LockId, Nanos, ThreadId};
use crate::SimError;

/// Scheduler tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Time-slice length (ns). Solaris' time-share class uses 20–200 ms;
    /// scaled down so scheduling stays active in short simulations.
    pub quantum_ns: Nanos,
    /// Direct cost of a context switch (ns); cache pollution costs emerge
    /// from the cache model on their own.
    pub context_switch_ns: Nanos,
    /// How long a thread spins on a contended lock before blocking (ns).
    pub lock_spin_ns: Nanos,
    /// Latency from unlock/IO-completion to the woken thread being
    /// dispatchable (ns).
    pub wakeup_ns: Nanos,
    /// How deep into the ready queue the dispatcher searches for a thread
    /// with affinity to the idle CPU.
    pub affinity_window: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            quantum_ns: 50_000,
            context_switch_ns: 1_500,
            lock_spin_ns: 600,
            wakeup_ns: 800,
            affinity_window: 4,
        }
    }
}

impl SchedConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the quantum is zero.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.quantum_ns == 0 {
            return Err(SimError::InvalidConfig {
                what: "scheduler quantum must be > 0".into(),
            });
        }
        Ok(())
    }
}

/// Lifecycle state of a simulated thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Runnable, waiting in the ready queue.
    Ready,
    /// Executing on the given CPU.
    Running(CpuId),
    /// Blocked on a lock's wait queue.
    Blocked(LockId),
    /// Sleeping until an I/O completion wakes it.
    Sleeping,
}

/// What a scheduling-log entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEventKind {
    /// Thread dispatched onto a CPU.
    Dispatch,
    /// Thread preempted at quantum expiry.
    Preempt,
    /// Thread blocked on a contended lock.
    BlockLock(LockId),
    /// Thread went to sleep on I/O.
    Sleep,
    /// Thread woke and re-entered the ready queue.
    Wake,
    /// Thread voluntarily yielded.
    Yield,
}

/// One scheduling event (a point in Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedEvent {
    /// When it happened.
    pub cycle: Cycle,
    /// CPU involved.
    pub cpu: CpuId,
    /// Thread involved.
    pub thread: ThreadId,
    /// What happened.
    pub kind: SchedEventKind,
}

/// Scheduler counters for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Threads dispatched onto CPUs.
    pub dispatches: u64,
    /// Quantum-expiry preemptions.
    pub preemptions: u64,
    /// Dispatches onto a CPU different from the thread's previous one.
    pub migrations: u64,
    /// Voluntary yields.
    pub yields: u64,
}

/// Per-thread scheduler bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ThreadRecord {
    state: ThreadState,
    last_cpu: Option<CpuId>,
    quantum_end: Cycle,
    /// Whether the thread still has a warm-cache affinity claim on
    /// `last_cpu`. Set when it blocks or sleeps (it will resume soon with a
    /// warm cache); cleared on preemption/yield so round-robin stays fair
    /// and preempted threads cannot ping-pong with the dispatcher.
    affine: bool,
}

/// The scheduler: a global ready queue with round-robin dispatch, soft CPU
/// affinity and quantum-based preemption.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduler {
    config: SchedConfig,
    threads: Vec<ThreadRecord>,
    ready: VecDeque<ThreadId>,
    /// The thread each CPU most recently dispatched — never re-picked via
    /// affinity, so a quantum expiry really hands the CPU to someone else.
    last_thread: Vec<Option<ThreadId>>,
    log: Vec<SchedEvent>,
    log_enabled: bool,
    stats: SchedStats,
}

impl Scheduler {
    /// Creates a scheduler managing `thread_count` threads on `cpu_count`
    /// CPUs, all threads initially ready in index order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the config is invalid or
    /// either count is zero.
    pub fn new(
        config: SchedConfig,
        thread_count: usize,
        cpu_count: usize,
    ) -> Result<Self, SimError> {
        config.validate()?;
        if thread_count == 0 || cpu_count == 0 {
            return Err(SimError::InvalidConfig {
                what: "scheduler needs at least one thread and one CPU".into(),
            });
        }
        Ok(Scheduler {
            config,
            threads: vec![
                ThreadRecord {
                    state: ThreadState::Ready,
                    last_cpu: None,
                    quantum_end: 0,
                    affine: false,
                };
                thread_count
            ],
            ready: (0..thread_count as u32).map(ThreadId).collect(),
            last_thread: vec![None; cpu_count],
            log: Vec::new(),
            log_enabled: false,
            stats: SchedStats::default(),
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &SchedConfig {
        &self.config
    }

    /// Enables or disables the Figure-1 scheduling log.
    pub fn set_log_enabled(&mut self, enabled: bool) {
        self.log_enabled = enabled;
    }

    /// The recorded scheduling events.
    pub fn log(&self) -> &[SchedEvent] {
        &self.log
    }

    /// Drains the recorded events, returning them.
    pub fn take_log(&mut self) -> Vec<SchedEvent> {
        std::mem::take(&mut self.log)
    }

    /// Scheduler counters.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// Resets counters and log (end of warmup).
    pub fn reset_stats(&mut self) {
        self.stats = SchedStats::default();
        self.log.clear();
    }

    /// Current state of `thread`.
    pub fn thread_state(&self, thread: ThreadId) -> ThreadState {
        self.threads[thread.index()].state
    }

    /// Number of threads the scheduler manages.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Test hook: forcibly records `thread` as Running on `cpu`, bypassing
    /// every scheduling rule and leaving the ready queue untouched. Exists
    /// solely so the fault-injection test suites can plant a
    /// scheduling-invariant violation mid-run; never call it from real
    /// scheduling paths.
    #[doc(hidden)]
    pub fn force_running(&mut self, thread: ThreadId, cpu: CpuId) {
        self.threads[thread.index()].state = ThreadState::Running(cpu);
    }

    /// Whether any thread is waiting to run.
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Number of ready threads.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    fn record(&mut self, cycle: Cycle, cpu: CpuId, thread: ThreadId, kind: SchedEventKind) {
        if self.log_enabled {
            self.log.push(SchedEvent {
                cycle,
                cpu,
                thread,
                kind,
            });
        }
    }

    /// Picks the next thread for an idle `cpu` at `now`, preferring an
    /// affine thread within the configured window; marks it Running and
    /// starts its quantum. Returns `None` if no thread is ready.
    pub fn dispatch(&mut self, cpu: CpuId, now: Cycle) -> Option<ThreadId> {
        if self.ready.is_empty() {
            return None;
        }
        // Soft affinity: scan the first few ready threads for one that last
        // ran here with a live warm-cache claim — but never the thread this
        // CPU just ran, or quantum expiry would be a no-op.
        let mut chosen_idx = 0usize;
        for (i, &t) in self
            .ready
            .iter()
            .take(self.config.affinity_window.max(1))
            .enumerate()
        {
            let rec = &self.threads[t.index()];
            if rec.affine && rec.last_cpu == Some(cpu) && self.last_thread[cpu.index()] != Some(t) {
                chosen_idx = i;
                break;
            }
        }
        let thread = self
            .ready
            .remove(chosen_idx)
            .expect("index within ready queue");
        let rec = &mut self.threads[thread.index()];
        if rec.last_cpu.is_some_and(|c| c != cpu) {
            self.stats.migrations += 1;
        }
        rec.state = ThreadState::Running(cpu);
        rec.last_cpu = Some(cpu);
        rec.affine = false;
        rec.quantum_end = now + self.config.quantum_ns;
        self.last_thread[cpu.index()] = Some(thread);
        self.stats.dispatches += 1;
        self.record(now, cpu, thread, SchedEventKind::Dispatch);
        Some(thread)
    }

    /// Whether `thread`'s quantum has expired at `now`.
    pub fn quantum_expired(&self, thread: ThreadId, now: Cycle) -> bool {
        now >= self.threads[thread.index()].quantum_end
    }

    /// Restarts `thread`'s quantum at `now` (used when it would be preempted
    /// but no other thread wants the CPU).
    pub fn renew_quantum(&mut self, thread: ThreadId, now: Cycle) {
        self.threads[thread.index()].quantum_end = now + self.config.quantum_ns;
    }

    /// Preempts `thread` off `cpu` at quantum expiry; it rejoins the ready
    /// queue at the back.
    pub fn preempt(&mut self, thread: ThreadId, cpu: CpuId, now: Cycle) {
        self.threads[thread.index()].state = ThreadState::Ready;
        self.ready.push_back(thread);
        self.stats.preemptions += 1;
        self.record(now, cpu, thread, SchedEventKind::Preempt);
    }

    /// Voluntary yield: back of the ready queue.
    pub fn yield_thread(&mut self, thread: ThreadId, cpu: CpuId, now: Cycle) {
        self.threads[thread.index()].state = ThreadState::Ready;
        self.ready.push_back(thread);
        self.stats.yields += 1;
        self.record(now, cpu, thread, SchedEventKind::Yield);
    }

    /// Blocks `thread` on `lock`'s wait queue; it keeps an affinity claim on
    /// its CPU for when it wakes.
    pub fn block_on_lock(&mut self, thread: ThreadId, lock: LockId, cpu: CpuId, now: Cycle) {
        let rec = &mut self.threads[thread.index()];
        rec.state = ThreadState::Blocked(lock);
        rec.affine = true;
        self.record(now, cpu, thread, SchedEventKind::BlockLock(lock));
    }

    /// Puts `thread` to sleep (I/O wait); it keeps an affinity claim on its
    /// CPU for when it wakes.
    pub fn sleep(&mut self, thread: ThreadId, cpu: CpuId, now: Cycle) {
        let rec = &mut self.threads[thread.index()];
        rec.state = ThreadState::Sleeping;
        rec.affine = true;
        self.record(now, cpu, thread, SchedEventKind::Sleep);
    }

    /// Wakes `thread` into the ready queue (lock handoff or I/O completion).
    ///
    /// # Panics
    ///
    /// Panics if the thread is currently Running — that would be a machine
    /// bug.
    pub fn wake(&mut self, thread: ThreadId, now: Cycle) {
        let rec = &mut self.threads[thread.index()];
        assert!(
            !matches!(rec.state, ThreadState::Running(_)),
            "waking a running thread"
        );
        rec.state = ThreadState::Ready;
        self.ready.push_back(thread);
        let cpu = rec.last_cpu.unwrap_or(CpuId(0));
        self.record(now, cpu, thread, SchedEventKind::Wake);
    }
}

crate::impl_snap!(enum ThreadState {
    0 => Ready,
    1 => Running(cpu),
    2 => Blocked(lock),
    3 => Sleeping,
});
crate::impl_snap!(enum SchedEventKind {
    0 => Dispatch,
    1 => Preempt,
    2 => BlockLock(lock),
    3 => Sleep,
    4 => Wake,
    5 => Yield,
});
crate::impl_snap!(SchedConfig {
    quantum_ns,
    context_switch_ns,
    lock_spin_ns,
    wakeup_ns,
    affinity_window,
});
crate::impl_snap!(SchedEvent {
    cycle,
    cpu,
    thread,
    kind,
});
crate::impl_snap!(SchedStats {
    dispatches,
    preemptions,
    migrations,
    yields,
});
crate::impl_snap!(ThreadRecord {
    state,
    last_cpu,
    quantum_end,
    affine,
});
crate::impl_snap!(Scheduler {
    config,
    threads,
    ready,
    last_thread,
    log,
    log_enabled,
    stats,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(threads: usize) -> Scheduler {
        Scheduler::new(SchedConfig::default(), threads, 4).unwrap()
    }

    #[test]
    fn initial_threads_ready_in_order() {
        let mut s = sched(3);
        assert_eq!(s.ready_len(), 3);
        assert_eq!(s.dispatch(CpuId(0), 0), Some(ThreadId(0)));
        assert_eq!(s.dispatch(CpuId(1), 0), Some(ThreadId(1)));
        assert_eq!(s.thread_state(ThreadId(0)), ThreadState::Running(CpuId(0)));
        assert_eq!(s.thread_state(ThreadId(2)), ThreadState::Ready);
    }

    #[test]
    fn dispatch_empty_returns_none() {
        let mut s = sched(1);
        assert!(s.dispatch(CpuId(0), 0).is_some());
        assert_eq!(s.dispatch(CpuId(1), 0), None);
    }

    #[test]
    fn quantum_expiry_and_renewal() {
        let mut s = sched(2);
        let t = s.dispatch(CpuId(0), 100).unwrap();
        let q = s.config().quantum_ns;
        assert!(!s.quantum_expired(t, 100 + q - 1));
        assert!(s.quantum_expired(t, 100 + q));
        s.renew_quantum(t, 100 + q);
        assert!(!s.quantum_expired(t, 100 + q + 1));
    }

    #[test]
    fn preempt_requeues_at_back() {
        let mut s = sched(3);
        let t0 = s.dispatch(CpuId(0), 0).unwrap();
        s.preempt(t0, CpuId(0), 1000);
        // Queue now: t1, t2, t0.
        assert_eq!(s.dispatch(CpuId(0), 1000), Some(ThreadId(1)));
        assert_eq!(s.dispatch(CpuId(0), 1000), Some(ThreadId(2)));
        assert_eq!(s.dispatch(CpuId(0), 1000), Some(ThreadId(0)));
        assert_eq!(s.stats().preemptions, 1);
    }

    #[test]
    fn affinity_prefers_woken_thread_on_its_cpu() {
        let mut s = sched(3);
        // t0 runs on cpu1, blocks on a lock (keeps affinity), t1 runs next
        // on cpu1 and also blocks. Then t0 wakes.
        let t0 = s.dispatch(CpuId(1), 0).unwrap();
        s.block_on_lock(t0, LockId(0), CpuId(1), 10);
        let t1 = s.dispatch(CpuId(1), 10).unwrap();
        assert_eq!(t1, ThreadId(1));
        s.block_on_lock(t1, LockId(0), CpuId(1), 20);
        s.wake(t0, 30);
        // Ready queue: t2, t0 — but t0 has a warm-cache claim on cpu1 and is
        // not the thread cpu1 just ran, so cpu1 skips ahead to it.
        assert_eq!(s.dispatch(CpuId(1), 40), Some(ThreadId(0)));
        // A fresh CPU takes the queue head.
        assert_eq!(s.dispatch(CpuId(0), 40), Some(ThreadId(2)));
    }

    #[test]
    fn preempted_thread_loses_affinity_claim() {
        let mut s = sched(3);
        let t0 = s.dispatch(CpuId(0), 0).unwrap();
        s.preempt(t0, CpuId(0), 10);
        // Round-robin order holds: the preempted thread waits its turn.
        assert_eq!(s.dispatch(CpuId(0), 20), Some(ThreadId(1)));
    }

    #[test]
    fn migrations_counted() {
        let mut s = sched(1);
        let t = s.dispatch(CpuId(0), 0).unwrap();
        s.preempt(t, CpuId(0), 10);
        // Force a different CPU to pick it up (affinity window can't save it
        // — it's the only thread but CPU differs).
        s.dispatch(CpuId(3), 20).unwrap();
        assert_eq!(s.stats().migrations, 1);
    }

    #[test]
    fn block_and_wake_cycle() {
        let mut s = sched(2);
        let t = s.dispatch(CpuId(0), 0).unwrap();
        s.block_on_lock(t, LockId(5), CpuId(0), 50);
        assert_eq!(s.thread_state(t), ThreadState::Blocked(LockId(5)));
        s.wake(t, 500);
        assert_eq!(s.thread_state(t), ThreadState::Ready);
        // It is at the back of the queue, behind t1.
        assert_eq!(s.dispatch(CpuId(0), 500), Some(ThreadId(1)));
        assert_eq!(s.dispatch(CpuId(1), 500), Some(t));
    }

    #[test]
    fn log_records_when_enabled() {
        let mut s = sched(2);
        s.set_log_enabled(true);
        let t = s.dispatch(CpuId(0), 0).unwrap();
        s.preempt(t, CpuId(0), 100);
        assert_eq!(s.log().len(), 2);
        assert_eq!(s.log()[0].kind, SchedEventKind::Dispatch);
        assert_eq!(s.log()[1].kind, SchedEventKind::Preempt);
        let taken = s.take_log();
        assert_eq!(taken.len(), 2);
        assert!(s.log().is_empty());
    }

    #[test]
    fn log_silent_when_disabled() {
        let mut s = sched(2);
        let t = s.dispatch(CpuId(0), 0).unwrap();
        s.preempt(t, CpuId(0), 100);
        assert!(s.log().is_empty());
    }

    #[test]
    fn validation() {
        let bad = SchedConfig {
            quantum_ns: 0,
            ..SchedConfig::default()
        };
        assert!(Scheduler::new(bad, 2, 2).is_err());
        assert!(Scheduler::new(SchedConfig::default(), 0, 2).is_err());
        assert!(Scheduler::new(SchedConfig::default(), 2, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "waking a running thread")]
    fn waking_running_thread_panics() {
        let mut s = sched(1);
        let t = s.dispatch(CpuId(0), 0).unwrap();
        s.wake(t, 10);
    }
}
