//! The full-system machine: a conservative discrete-event engine tying
//! together processors, the coherent memory system, the OS scheduler, locks
//! and the workload.
//!
//! Events are processed in `(time, sequence)` order, so execution is a total
//! order over CPU steps — deterministic for a given `(config, workload)`
//! pair, exactly like the paper's simulator (§3.3: "our simulator is
//! deterministic: it produces the same execution path for each
//! workload/system configuration every time"). Variability enters only
//! through the configured perturbation or noise seeds.

use crate::check::{InvariantMonitor, Violation};
use crate::checkpoint::{Checkpoint, CheckpointError, Decoder, Encoder, Snap};
use crate::config::{FaultKind, MachineConfig};
use crate::equeue::EventQueue;
use crate::ids::{BlockAddr, CpuId, Cycle, Nanos, ThreadId};
use crate::mem::{MemorySystem, Perturbation};
use crate::noise::NoiseState;
use crate::ops::{AccessKind, Op};
use crate::proc::{ProcCore, ProcStats, SYNC_OP_COST_NS};
use crate::sched::Scheduler;
use crate::stats::RunResult;
use crate::sync::{AcquireOutcome, LockTable};
use crate::workload::Workload;
use crate::SimError;

/// A scheduled simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: Cycle,
    seq: u64,
    kind: EventKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// The CPU finished its previous step and can take another.
    CpuReady(CpuId),
    /// A sleeping/blocked thread becomes runnable.
    ThreadWake(ThreadId),
}

impl crate::equeue::Timed for Event {
    fn time(&self) -> u64 {
        self.time
    }
}

/// Per-CPU execution state.
#[derive(Debug, Clone, PartialEq)]
struct Cpu {
    core: ProcCore,
    thread: Option<ThreadId>,
    /// True when the CPU went to sleep with nothing to run; a thread wake
    /// must kick it.
    idle: bool,
    busy_ns: u64,
}

/// The simulated machine, generic over the workload it runs.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), mtvar_sim::SimError> {
/// use mtvar_sim::config::MachineConfig;
/// use mtvar_sim::machine::Machine;
/// use mtvar_sim::workload::UniformWorkload;
///
/// let cfg = MachineConfig::hpca2003().with_cpus(4);
/// let mut machine = Machine::new(cfg, UniformWorkload::new(8, 50, 20))?;
/// let result = machine.run_transactions(100)?;
/// assert_eq!(result.transactions, 100);
/// assert!(result.cycles_per_transaction() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Machine<W> {
    config: MachineConfig,
    now: Cycle,
    seq: u64,
    events: EventQueue<Event>,
    cpus: Vec<Cpu>,
    mem: MemorySystem,
    sched: Scheduler,
    locks: LockTable,
    noise: Option<NoiseState>,
    /// Read-only invariant checker; present when `config.check_invariants`
    /// is set.
    monitor: Option<InvariantMonitor>,
    workload: W,
    committed: u64,
    commit_log: Vec<Cycle>,
    measure_start: Cycle,
    measure_committed_base: u64,
    /// CPUs currently parked idle; lets `kick_idle_cpu` skip its slot scan
    /// in the common all-busy case. Derived (never serialized).
    idle_cpus: usize,
    /// Reusable buffer for `check_schedule`'s CPU-slot snapshot — working
    /// memory only, never serialized, so monitored machines stay
    /// allocation-free between violations.
    slot_scratch: Vec<Option<ThreadId>>,
}

impl<W: Workload> Machine<W> {
    /// Builds a machine and places every workload thread in the ready queue.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration is
    /// inconsistent or the workload declares zero threads.
    pub fn new(config: MachineConfig, workload: W) -> Result<Self, SimError> {
        config.validate()?;
        let threads = workload.thread_count();
        if threads == 0 {
            return Err(SimError::InvalidConfig {
                what: "workload must declare at least one thread".into(),
            });
        }
        let mem = MemorySystem::new(
            config.memory,
            config.cpus,
            Perturbation::new(config.perturbation_max_ns, config.perturbation_seed),
        )?;
        let mut sched = Scheduler::new(config.sched, threads, config.cpus)?;
        sched.set_log_enabled(config.record_sched_events);
        let noise = match &config.noise {
            Some(n) => Some(NoiseState::new(*n, config.cpus)?),
            None => None,
        };
        let cpus = (0..config.cpus)
            .map(|_| Cpu {
                core: ProcCore::new(&config.processor),
                thread: None,
                idle: false,
                busy_ns: 0,
            })
            .collect();
        let monitor = config
            .check_invariants
            .then(|| InvariantMonitor::new(config.memory.protocol));
        let mut machine = Machine {
            config,
            now: 0,
            seq: 0,
            events: EventQueue::new(0),
            cpus,
            mem,
            sched,
            locks: LockTable::new(threads),
            noise,
            monitor,
            workload,
            committed: 0,
            commit_log: Vec::new(),
            measure_start: 0,
            measure_committed_base: 0,
            idle_cpus: 0,
            slot_scratch: Vec::new(),
        };
        for i in 0..machine.config.cpus {
            machine.post(0, EventKind::CpuReady(CpuId(i as u32)));
        }
        Ok(machine)
    }

    /// The configuration in force.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Transactions committed since construction.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Total events posted since construction (the kernel's sequence
    /// counter). The delta across an interval divided by wall time is the
    /// simulator's events/second — the scaling currency for how many
    /// perturbed runs a methodology user can afford.
    pub fn events_posted(&self) -> u64 {
        self.seq
    }

    /// Immutable access to the workload (e.g. to inspect generator state).
    pub fn workload(&self) -> &W {
        &self.workload
    }

    /// Immutable access to the memory system (stats, invariant checks).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Immutable access to the scheduler (log, stats).
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// The invariant monitor, when one is enabled (via
    /// [`MachineConfig::check_invariants`] or
    /// [`Machine::enable_invariant_checks`]).
    pub fn invariant_monitor(&self) -> Option<&InvariantMonitor> {
        self.monitor.as_ref()
    }

    /// Invariant violations recorded so far; empty when monitoring is
    /// disabled or nothing is wrong.
    pub fn invariant_violations(&self) -> &[Violation] {
        self.monitor.as_ref().map_or(&[], |m| m.violations())
    }

    /// Drains and returns the stored invariant-violation reports (empty when
    /// monitoring is disabled or nothing fired). The monitor's uncapped
    /// total-violations counter is untouched, so
    /// [`InvariantMonitor::is_clean`] keeps reporting whether anything was
    /// ever detected. This is how the parallel run-space executor pulls each
    /// run's findings out of its machine and into the violations channel.
    pub fn take_invariant_violations(&mut self) -> Vec<Violation> {
        self.monitor
            .as_mut()
            .map_or_else(Vec::new, InvariantMonitor::take_violations)
    }

    /// Turns on invariant checking for the rest of this machine's life,
    /// creating a monitor if none exists yet. Used by strict executors on
    /// restored checkpoints, whose configuration (and hence fingerprint) must
    /// stay untouched until after seed derivation.
    ///
    /// Call between measurement intervals: a monitor created mid-interval
    /// would see only part of the interval's memory traffic and could report
    /// a false Conservation violation. The executor satisfies this because
    /// every measurement starts with [`Machine::run_transactions`], which
    /// resets both memory stats and the monitor's interval counters.
    pub fn enable_invariant_checks(&mut self) {
        self.config.check_invariants = true;
        if self.monitor.is_none() {
            self.monitor = Some(InvariantMonitor::new(self.config.memory.protocol));
        }
    }

    /// Reconfigures the §3.3 perturbation in place — magnitude and seed —
    /// leaving everything else untouched: "runs starting from the same
    /// initial conditions" (§2.1) are [`Machine::fork`]s that differ only in
    /// this call. The shared-warmup executor uses it on forks of a restored
    /// snapshot: warmup ran unperturbed, and each run's perturbation stream
    /// starts here, at measurement start.
    pub fn set_perturbation(&mut self, max_ns: Nanos, seed: u64) {
        self.config.perturbation_max_ns = max_ns;
        self.config.perturbation_seed = seed;
        self.mem.set_perturbation(Perturbation::new(max_ns, seed));
    }

    fn post(&mut self, time: Cycle, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Event { time, seq, kind });
    }

    /// Resets all counters and the commit log; the next
    /// [`Machine::run_transactions`] measures from here. Typically called
    /// implicitly — `run_transactions` begins a fresh measurement interval.
    fn begin_measurement(&mut self) {
        self.measure_start = self.now;
        self.measure_committed_base = self.committed;
        self.commit_log.clear();
        self.mem.reset_stats();
        self.sched.reset_stats();
        self.locks.reset_stats();
        for cpu in &mut self.cpus {
            cpu.core.reset_stats();
            cpu.busy_ns = 0;
        }
        if let Some(mon) = &mut self.monitor {
            mon.begin_interval();
        }
    }

    /// Resets measurement counters and the commit log without simulating —
    /// exactly the implicit reset at the start of
    /// [`Machine::run_transactions`]. Warm-up producers call this before
    /// [`Machine::snapshot`] so snapshot bytes (hence content fingerprints)
    /// are a pure function of architectural state, not of how many
    /// `run_transactions` calls produced it: a straight 30-transaction
    /// warmup and a 10 + 20 split leave byte-identical machines only after
    /// this normalization, because each call's reset stamps the counters
    /// with its own interval.
    pub fn normalize_measurement(&mut self) {
        self.begin_measurement();
    }

    /// Runs until `n` more transactions commit and returns the measurement.
    ///
    /// Counters are reset at the start, so the result covers exactly this
    /// interval; cache/predictor warmth carries over from earlier intervals
    /// (use a warmup call first, as the paper does with its 10,000-transaction
    /// database warmup).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the event queue drains before `n`
    /// transactions commit (all threads blocked).
    pub fn run_transactions(&mut self, n: u64) -> Result<RunResult, SimError> {
        self.begin_measurement();
        let target = self.committed + n;
        while self.committed < target {
            let Some(ev) = self.events.pop() else {
                return Err(SimError::Deadlock {
                    at_cycle: self.now,
                    committed: self.committed - self.measure_committed_base,
                });
            };
            debug_assert!(ev.time >= self.now, "time must be monotonic");
            self.now = ev.time;
            if let Some(mon) = &mut self.monitor {
                mon.observe_event(ev.time);
            }
            match ev.kind {
                EventKind::CpuReady(cpu) => self.step_cpu(cpu),
                EventKind::ThreadWake(thread) => {
                    self.sched.wake(thread, self.now);
                    self.kick_idle_cpu();
                }
            }
        }
        Ok(self.finish_measurement())
    }

    /// Runs for a fixed span of simulated time and returns the measurement —
    /// the view of the §2.2 real-machine experiments, where observation
    /// windows are wall-clock intervals rather than transaction counts.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the machine wedges inside the span.
    pub fn run_span(&mut self, cycles: Cycle) -> Result<RunResult, SimError> {
        self.begin_measurement();
        self.run_cycles(cycles)?;
        Ok(self.finish_measurement())
    }

    /// Runs for `cycles` of simulated time (used to position checkpoints).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the machine wedges first.
    pub fn run_cycles(&mut self, cycles: Cycle) -> Result<(), SimError> {
        let deadline = self.now + cycles;
        while let Some(ev) = self.events.peek() {
            if ev.time > deadline {
                self.now = deadline;
                return Ok(());
            }
            let ev = self.events.pop().expect("peeked");
            self.now = ev.time;
            if let Some(mon) = &mut self.monitor {
                mon.observe_event(ev.time);
            }
            match ev.kind {
                EventKind::CpuReady(cpu) => self.step_cpu(cpu),
                EventKind::ThreadWake(thread) => {
                    self.sched.wake(thread, self.now);
                    self.kick_idle_cpu();
                }
            }
        }
        Err(SimError::Deadlock {
            at_cycle: self.now,
            committed: self.committed,
        })
    }

    fn finish_measurement(&mut self) -> RunResult {
        if let Some(mon) = &mut self.monitor {
            mon.check_conservation(self.mem.stats(), self.now);
        }
        let mut proc = ProcStats::default();
        for cpu in &self.cpus {
            let s = cpu.core.stats();
            proc.instructions += s.instructions;
            proc.branches += s.branches;
            proc.branch_mispredicts += s.branch_mispredicts;
            proc.indirect_mispredicts += s.indirect_mispredicts;
            proc.ras_mispredicts += s.ras_mispredicts;
            proc.window_stall_ns += s.window_stall_ns;
            proc.drain_ns += s.drain_ns;
        }
        let end_cycle = self.commit_log.last().copied().unwrap_or(self.now);
        let cpu_busy_ns = self.cpus.iter().map(|c| c.busy_ns).sum();
        RunResult {
            start_cycle: self.measure_start,
            end_cycle,
            transactions: self.committed - self.measure_committed_base,
            commit_cycles: std::mem::take(&mut self.commit_log),
            mem: *self.mem.stats(),
            proc,
            locks: *self.locks.stats(),
            sched: *self.sched.stats(),
            sched_events: self.sched.take_log(),
            cpu_busy_ns,
            cpus: self.cpus.len(),
        }
    }

    /// Points the monitor at the scheduler: every CPU slot must agree with
    /// the scheduler's Running records, and no thread may occupy two slots.
    /// A no-op when monitoring is disabled.
    fn check_schedule(&mut self, now: Cycle) {
        if let Some(mon) = &mut self.monitor {
            self.slot_scratch.clear();
            self.slot_scratch.extend(self.cpus.iter().map(|c| c.thread));
            mon.check_schedule(&self.sched, &self.slot_scratch, now);
        }
    }

    /// Test hook: delivers a planted fault (see
    /// [`FaultSpec`](crate::config::FaultSpec)), then re-checks the corrupted
    /// structure so the violation is recorded immediately.
    fn deliver_fault(&mut self, kind: FaultKind, committing: ThreadId, now: Cycle) {
        match kind {
            FaultKind::CoherenceState { cpu, block, state } => {
                self.mem.force_l2_state(CpuId(cpu), BlockAddr(block), state);
                if let Some(mon) = &mut self.monitor {
                    mon.check_block(&self.mem, BlockAddr(block), now);
                }
            }
            FaultKind::SchedulerDoubleRun { cpu } => {
                // Re-record the committing thread as Running on another CPU
                // (the configured one, or its neighbour when the thread
                // already runs there), so one thread claims two CPUs at once.
                // Needs a machine with at least two CPUs to actually violate
                // anything.
                let mut target = CpuId(cpu);
                if self.cpus[target.index()].thread == Some(committing) {
                    target = CpuId((cpu + 1) % self.cpus.len() as u32);
                }
                self.sched.force_running(committing, target);
                self.check_schedule(now);
            }
        }
    }

    /// Wakes one idle CPU, if any, so a freshly readied thread gets running.
    fn kick_idle_cpu(&mut self) {
        if self.idle_cpus == 0 {
            return;
        }
        if let Some(idx) = self.cpus.iter().position(|c| c.idle) {
            self.cpus[idx].idle = false;
            self.idle_cpus -= 1;
            self.post(self.now, EventKind::CpuReady(CpuId(idx as u32)));
        }
    }

    /// One CPU step: dispatch if idle, preempt at quantum expiry, otherwise
    /// execute the current thread's next op.
    fn step_cpu(&mut self, cpu: CpuId) {
        let idx = cpu.index();
        let now = self.now;

        // Dispatch if nothing is running here.
        let Some(thread) = self.cpus[idx].thread else {
            match self.sched.dispatch(cpu, now) {
                Some(t) => {
                    self.cpus[idx].thread = Some(t);
                    self.check_schedule(now);
                    let ctx = self.sched.config().context_switch_ns;
                    self.post(now + ctx, EventKind::CpuReady(cpu));
                }
                None => {
                    self.cpus[idx].idle = true;
                    self.idle_cpus += 1;
                }
            }
            return;
        };

        // Quantum expiry: preempt if someone else wants the CPU.
        if self.sched.quantum_expired(thread, now) {
            if self.sched.has_ready() {
                let drain = self.cpus[idx].core.drain(now);
                self.sched.preempt(thread, cpu, now + drain);
                self.cpus[idx].thread = None;
                self.post(now + drain, EventKind::CpuReady(cpu));
                return;
            }
            self.sched.renew_quantum(thread, now);
        }

        // Execute one op.
        let op = self.workload.next_op(thread);
        if !op.is_serializing() {
            let busy = self.cpus[idx].core.execute(cpu, &op, now, &mut self.mem);
            if let Some(mon) = &mut self.monitor {
                match &op {
                    Op::Compute { code_block, .. } => {
                        mon.note_fetch_op();
                        mon.check_block(&self.mem, *code_block, now);
                    }
                    Op::Memory { addr, .. } => {
                        mon.note_data_op();
                        mon.check_block(&self.mem, *addr, now);
                    }
                    _ => {}
                }
            }
            let extra = match &mut self.noise {
                Some(n) => n.overhead(idx, now, busy),
                None => 0,
            };
            self.cpus[idx].busy_ns += busy + extra;
            self.post(now + busy + extra, EventKind::CpuReady(cpu));
            return;
        }

        // Serializing ops drain the pipeline first.
        let drain = self.cpus[idx].core.drain(now);
        let t = now + drain;
        match op {
            Op::Lock(lock) => match self.locks.acquire(lock, thread, t) {
                AcquireOutcome::Acquired => {
                    // The lock word is written (RMW) — real coherence
                    // traffic. The access is timed at `now` (the CAS issues
                    // while the pipeline drains), keeping memory-system
                    // timestamps globally monotone.
                    let lat = self
                        .mem
                        .access(cpu, LockTable::block_of(lock), AccessKind::Write, now)
                        .latency;
                    if let Some(mon) = &mut self.monitor {
                        mon.note_data_op();
                        mon.check_block(&self.mem, LockTable::block_of(lock), now);
                    }
                    let busy = drain + SYNC_OP_COST_NS + lat;
                    self.cpus[idx].busy_ns += busy;
                    self.post(now + busy, EventKind::CpuReady(cpu));
                }
                AcquireOutcome::Queued => {
                    // Spin briefly, then block and switch.
                    let spin = self.sched.config().lock_spin_ns;
                    self.sched.block_on_lock(thread, lock, cpu, t + spin);
                    self.cpus[idx].thread = None;
                    self.cpus[idx].busy_ns += drain + spin;
                    self.post(t + spin, EventKind::CpuReady(cpu));
                }
            },
            Op::Unlock(lock) => {
                let lat = self
                    .mem
                    .access(cpu, LockTable::block_of(lock), AccessKind::Write, now)
                    .latency;
                if let Some(mon) = &mut self.monitor {
                    mon.note_data_op();
                    mon.check_block(&self.mem, LockTable::block_of(lock), now);
                }
                if let Some(next) = self.locks.release(lock, thread, t) {
                    let wake_at = t + lat + self.sched.config().wakeup_ns;
                    self.post(wake_at, EventKind::ThreadWake(next));
                }
                let busy = drain + SYNC_OP_COST_NS + lat;
                self.cpus[idx].busy_ns += busy;
                self.post(now + busy, EventKind::CpuReady(cpu));
            }
            Op::TxnEnd => {
                self.committed += 1;
                self.commit_log.push(t);
                // Test hook: plant the configured fault once the cumulative
                // commit count is reached, then re-check the corrupted
                // structure so the violation is recorded even if the
                // workload never touches it again.
                if let Some(f) = self.config.fault {
                    if self.committed == f.after_commits {
                        self.deliver_fault(f.kind, thread, now);
                    }
                }
                let busy = drain + SYNC_OP_COST_NS;
                self.cpus[idx].busy_ns += busy;
                self.post(now + busy, EventKind::CpuReady(cpu));
            }
            Op::Io(delay) => {
                self.sched.sleep(thread, cpu, t);
                self.cpus[idx].thread = None;
                self.post(t + delay, EventKind::ThreadWake(thread));
                self.cpus[idx].busy_ns += drain;
                self.post(t, EventKind::CpuReady(cpu));
            }
            Op::Yield => {
                self.sched.yield_thread(thread, cpu, t);
                self.cpus[idx].thread = None;
                self.cpus[idx].busy_ns += drain;
                self.post(t, EventKind::CpuReady(cpu));
            }
            _ => unreachable!("non-serializing ops handled above"),
        }
    }
}

crate::impl_snap!(enum EventKind {
    0 => CpuReady(cpu),
    1 => ThreadWake(thread),
});
crate::impl_snap!(Event { time, seq, kind });
crate::impl_snap!(Cpu {
    core,
    thread,
    idle,
    busy_ns,
});

impl<W: Workload + Snap> Machine<W> {
    /// Serializes the complete machine state — caches and coherence state,
    /// memory-system counters, processor cores and predictors, scheduler,
    /// locks, noise, invariant monitor, workload generators, RNG streams,
    /// the event queue, and all accounting — into a stable binary
    /// [`Checkpoint`] with a content fingerprint.
    ///
    /// The event queue is serialized in sorted `(time, seq)` order, so two
    /// machines in identical states always produce byte-identical payloads
    /// (and hence equal fingerprints) regardless of queue-internal layout.
    pub fn snapshot(&self) -> Checkpoint {
        // Reserving the full estimate up front saves the ~10 doubling copies
        // of growing a multi-megabyte payload from empty.
        let mut enc = Encoder::with_capacity(self.snapshot_size_hint());
        self.config.encode_snap(&mut enc);
        self.now.encode_snap(&mut enc);
        self.seq.encode_snap(&mut enc);
        let mut events: Vec<Event> = self.events.to_vec();
        events.sort_unstable();
        events.encode_snap(&mut enc);
        self.cpus.encode_snap(&mut enc);
        self.mem.encode_snap(&mut enc);
        self.sched.encode_snap(&mut enc);
        self.locks.encode_snap(&mut enc);
        self.noise.encode_snap(&mut enc);
        self.monitor.encode_snap(&mut enc);
        self.workload.encode_snap(&mut enc);
        self.committed.encode_snap(&mut enc);
        self.commit_log.encode_snap(&mut enc);
        self.measure_start.encode_snap(&mut enc);
        self.measure_committed_base.encode_snap(&mut enc);
        Checkpoint::from_payload(enc.into_bytes())
    }

    /// Upper bound on the encoded size of [`Machine::snapshot`]'s payload,
    /// summed from every component's [`Snap::snap_size_hint`]. `snapshot`
    /// seeds its encoder with exactly this value, and the alloc-budget suite
    /// asserts the payload never exceeds it — so encode never regrows its
    /// buffer mid-snapshot.
    pub fn snapshot_size_hint(&self) -> usize {
        self.config.snap_size_hint()
            + 16 // now + seq
            + 8 + self.events.len() * 21 // sorted events: time + seq + tagged kind
            + self.cpus.snap_size_hint()
            + self.mem.snap_size_hint()
            + self.sched.snap_size_hint()
            + self.locks.snap_size_hint()
            + self.noise.snap_size_hint()
            + self.monitor.snap_size_hint()
            + self.workload.snap_size_hint()
            + 8 // committed
            + self.commit_log.snap_size_hint()
            + 16 // measure_start + measure_committed_base
    }

    /// Reconstructs a machine from a [`Checkpoint`], bit-identical to the
    /// machine that produced it: continuing a restored machine yields
    /// exactly the execution the original would have produced.
    ///
    /// One linear pass decodes the payload in the order
    /// [`Machine::snapshot`] wrote it; the decoded parts are then checked
    /// against each other (configuration, CPU and thread counts) before the
    /// machine is assembled.
    ///
    /// A snapshot that carried no monitor but whose configuration asks for
    /// invariant checks restores with a fresh one, as [`Machine::new`] would
    /// build it. The monitor is read-only, so simulation results are
    /// unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadCheckpoint`] when the payload is truncated,
    /// corrupt, or internally inconsistent (e.g. CPU count mismatch), and
    /// [`SimError::InvalidConfig`] when the embedded configuration fails
    /// validation.
    pub fn restore(ck: &Checkpoint) -> Result<Self, SimError> {
        let mut dec = Decoder::new(ck.payload());
        let config = MachineConfig::decode_snap(&mut dec)?;
        let now = Snap::decode_snap(&mut dec)?;
        let seq = Snap::decode_snap(&mut dec)?;
        let events: Vec<Event> = Snap::decode_snap(&mut dec)?;
        let cpus: Vec<Cpu> = Snap::decode_snap(&mut dec)?;
        let mem = MemorySystem::decode_snap(&mut dec)?;
        let sched = Scheduler::decode_snap(&mut dec)?;
        let locks = LockTable::decode_snap(&mut dec)?;
        let noise = Snap::decode_snap(&mut dec)?;
        let monitor: Option<InvariantMonitor> = Snap::decode_snap(&mut dec)?;
        let workload = W::decode_snap(&mut dec)?;
        let committed = Snap::decode_snap(&mut dec)?;
        let commit_log = Snap::decode_snap(&mut dec)?;
        let measure_start = Snap::decode_snap(&mut dec)?;
        let measure_committed_base = Snap::decode_snap(&mut dec)?;
        dec.finish()?;
        config.validate()?;
        if cpus.len() != config.cpus {
            return Err(CheckpointError::Corrupt {
                what: format!(
                    "checkpoint has {} CPUs but its config declares {}",
                    cpus.len(),
                    config.cpus
                ),
            }
            .into());
        }
        if sched.thread_count() != workload.thread_count() {
            return Err(CheckpointError::Corrupt {
                what: format!(
                    "checkpoint scheduler manages {} threads but its workload declares {}",
                    sched.thread_count(),
                    workload.thread_count()
                ),
            }
            .into());
        }
        let monitor = monitor.or_else(|| {
            config
                .check_invariants
                .then(|| InvariantMonitor::new(config.memory.protocol))
        });
        let idle_cpus = cpus.iter().filter(|c| c.idle).count();
        Ok(Machine {
            config,
            now,
            seq,
            events: EventQueue::from_items(now, events),
            cpus,
            mem,
            sched,
            locks,
            noise,
            monitor,
            workload,
            committed,
            commit_log,
            measure_start,
            measure_committed_base,
            idle_cpus,
            slot_scratch: Vec::new(),
        })
    }

    /// Forwards to [`Machine::restore`]; the thread count is ignored, because
    /// decode is single-threaded. The name exists only for the stand-alone
    /// benchmark (`benchmark/src/layers.rs`, the `sim.template_decode_mt_us`
    /// probe), which compiles against it; the `benchmark`-archetype issue
    /// that drops that probe deletes this too.
    ///
    /// # Errors
    ///
    /// As for [`Machine::restore`].
    pub fn restore_with_threads(ck: &Checkpoint, _decode_threads: usize) -> Result<Self, SimError> {
        Self::restore(ck)
    }
}

impl<W: Workload + Clone> Machine<W> {
    /// Forks a copy of the complete machine + workload state, like Simics'
    /// checkpoint facility (§3.2.2): restarting forks of one machine with
    /// different perturbation seeds ([`Machine::set_perturbation`]) is the
    /// paper's mechanism for exploring the space of executions. This is a
    /// `clone`, but the dominant state — every cache's slot table and slot
    /// storage — is copy-on-write in small chunks: forking a machine whose
    /// arrays are shared (a [`Machine::restore`]d one, or a live one after
    /// [`Machine::share`]) is a pointer copy per array, and the fork then
    /// copies a chunk (16 cache sets or slots) the first time it writes into
    /// it, and keeps the slots it adds to itself, so a short run pays for
    /// the few percent of the machine it touches and never writes what it
    /// shares. The sharer table, one `[key, sharers]` pair per L2-resident
    /// block, is copied whole through the decode arena. Forks may outlive
    /// the machine they came from and be forked again. Arrays that are not
    /// shared — those of a built machine that was never shared, or written
    /// since it was, with nobody else holding them — are copied whole. The
    /// shared-warmup executor forks every run from one template: a decoded
    /// snapshot, or the warm chain's live machine, shared.
    pub fn fork(&self) -> Machine<W> {
        self.clone()
    }

    /// Turns the machine's big arrays — every cache's slot table and slot
    /// storage — into shared ones in place, so that [`Machine::fork`] copies pointers instead of the whole
    /// machine. Nothing observable changes: equality, snapshot bytes and
    /// every later run are those of the unshared machine.
    ///
    /// An array is wrapped as it is when this machine owns it. An array
    /// that was shared before and written since is folded: when nobody else
    /// holds its shared base any more, the chunks written since are copied
    /// back into the base; when some fork still holds it, the array is
    /// copied into a new base. Callers that fork a live machine again and
    /// again (the warm chain of a checkpoint sweep) drop the previous
    /// template before calling this, so the fold is the path taken.
    pub fn share(&mut self) {
        self.mem.share();
    }

    /// Returns a copy with a fresh environmental-noise seed (for simulated
    /// "real machine" reruns, §2.2).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the machine was built without
    /// noise.
    pub fn with_noise_seed(&self, seed: u64) -> Result<Machine<W>, SimError> {
        let mut m = self.clone();
        let Some(base) = &self.config.noise else {
            return Err(SimError::InvalidConfig {
                what: "machine has no noise model to reseed".into(),
            });
        };
        let mut cfg = *base;
        cfg.seed = seed;
        m.config.noise = Some(cfg);
        m.noise = Some(NoiseState::new(cfg, m.config.cpus)?);
        Ok(m)
    }
}

// The parallel run-space executor in `mtvar-core` moves machines across OS
// threads; every field of `Machine` is owned data, so `Machine<W>` is
// `Send`/`Sync` whenever the workload is. This assertion keeps that
// property from silently regressing (e.g. by someone adding an `Rc` or a
// raw pointer to the event queue).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Machine<crate::workload::UniformWorkload>>();
    assert_send_sync::<Machine<crate::workload::SharingWorkload>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::pins::{assert_rejects_bad_tag, encoding_pin};
    use crate::workload::UniformWorkload;

    #[test]
    fn event_kind_encoding_is_pinned_and_rejects_bad_tags() {
        use EventKind::*;
        let pin = encoding_pin(&[CpuReady(CpuId(3)), ThreadWake(ThreadId(9))]);
        assert_eq!(pin, (10, 0x036d_f286_0ad9_c30a));
        assert_rejects_bad_tag::<EventKind>(2);
    }

    fn machine(cpus: usize, threads: usize) -> Machine<UniformWorkload> {
        let cfg = MachineConfig::hpca2003().with_cpus(cpus);
        Machine::new(cfg, UniformWorkload::new(threads, 20, 30)).unwrap()
    }

    #[test]
    fn runs_requested_transactions() {
        let mut m = machine(4, 8);
        let r = m.run_transactions(50).unwrap();
        assert_eq!(r.transactions, 50);
        assert_eq!(r.commit_cycles.len(), 50);
        assert!(r.cycles_per_transaction() > 0.0);
        assert!(r.end_cycle >= r.start_cycle);
        // Commit log is sorted.
        assert!(r.commit_cycles.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn deterministic_without_perturbation() {
        let run = || {
            let mut m = machine(4, 8);
            m.run_transactions(100).unwrap().elapsed()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn perturbation_changes_runtime() {
        let run = |seed: u64| {
            let cfg = MachineConfig::hpca2003()
                .with_cpus(4)
                .with_perturbation(4, seed);
            let mut m = Machine::new(cfg, UniformWorkload::new(8, 20, 30)).unwrap();
            m.run_transactions(100).unwrap().elapsed()
        };
        // Same seed reproduces; different seeds (almost surely) differ.
        assert_eq!(run(7), run(7));
        let a = run(1);
        let distinct = (2..10u64).any(|s| run(s) != a);
        assert!(distinct, "10 perturbed runs all identical is implausible");
    }

    #[test]
    fn more_threads_than_cpus_gets_scheduled() {
        // Short quantum so preemption is active within the test's horizon.
        let sched = crate::sched::SchedConfig {
            quantum_ns: 3_000,
            ..Default::default()
        };
        let cfg = MachineConfig::hpca2003().with_cpus(2).with_sched(sched);
        let mut m = Machine::new(cfg, UniformWorkload::new(16, 20, 30)).unwrap();
        let r = m.run_transactions(400).unwrap();
        assert_eq!(r.transactions, 400);
        assert!(r.sched.dispatches >= 16, "all threads must run");
        assert!(r.sched.preemptions > 0, "quantum expiry must preempt");
    }

    #[test]
    fn measurement_intervals_are_independent() {
        let mut m = machine(4, 8);
        let r1 = m.run_transactions(40).unwrap();
        let r2 = m.run_transactions(40).unwrap();
        assert_eq!(r2.transactions, 40);
        assert!(r2.start_cycle >= r1.end_cycle);
        // Counters were reset between intervals.
        assert!(r2.mem.data_accesses() <= r1.mem.data_accesses() * 3);
    }

    #[test]
    fn forks_resume_identically() {
        let mut m = machine(4, 8);
        m.run_transactions(30).unwrap();
        let mut a = m.fork();
        let mut b = m.fork();
        let ra = a.run_transactions(50).unwrap();
        let rb = b.run_transactions(50).unwrap();
        assert_eq!(ra.elapsed(), rb.elapsed());
        assert_eq!(ra.commit_cycles, rb.commit_cycles);
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let cfg = MachineConfig::hpca2003()
            .with_cpus(4)
            .with_perturbation(4, 77);
        let wl = crate::workload::SharingWorkload::new(8, 7, 40, 4096, 10);
        let mut m = Machine::new(cfg, wl).unwrap();
        m.run_transactions(30).unwrap();
        let ck = m.snapshot();
        let mut restored: Machine<crate::workload::SharingWorkload> =
            Machine::restore(&ck).unwrap();
        // A restored machine re-snapshots to the identical fingerprint...
        assert_eq!(restored.snapshot().fingerprint(), ck.fingerprint());
        // ...and continues bit-identically to the original.
        let ra = m.run_transactions(50).unwrap();
        let rb = restored.run_transactions(50).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(
            m.snapshot().fingerprint(),
            restored.snapshot().fingerprint()
        );
    }

    #[test]
    fn snapshot_roundtrips_through_frame_bytes() {
        let mut m = machine(2, 4);
        m.run_transactions(15).unwrap();
        let ck = m.snapshot();
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.fingerprint(), ck.fingerprint());
        assert_eq!(Checkpoint::from_payload(ck.payload().to_vec()), ck);
        let mut restored: Machine<UniformWorkload> = Machine::restore(&back).unwrap();
        assert_eq!(
            m.run_transactions(10).unwrap(),
            restored.run_transactions(10).unwrap()
        );
    }

    #[test]
    fn fork_shares_state_and_diverges_independently() {
        let cfg = MachineConfig::hpca2003()
            .with_cpus(4)
            .with_perturbation(4, 1);
        let wl = crate::workload::SharingWorkload::new(8, 7, 40, 4096, 10);
        let mut m = Machine::new(cfg, wl).unwrap();
        m.run_transactions(30).unwrap();
        let template: Machine<crate::workload::SharingWorkload> =
            Machine::restore(&m.snapshot()).unwrap();
        // Forks of one template must behave exactly like independent
        // restores of the same checkpoint.
        let reseeded = |mut m: Machine<crate::workload::SharingWorkload>, seed| {
            m.set_perturbation(4, seed);
            m
        };
        let mut f1 = reseeded(template.fork(), 11);
        let mut f2 = reseeded(template.fork(), 12);
        let mut r1 = reseeded(Machine::restore(&m.snapshot()).unwrap(), 11);
        assert_eq!(
            f1.run_transactions(40).unwrap(),
            r1.run_transactions(40).unwrap()
        );
        // Different seeds diverge; the template itself is untouched.
        let _ = f2.run_transactions(40).unwrap();
        assert_eq!(
            template.snapshot().fingerprint(),
            m.snapshot().fingerprint()
        );
    }

    #[test]
    fn forks_of_a_shared_live_machine_run_like_forks_of_its_restore() {
        type M = Machine<crate::workload::SharingWorkload>;
        let cfg = MachineConfig::hpca2003()
            .with_cpus(4)
            .with_perturbation(4, 1);
        let wl = crate::workload::SharingWorkload::new(8, 7, 40, 4096, 10);
        let run = |template: &M, seed| {
            let mut m = template.fork();
            m.set_perturbation(4, seed);
            m.run_transactions(40).unwrap()
        };
        let mut live = Machine::new(cfg, wl).unwrap();
        let mut template: Option<M> = None;
        for (step, warm) in [30, 20, 25].into_iter().enumerate() {
            // The first advance writes owned arrays; the later ones write
            // arrays the previous template still shares, so `share` folds
            // (the template is dropped first) or flattens (it is kept).
            live.run_transactions(warm).unwrap();
            let ck = live.snapshot();
            if step == 1 {
                drop(template.take());
            }
            live.share();
            let shared = live.fork();
            let restored: M = Machine::restore(&ck).unwrap();
            assert_eq!(shared.snapshot().fingerprint(), ck.fingerprint());
            for seed in [11, 12] {
                assert_eq!(run(&shared, seed), run(&restored, seed), "step {step}");
            }
            if let Some(previous) = &template {
                assert_ne!(previous.snapshot().fingerprint(), ck.fingerprint());
            }
            template = Some(shared);
        }
    }

    #[test]
    fn corrupt_snapshot_payload_is_rejected() {
        let mut m = machine(2, 4);
        m.run_transactions(5).unwrap();
        let ck = m.snapshot();
        // Truncated payload: decoding must error, not panic.
        let short = crate::checkpoint::Checkpoint::from_payload(
            ck.payload()[..ck.payload().len() / 2].to_vec(),
        );
        assert!(Machine::<UniformWorkload>::restore(&short).is_err());
        // Wrong workload type: SharingWorkload bytes don't decode as Uniform.
        let wl = crate::workload::SharingWorkload::new(4, 1, 10, 64, 0);
        let mut other = Machine::new(MachineConfig::hpca2003().with_cpus(2), wl).unwrap();
        other.run_transactions(5).unwrap();
        assert!(Machine::<UniformWorkload>::restore(&other.snapshot()).is_err());
    }

    #[test]
    fn perturbation_armed_on_a_fork_diverges_and_reproduces() {
        // A sharing workload sustains L2 (coherence) misses, so perturbation
        // has injection points even after warmup.
        let cfg = MachineConfig::hpca2003().with_cpus(4);
        let wl = crate::workload::SharingWorkload::new(8, 7, 40, 4096, 10);
        let mut m = Machine::new(cfg, wl).unwrap();
        m.run_transactions(20).unwrap();
        let perturbed = |seed| {
            let mut run = m.fork();
            run.set_perturbation(4, seed);
            run.run_transactions(60).unwrap().elapsed()
        };
        let elapsed: Vec<u64> = (0..6).map(perturbed).collect();
        // Same seed reproduces...
        assert_eq!(elapsed[0], perturbed(0));
        // ...different seeds diverge.
        assert!(
            elapsed.iter().any(|&e| e != elapsed[0]),
            "perturbed forks should diverge: {elapsed:?}"
        );
    }

    #[test]
    fn scheduler_fault_is_caught_by_monitor() {
        use crate::config::FaultSpec;
        let cfg = MachineConfig::hpca2003()
            .with_cpus(4)
            .with_invariant_checks()
            .with_fault(FaultSpec::scheduler_double_run(10, 2));
        let mut m = Machine::new(cfg, UniformWorkload::new(8, 20, 30)).unwrap();
        m.run_transactions(30).unwrap();
        assert!(
            m.invariant_violations()
                .iter()
                .any(|v| v.kind == crate::check::InvariantKind::Scheduling),
            "planted scheduler fault must be detected: {:?}",
            m.invariant_violations()
        );
    }

    #[test]
    fn invariant_monitor_is_clean_and_changes_nothing() {
        let wl = crate::workload::SharingWorkload::new(8, 11, 30, 512, 8);
        let run = |checked: bool| {
            let mut cfg = MachineConfig::hpca2003()
                .with_cpus(4)
                .with_perturbation(4, 5);
            if checked {
                cfg = cfg.with_invariant_checks();
            }
            let mut m = Machine::new(cfg, wl.clone()).unwrap();
            let r = m.run_transactions(60).unwrap();
            assert_eq!(m.invariant_monitor().is_some(), checked);
            assert!(
                m.invariant_violations().is_empty(),
                "violations: {:?}",
                m.invariant_violations()
            );
            (r.elapsed(), r.commit_cycles, r.mem)
        };
        // The monitor is read-only: checked and unchecked runs are identical.
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn fault_hook_fires_and_violations_are_extractable() {
        use crate::config::FaultSpec;
        use crate::mem::CoherenceState;
        // Exclusive is illegal under the default MOSI protocol, so the
        // monitor flags the planted state no matter what the workload does.
        let cfg = MachineConfig::hpca2003()
            .with_cpus(4)
            .with_invariant_checks()
            .with_fault(FaultSpec::coherence(
                10,
                1,
                0xFA11,
                CoherenceState::Exclusive,
            ));
        let mut m = Machine::new(cfg, UniformWorkload::new(8, 20, 30)).unwrap();
        m.run_transactions(30).unwrap();
        assert!(
            !m.invariant_violations().is_empty(),
            "planted fault must be detected"
        );
        let taken = m.take_invariant_violations();
        assert!(!taken.is_empty());
        // Reports are drained, but the finding itself is not forgotten.
        assert!(m.invariant_violations().is_empty());
        assert!(!m.invariant_monitor().unwrap().is_clean());
    }

    #[test]
    fn fault_before_trigger_commit_is_silent() {
        use crate::config::FaultSpec;
        use crate::mem::CoherenceState;
        let cfg = MachineConfig::hpca2003()
            .with_cpus(4)
            .with_invariant_checks()
            .with_fault(FaultSpec::coherence(
                100,
                1,
                0xFA11,
                CoherenceState::Exclusive,
            ));
        let mut m = Machine::new(cfg, UniformWorkload::new(8, 20, 30)).unwrap();
        m.run_transactions(30).unwrap();
        assert!(m.invariant_violations().is_empty());
        assert!(m.invariant_monitor().unwrap().is_clean());
    }

    #[test]
    fn enable_invariant_checks_creates_monitor_between_intervals() {
        let mut m = machine(2, 4);
        m.run_transactions(10).unwrap();
        m.enable_invariant_checks();
        assert!(m.invariant_monitor().is_some());
        assert!(m.config().check_invariants);
        let r = m.run_transactions(10).unwrap();
        assert_eq!(r.transactions, 10);
        assert!(
            m.invariant_violations().is_empty(),
            "clean run stays clean: {:?}",
            m.invariant_violations()
        );
    }

    #[test]
    fn monitor_conservation_holds_across_intervals() {
        let cfg = MachineConfig::hpca2003()
            .with_cpus(2)
            .with_invariant_checks();
        let mut m = Machine::new(cfg, UniformWorkload::new(6, 20, 30)).unwrap();
        m.run_transactions(30).unwrap(); // warmup interval
        m.run_transactions(30).unwrap(); // measured interval
        assert!(
            m.invariant_violations().is_empty(),
            "violations: {:?}",
            m.invariant_violations()
        );
        assert!(m.invariant_monitor().unwrap().is_clean());
    }

    #[test]
    fn run_cycles_advances_time() {
        let mut m = machine(2, 4);
        m.run_cycles(100_000).unwrap();
        assert!(m.now() >= 100_000);
    }

    #[test]
    fn cpu_utilization_tracked() {
        let mut m = machine(2, 8);
        let r = m.run_transactions(40).unwrap();
        assert!(r.proc.instructions > 0);
    }

    #[test]
    fn run_span_measures_a_time_window() {
        let mut m = machine(4, 8);
        m.run_transactions(20).unwrap();
        let start = m.now();
        let r = m.run_span(50_000).unwrap();
        assert!(m.now() >= start + 50_000);
        assert!(r.transactions > 0, "a 50k-cycle span should commit work");
        assert!(r.start_cycle >= start);
    }

    /// A workload whose threads all deadlock: everyone acquires the same
    /// lock and never releases it.
    #[derive(Debug, Clone)]
    struct DeadlockWorkload {
        threads: usize,
        acquired: Vec<bool>,
    }

    impl crate::workload::Workload for DeadlockWorkload {
        fn thread_count(&self) -> usize {
            self.threads
        }

        fn next_op(&mut self, thread: crate::ids::ThreadId) -> Op {
            if self.acquired[thread.index()] {
                // Holder busy-waits forever via I/O sleeps; others block on
                // the lock. Nothing ever commits.
                Op::Io(1_000_000)
            } else {
                self.acquired[thread.index()] = true;
                Op::Lock(crate::ids::LockId(0))
            }
        }

        fn name(&self) -> &str {
            "deadlock"
        }
    }

    #[test]
    fn blocked_machine_reports_deadlock_not_hang() {
        // Two threads on one CPU: thread 0 takes the lock and sleeps
        // forever; thread 1 blocks on the lock. No transaction can commit,
        // and the holder's I/O events keep time advancing — run_transactions
        // must not spin forever, so we bound the run with run_cycles and
        // verify no progress happened.
        let cfg = MachineConfig::hpca2003().with_cpus(1);
        let mut m = Machine::new(
            cfg,
            DeadlockWorkload {
                threads: 2,
                acquired: vec![false; 2],
            },
        )
        .unwrap();
        m.run_cycles(5_000_000).unwrap();
        assert_eq!(m.committed(), 0);
        // Thread 1 is permanently blocked on lock 0.
        assert!(matches!(
            m.scheduler().thread_state(ThreadId(1)),
            crate::sched::ThreadState::Blocked(_)
        ));
    }

    /// A workload that genuinely wedges: a thread blocks on a lock held by a
    /// thread that has exited its op stream (yields forever are impossible —
    /// so we emulate with both threads blocking on each other's locks).
    #[derive(Debug, Clone)]
    struct CrossLockWorkload {
        step: Vec<u8>,
    }

    impl crate::workload::Workload for CrossLockWorkload {
        fn thread_count(&self) -> usize {
            self.step.len()
        }

        fn next_op(&mut self, thread: crate::ids::ThreadId) -> Op {
            let i = thread.index();
            let s = self.step[i];
            self.step[i] += 1;
            let me = crate::ids::LockId(i as u32);
            let other = crate::ids::LockId(((i + 1) % 2) as u32);
            match s {
                0 => Op::Lock(me),
                1 => Op::Compute {
                    instructions: 2_000,
                    code_block: crate::ids::BlockAddr(0xC0 + i as u64),
                },
                // Classic ABBA: each thread now waits on the other's lock.
                _ => Op::Lock(other),
            }
        }

        fn name(&self) -> &str {
            "crosslock"
        }
    }

    #[test]
    fn abba_deadlock_is_detected() {
        let cfg = MachineConfig::hpca2003().with_cpus(2);
        let mut m = Machine::new(cfg, CrossLockWorkload { step: vec![0; 2] }).unwrap();
        let err = m.run_transactions(1).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "got {err}");
    }
}
