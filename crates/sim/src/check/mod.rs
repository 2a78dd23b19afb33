//! Runtime invariant checking for the simulated memory system.
//!
//! The paper's methodology (§3.3) treats the simulator as a trustworthy pure
//! function of `(configuration, workload seed, perturbation seed)`; a silent
//! coherence or accounting bug would corrupt every CV, WCR and t-test result
//! built on top of it. This module provides the machinery that keeps that
//! trust earned:
//!
//! * [`InvariantMonitor`] — a strictly read-only observer wired into the
//!   machine's event loop (behind the run-time switch
//!   [`MachineConfig::check_invariants`]) that re-verifies, after every
//!   memory operation, the protocol invariants of the block just touched,
//!   L1/L2 inclusion, event-time monotonicity, and — at the end of each
//!   measurement interval — the stat conservation laws (hits + misses ==
//!   accesses).
//!   Violations are recorded as structured [`Violation`] reports naming the
//!   block, the CPUs involved, and the cycle.
//! * [`oracle::CoherenceOracle`] — a small untimed functional reference model
//!   of the MOSI/MESI/MOESI state machines, cross-checked against the timed
//!   simulator on seeded random traces by the differential test suite.
//!
//! The monitor never mutates simulator state, so enabling it cannot change a
//! simulation's outcome — only report on it.
//!
//! [`MachineConfig::check_invariants`]: crate::config::MachineConfig::check_invariants

pub mod oracle;

use std::fmt;

use crate::ids::{BlockAddr, CpuId, Cycle, ThreadId};
use crate::mem::{CoherenceProtocol, CoherenceState, MemStats, MemorySystem};
use crate::sched::{Scheduler, ThreadState};

/// The class of invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// Per-block protocol invariant: at most one Modified/Exclusive/Owned
    /// holder, exclusive states imply no other valid copy, and no state
    /// outside the configured protocol's subset.
    Coherence,
    /// L1/L2 inclusion: an L1 copy without a backing L2 copy, or a writable
    /// L1 copy over a non-writable L2 copy.
    Inclusion,
    /// The event queue delivered an event timestamped before its predecessor.
    TimeRegression,
    /// A stat conservation law failed (e.g. hits + misses != accesses).
    Conservation,
    /// The scheduler invariant broke: a thread ran on more than one CPU at
    /// once, or the scheduler's Running records disagreed with the machine's
    /// CPU slots.
    Scheduling,
}

/// One invariant violation, with enough context to debug it: the kind, the
/// cycle it was detected at, the block and CPUs involved, and a prose detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: InvariantKind,
    /// Simulated cycle at which the violation was detected.
    pub cycle: Cycle,
    /// The block involved, when the invariant is block-scoped.
    pub addr: Option<BlockAddr>,
    /// The CPUs implicated (holders of conflicting copies, the node with the
    /// broken inclusion, ...). Empty for machine-global invariants.
    pub cpus: Vec<CpuId>,
    /// Human-readable description of the violated constraint.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}: {:?} violation", self.cycle, self.kind)?;
        if let Some(addr) = self.addr {
            write!(f, " at block {}", addr.0)?;
        }
        if !self.cpus.is_empty() {
            write!(f, " involving [")?;
            for (i, c) in self.cpus.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
            write!(f, "]")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Stored violations are capped so a badly broken run cannot exhaust memory;
/// the total count keeps accumulating past the cap.
const MAX_STORED_VIOLATIONS: usize = 64;

/// A read-only observer of the memory system's structural invariants.
///
/// The machine drives it: [`InvariantMonitor::observe_event`] on every event
/// pop, [`InvariantMonitor::note_data_op`] / [`note_fetch_op`] +
/// [`check_block`] after every memory operation, and
/// [`check_conservation`] when a measurement interval closes. All checks
/// take `&MemorySystem` — the monitor cannot perturb the simulation.
///
/// [`note_fetch_op`]: InvariantMonitor::note_fetch_op
/// [`check_block`]: InvariantMonitor::check_block
/// [`check_conservation`]: InvariantMonitor::check_conservation
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantMonitor {
    protocol: CoherenceProtocol,
    violations: Vec<Violation>,
    total_violations: u64,
    last_event_time: Cycle,
    /// Data accesses issued since the interval began (Op::Memory plus lock-
    /// word reads-modify-writes), mirroring what `MemorySystem::access` sees.
    data_ops: u64,
    /// Instruction fetches issued since the interval began (one per
    /// Op::Compute burst), mirroring `MemorySystem::fetch`.
    fetch_ops: u64,
    /// Reusable working set for [`InvariantMonitor::check_block`], which
    /// runs after every memory operation on monitored machines and must not
    /// allocate in the steady state.
    scratch: Scratch,
}

/// Holder lists rebuilt on every `check_block` call. Pure working memory:
/// always-equal under `==` and absent from snapshots, so retained capacity
/// never leaks into machine comparisons or checkpoint fingerprints.
#[derive(Debug, Clone, Default)]
struct Scratch {
    modified: Vec<CpuId>,
    exclusive: Vec<CpuId>,
    owned: Vec<CpuId>,
    valid: Vec<CpuId>,
}

impl PartialEq for Scratch {
    fn eq(&self, _: &Scratch) -> bool {
        true
    }
}
impl Eq for Scratch {}

impl InvariantMonitor {
    /// Creates a monitor for a machine running `protocol`.
    pub fn new(protocol: CoherenceProtocol) -> Self {
        InvariantMonitor {
            protocol,
            violations: Vec::new(),
            total_violations: 0,
            last_event_time: 0,
            data_ops: 0,
            fetch_ops: 0,
            scratch: Scratch::default(),
        }
    }

    /// The protocol whose invariants are enforced.
    pub fn protocol(&self) -> CoherenceProtocol {
        self.protocol
    }

    /// Violations recorded so far (capped at an internal bound; see
    /// [`InvariantMonitor::total_violations`] for the uncapped count).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Drains and returns the stored violation reports, leaving the monitor
    /// in place for further checking.
    ///
    /// The uncapped [`InvariantMonitor::total_violations`] counter is *not*
    /// reset — findings stay findings — so [`InvariantMonitor::is_clean`]
    /// still reports whether anything was ever detected. This is the
    /// extraction API the parallel run-space executor uses to pull each
    /// run's violations out of its machine and feed them into the violations
    /// channel.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// Total violations detected, including any dropped past the storage cap.
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    /// Whether no violation has been detected since construction.
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// Starts a new measurement interval: the per-interval operation
    /// counters reset alongside the memory system's own counters, so the
    /// conservation laws compare like with like. Recorded violations are
    /// kept — they are findings, not statistics.
    pub fn begin_interval(&mut self) {
        self.data_ops = 0;
        self.fetch_ops = 0;
    }

    /// Records one data access (a load, store, or lock-word RMW) issued to
    /// the memory system.
    pub fn note_data_op(&mut self) {
        self.data_ops += 1;
    }

    /// Records one instruction fetch issued to the memory system.
    pub fn note_fetch_op(&mut self) {
        self.fetch_ops += 1;
    }

    fn report(
        &mut self,
        kind: InvariantKind,
        cycle: Cycle,
        addr: Option<BlockAddr>,
        cpus: Vec<CpuId>,
        detail: String,
    ) {
        self.total_violations += 1;
        if self.violations.len() < MAX_STORED_VIOLATIONS {
            self.violations.push(Violation {
                kind,
                cycle,
                addr,
                cpus,
                detail,
            });
        }
    }

    /// Checks that event delivery time never runs backwards.
    pub fn observe_event(&mut self, now: Cycle) {
        if now < self.last_event_time {
            let last = self.last_event_time;
            self.report(
                InvariantKind::TimeRegression,
                now,
                None,
                Vec::new(),
                format!("event at cycle {now} delivered after cycle {last}"),
            );
        } else {
            self.last_event_time = now;
        }
    }

    /// Re-verifies every per-block invariant for `addr` at cycle `now`:
    /// single-writer, exclusive-implies-peers-invalid, at most one Owned
    /// copy, protocol-subset legality, and L1/L2 inclusion on every node.
    pub fn check_block(&mut self, mem: &MemorySystem, addr: BlockAddr, now: Cycle) {
        let cpus = mem.node_count();
        // Borrow the scratch out so `report` can take `&mut self`; the swap
        // moves pointers only, and the vectors keep their capacity across
        // calls — violation-free checks allocate nothing.
        let mut s = std::mem::take(&mut self.scratch);
        let Scratch {
            modified,
            exclusive,
            owned,
            valid,
        } = &mut s;
        modified.clear();
        exclusive.clear();
        owned.clear();
        valid.clear();
        for i in 0..cpus {
            let cpu = CpuId(i as u32);
            let st = mem.l2_state(cpu, addr);
            match st {
                CoherenceState::Modified => modified.push(cpu),
                CoherenceState::Exclusive => exclusive.push(cpu),
                CoherenceState::Owned => owned.push(cpu),
                CoherenceState::Shared | CoherenceState::Invalid => {}
            }
            if st != CoherenceState::Invalid {
                valid.push(cpu);
            }
        }

        if modified.len() > 1 {
            self.report(
                InvariantKind::Coherence,
                now,
                Some(addr),
                modified.clone(),
                format!("{} Modified copies (single-writer broken)", modified.len()),
            );
        }
        if exclusive.len() > 1 {
            self.report(
                InvariantKind::Coherence,
                now,
                Some(addr),
                exclusive.clone(),
                format!("{} Exclusive copies", exclusive.len()),
            );
        }
        if owned.len() > 1 {
            self.report(
                InvariantKind::Coherence,
                now,
                Some(addr),
                owned.clone(),
                format!("{} Owned copies", owned.len()),
            );
        }
        if (!modified.is_empty() || !exclusive.is_empty()) && valid.len() > 1 {
            self.report(
                InvariantKind::Coherence,
                now,
                Some(addr),
                valid.clone(),
                format!(
                    "exclusive-state holder coexists with {} other valid copies",
                    valid.len() - 1
                ),
            );
        }
        if !exclusive.is_empty() && !self.protocol.has_exclusive() {
            self.report(
                InvariantKind::Coherence,
                now,
                Some(addr),
                exclusive.clone(),
                format!("Exclusive state is illegal under {:?}", self.protocol),
            );
        }
        if !owned.is_empty() && !self.protocol.has_owned() {
            self.report(
                InvariantKind::Coherence,
                now,
                Some(addr),
                owned.clone(),
                format!("Owned state is illegal under {:?}", self.protocol),
            );
        }

        // L1/L2 inclusion per node: a valid L1 copy needs a valid L2 copy,
        // and a writable L1 copy needs a writable L2 copy.
        for i in 0..cpus {
            let cpu = CpuId(i as u32);
            let l2 = mem.l2_state(cpu, addr);
            for (which, l1) in [
                ("L1D", mem.l1d_state(cpu, addr)),
                ("L1I", mem.l1i_state(cpu, addr)),
            ] {
                if l1 == CoherenceState::Invalid {
                    continue;
                }
                if l2 == CoherenceState::Invalid {
                    self.report(
                        InvariantKind::Inclusion,
                        now,
                        Some(addr),
                        vec![cpu],
                        format!("{which} holds {l1:?} but L2 holds no copy"),
                    );
                } else if l1.is_writable() && !l2.is_writable() {
                    self.report(
                        InvariantKind::Inclusion,
                        now,
                        Some(addr),
                        vec![cpu],
                        format!("{which} is writable ({l1:?}) over a {l2:?} L2 copy"),
                    );
                }
            }
        }
        self.scratch = s;
    }

    /// Checks the scheduling invariant at cycle `now`: every thread runs on
    /// at most one CPU, and the scheduler's Running records agree with the
    /// machine's per-CPU thread slots in both directions. `cpu_threads[i]`
    /// is the thread currently executing on CPU `i` (`None` when idle).
    pub fn check_schedule(
        &mut self,
        sched: &Scheduler,
        cpu_threads: &[Option<ThreadId>],
        now: Cycle,
    ) {
        for (i, slot) in cpu_threads.iter().enumerate() {
            let Some(t) = *slot else { continue };
            let cpu = CpuId(i as u32);
            for (j, other) in cpu_threads.iter().enumerate().skip(i + 1) {
                if *other == Some(t) {
                    self.report(
                        InvariantKind::Scheduling,
                        now,
                        None,
                        vec![cpu, CpuId(j as u32)],
                        format!("thread {t} occupies two CPUs at once"),
                    );
                }
            }
            let state = sched.thread_state(t);
            if state != ThreadState::Running(cpu) {
                self.report(
                    InvariantKind::Scheduling,
                    now,
                    None,
                    vec![cpu],
                    format!("{cpu} runs thread {t} but the scheduler records it as {state:?}"),
                );
            }
        }
        // A Running record pointing at a CPU whose slot holds a different
        // thread means one CPU appears to run two threads at once.
        for idx in 0..sched.thread_count() {
            let t = ThreadId(idx as u32);
            if let ThreadState::Running(cpu) = sched.thread_state(t) {
                if cpu_threads.get(cpu.index()).copied().flatten() != Some(t) {
                    self.report(
                        InvariantKind::Scheduling,
                        now,
                        None,
                        vec![cpu],
                        format!(
                            "scheduler records thread {t} Running on {cpu}, \
                             which is running a different thread"
                        ),
                    );
                }
            }
        }
    }

    /// Checks the stat conservation laws over one measurement interval:
    ///
    /// * `l1d_hits + l1d_misses == data ops issued`
    /// * `l1i_hits + l1i_misses == fetch ops issued`
    /// * every L1 miss reaches L2 exactly once:
    ///   `l1d_misses + l1i_misses == l2_hits + l2_misses + upgrades + silent_upgrades`
    /// * every L2 miss is served exactly once:
    ///   `l2_misses == cache_to_cache + memory_fetches`
    pub fn check_conservation(&mut self, stats: &MemStats, now: Cycle) {
        let l1d = stats.l1d_hits + stats.l1d_misses;
        if l1d != self.data_ops {
            let issued = self.data_ops;
            self.report(
                InvariantKind::Conservation,
                now,
                None,
                Vec::new(),
                format!("l1d_hits + l1d_misses = {l1d} but {issued} data ops were issued"),
            );
        }
        let l1i = stats.l1i_hits + stats.l1i_misses;
        if l1i != self.fetch_ops {
            let issued = self.fetch_ops;
            self.report(
                InvariantKind::Conservation,
                now,
                None,
                Vec::new(),
                format!("l1i_hits + l1i_misses = {l1i} but {issued} fetches were issued"),
            );
        }
        let l1_misses = stats.l1d_misses + stats.l1i_misses;
        let l2_lookups = stats.l2_hits + stats.l2_misses + stats.upgrades + stats.silent_upgrades;
        if l1_misses != l2_lookups {
            self.report(
                InvariantKind::Conservation,
                now,
                None,
                Vec::new(),
                format!("{l1_misses} L1 misses but {l2_lookups} L2 lookups recorded"),
            );
        }
        let served = stats.cache_to_cache + stats.memory_fetches;
        if stats.l2_misses != served {
            let misses = stats.l2_misses;
            self.report(
                InvariantKind::Conservation,
                now,
                None,
                Vec::new(),
                format!("{misses} L2 misses but {served} were served (c2c + memory)"),
            );
        }
    }
}

crate::impl_snap!(enum InvariantKind {
    0 => Coherence,
    1 => Inclusion,
    2 => TimeRegression,
    3 => Conservation,
    4 => Scheduling,
});
crate::impl_snap!(Violation {
    kind,
    cycle,
    addr,
    cpus,
    detail,
});
/// Hand-written [`Snap`](crate::checkpoint::Snap): encodes exactly the six
/// semantic fields the derived implementation always encoded, in the same
/// order. The `Scratch` working set is per-call memory with no meaning
/// across calls, so it stays out of the byte stream — checkpoint encodings
/// are unchanged — and a restored monitor simply starts with empty scratch.
impl crate::checkpoint::Snap for InvariantMonitor {
    fn encode_snap(&self, enc: &mut crate::checkpoint::Encoder) {
        self.protocol.encode_snap(enc);
        self.violations.encode_snap(enc);
        self.total_violations.encode_snap(enc);
        self.last_event_time.encode_snap(enc);
        self.data_ops.encode_snap(enc);
        self.fetch_ops.encode_snap(enc);
    }

    fn decode_snap(
        dec: &mut crate::checkpoint::Decoder<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::Snap;
        Ok(InvariantMonitor {
            protocol: Snap::decode_snap(dec)?,
            violations: Snap::decode_snap(dec)?,
            total_violations: Snap::decode_snap(dec)?,
            last_event_time: Snap::decode_snap(dec)?,
            data_ops: Snap::decode_snap(dec)?,
            fetch_ops: Snap::decode_snap(dec)?,
            scratch: Scratch::default(),
        })
    }
    fn snap_size_hint(&self) -> usize {
        self.protocol.snap_size_hint()
            + self.violations.snap_size_hint()
            + self.total_violations.snap_size_hint()
            + self.last_event_time.snap_size_hint()
            + self.data_ops.snap_size_hint()
            + self.fetch_ops.snap_size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CpuId;
    use crate::mem::{CacheConfig, MemoryConfig, Perturbation};
    use crate::ops::AccessKind;

    fn mem(protocol: CoherenceProtocol, cpus: usize) -> MemorySystem {
        let mut cfg = MemoryConfig::hpca2003();
        cfg.l2 = CacheConfig::new(8192, 4, 64).unwrap();
        cfg.protocol = protocol;
        MemorySystem::new(cfg, cpus, Perturbation::disabled()).unwrap()
    }

    #[test]
    fn healthy_traffic_is_clean() {
        let mut m = mem(CoherenceProtocol::Mosi, 4);
        let mut mon = InvariantMonitor::new(CoherenceProtocol::Mosi);
        let a = BlockAddr(5);
        for (i, (cpu, kind)) in [
            (0u32, AccessKind::Write),
            (1, AccessKind::Read),
            (2, AccessKind::Read),
            (1, AccessKind::Write),
            (0, AccessKind::Read),
        ]
        .into_iter()
        .enumerate()
        {
            let now = (i as u64 + 1) * 100;
            mon.observe_event(now);
            m.access(CpuId(cpu), a, kind, now);
            mon.note_data_op();
            mon.check_block(&m, a, now);
        }
        mon.check_conservation(m.stats(), 500);
        assert!(mon.is_clean(), "violations: {:?}", mon.violations());
    }

    #[test]
    fn forced_double_modified_is_caught_with_diagnostic() {
        let mut m = mem(CoherenceProtocol::Mosi, 4);
        let a = BlockAddr(17);
        m.access(CpuId(0), a, AccessKind::Write, 100);
        // Deliberately corrupt the protocol state: a second Modified holder.
        m.force_l2_state(CpuId(3), a, CoherenceState::Modified);
        let mut mon = InvariantMonitor::new(CoherenceProtocol::Mosi);
        mon.check_block(&m, a, 250);
        assert!(!mon.is_clean());
        let v = &mon.violations()[0];
        assert_eq!(v.kind, InvariantKind::Coherence);
        assert_eq!(v.addr, Some(a));
        assert_eq!(v.cycle, 250);
        assert!(v.cpus.contains(&CpuId(0)) && v.cpus.contains(&CpuId(3)));
        // The rendered report names block, CPUs and cycle.
        let text = v.to_string();
        assert!(text.contains("block 17"), "{text}");
        assert!(text.contains("cpu0") && text.contains("cpu3"), "{text}");
        assert!(text.contains("cycle 250"), "{text}");
    }

    #[test]
    fn illegal_state_for_protocol_is_caught() {
        let mut m = mem(CoherenceProtocol::Mosi, 2);
        let a = BlockAddr(3);
        m.force_l2_state(CpuId(1), a, CoherenceState::Exclusive);
        let mut mon = InvariantMonitor::new(CoherenceProtocol::Mosi);
        mon.check_block(&m, a, 10);
        assert!(mon
            .violations()
            .iter()
            .any(|v| v.detail.contains("illegal under Mosi")));
    }

    #[test]
    fn inclusion_violation_is_caught() {
        let mut m = mem(CoherenceProtocol::Mosi, 2);
        let a = BlockAddr(9);
        // Fill L1D + L2 on cpu0, then corrupt: drop the L2 copy only.
        m.access(CpuId(0), a, AccessKind::Write, 0);
        m.force_l2_state(CpuId(0), a, CoherenceState::Invalid);
        let mut mon = InvariantMonitor::new(CoherenceProtocol::Mosi);
        mon.check_block(&m, a, 77);
        assert!(mon
            .violations()
            .iter()
            .any(|v| v.kind == InvariantKind::Inclusion && v.cpus == vec![CpuId(0)]));
    }

    #[test]
    fn time_regression_is_caught() {
        let mut mon = InvariantMonitor::new(CoherenceProtocol::Mosi);
        mon.observe_event(100);
        mon.observe_event(100);
        assert!(mon.is_clean());
        mon.observe_event(99);
        assert_eq!(mon.violations().len(), 1);
        assert_eq!(mon.violations()[0].kind, InvariantKind::TimeRegression);
    }

    #[test]
    fn conservation_violation_is_caught() {
        let mut m = mem(CoherenceProtocol::Mosi, 1);
        m.access(CpuId(0), BlockAddr(1), AccessKind::Read, 0);
        let mut mon = InvariantMonitor::new(CoherenceProtocol::Mosi);
        // The access above was never noted, so hits + misses != issued ops.
        mon.check_conservation(m.stats(), 50);
        assert!(mon
            .violations()
            .iter()
            .any(|v| v.kind == InvariantKind::Conservation));
    }

    #[test]
    fn begin_interval_resets_op_counters_but_keeps_findings() {
        let mut mon = InvariantMonitor::new(CoherenceProtocol::Mosi);
        mon.note_data_op();
        mon.observe_event(10);
        mon.observe_event(5); // one finding
        mon.begin_interval();
        let m = mem(CoherenceProtocol::Mosi, 1);
        mon.check_conservation(m.stats(), 20); // 0 ops vs 0 stats: clean
        assert_eq!(mon.total_violations(), 1);
    }

    #[test]
    fn schedule_double_run_is_caught() {
        use crate::sched::SchedConfig;
        let mut sched = Scheduler::new(SchedConfig::default(), 4, 2).unwrap();
        let t0 = sched.dispatch(CpuId(0), 0).unwrap();
        let t1 = sched.dispatch(CpuId(1), 0).unwrap();
        let mut mon = InvariantMonitor::new(CoherenceProtocol::Mosi);
        mon.check_schedule(&sched, &[Some(t0), Some(t1)], 100);
        assert!(mon.is_clean(), "violations: {:?}", mon.violations());

        // Corrupt: re-record t0 as Running on cpu1 — now cpu0's slot
        // disagrees with the record, and t0 claims a CPU running t1.
        sched.force_running(t0, CpuId(1));
        mon.check_schedule(&sched, &[Some(t0), Some(t1)], 200);
        assert!(!mon.is_clean());
        assert!(mon
            .violations()
            .iter()
            .all(|v| v.kind == InvariantKind::Scheduling));
        assert!(mon.violations().len() >= 2);
    }

    #[test]
    fn same_thread_on_two_slots_is_caught() {
        use crate::sched::SchedConfig;
        let mut sched = Scheduler::new(SchedConfig::default(), 2, 2).unwrap();
        let t0 = sched.dispatch(CpuId(0), 0).unwrap();
        let mut mon = InvariantMonitor::new(CoherenceProtocol::Mosi);
        mon.check_schedule(&sched, &[Some(t0), Some(t0)], 50);
        assert!(mon
            .violations()
            .iter()
            .any(|v| v.detail.contains("two CPUs at once")));
    }

    #[test]
    fn violation_storage_is_capped_but_counted() {
        let mut mon = InvariantMonitor::new(CoherenceProtocol::Mosi);
        for t in 0..200u64 {
            mon.observe_event(1000 - t); // every event after the first regresses
        }
        assert_eq!(mon.total_violations(), 199);
        assert_eq!(mon.violations().len(), MAX_STORED_VIOLATIONS);
    }
}
