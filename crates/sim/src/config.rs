//! Whole-machine configuration.

use crate::ids::Nanos;
use crate::mem::{CoherenceState, MemoryConfig};
use crate::noise::NoiseConfig;
use crate::proc::ProcessorConfig;
use crate::sched::SchedConfig;
use crate::SimError;

/// Test hook: which machine structure a [`FaultSpec`] corrupts.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Forcibly set `block` to `state` in `cpu`'s L2 (via the memory
    /// system's `force_l2_state` test hook), bypassing the protocol.
    CoherenceState {
        /// Index of the CPU whose L2 is corrupted.
        cpu: u32,
        /// Block address forced.
        block: u64,
        /// Coherence state planted.
        state: CoherenceState,
    },
    /// Forcibly record the committing thread as Running on `cpu` in the
    /// scheduler (or on the next CPU if it already runs there), so one
    /// thread appears to run on two CPUs at once — the scheduling invariant
    /// the monitor must catch.
    SchedulerDoubleRun {
        /// Index of the CPU the duplicate Running record points at.
        cpu: u32,
    },
}

impl FaultKind {
    /// The CPU index the fault targets (validated against the machine size).
    pub fn cpu(&self) -> u32 {
        match *self {
            FaultKind::CoherenceState { cpu, .. } | FaultKind::SchedulerDoubleRun { cpu } => cpu,
        }
    }
}

/// Test hook: a deterministic fault injection. When the machine's cumulative
/// commit count reaches `after_commits`, the configured [`FaultKind`] is
/// delivered (exactly once), and the invariant monitor — when one is enabled
/// — immediately re-checks the corrupted structure. Exists solely so the
/// executor-violation tests can plant an illegal state *mid-run* and verify
/// the violations channel reports it; never set it in real experiments.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Cumulative commit count (across warmup and measurement intervals) at
    /// which the fault fires, exactly once.
    pub after_commits: u64,
    /// What gets corrupted.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// Shorthand for the original coherence-corruption fault.
    pub fn coherence(after_commits: u64, cpu: u32, block: u64, state: CoherenceState) -> Self {
        FaultSpec {
            after_commits,
            kind: FaultKind::CoherenceState { cpu, block, state },
        }
    }

    /// Shorthand for the scheduler double-run fault.
    pub fn scheduler_double_run(after_commits: u64, cpu: u32) -> Self {
        FaultSpec {
            after_commits,
            kind: FaultKind::SchedulerDoubleRun { cpu },
        }
    }
}

/// Most processor nodes a machine may have: the memory system keeps one
/// `u64` of sharer bits per block (see [`SharerTable`]).
///
/// [`SharerTable`]: crate::mem::SharerTable
pub const MAX_CPUS: usize = 64;

/// Complete configuration of a simulated machine.
///
/// Construct via [`MachineConfig::hpca2003`] (the paper's 16-node E10000-like
/// target) or [`MachineConfig::e5000_like`] (the 12-CPU "real machine" of
/// §2.2), then customize with the `with_*` methods:
///
/// ```
/// use mtvar_sim::config::MachineConfig;
/// use mtvar_sim::proc::{OooConfig, ProcessorConfig};
///
/// let cfg = MachineConfig::hpca2003()
///     .with_processor(ProcessorConfig::OutOfOrder(OooConfig::with_rob_size(32)))
///     .with_perturbation(4, 12345);
/// assert_eq!(cfg.cpus, 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of processor nodes.
    pub cpus: usize,
    /// Memory-hierarchy geometry and latencies.
    pub memory: MemoryConfig,
    /// Processor timing model.
    pub processor: ProcessorConfig,
    /// Scheduler parameters.
    pub sched: SchedConfig,
    /// Maximum §3.3 perturbation added per L2 miss (ns); 0 disables.
    pub perturbation_max_ns: Nanos,
    /// Perturbation seed — *the* per-run knob for space-variability studies.
    pub perturbation_seed: u64,
    /// Environmental noise (None = the clean simulator of §3.2).
    pub noise: Option<NoiseConfig>,
    /// Record the Figure-1 scheduling-event log.
    pub record_sched_events: bool,
    /// Run the [`check::InvariantMonitor`](crate::check::InvariantMonitor)
    /// inside the event loop, re-verifying coherence/inclusion/conservation
    /// invariants after every memory operation. The monitor is read-only, so
    /// simulation results are identical either way; expect a modest
    /// slowdown.
    ///
    /// Defaults to `false`. A strict executor
    /// (`Executor::with_invariant_checks` in `mtvar-core`) monitors every
    /// run without setting this flag on the caller's configuration, so the
    /// configuration's `Debug` fingerprint, and every run seed derived from
    /// it, is the same in strict and observing sweeps.
    pub check_invariants: bool,
    /// Test hook: deterministic coherence-fault injection (see [`FaultSpec`]).
    /// Always `None` outside the invariant-channel test suites.
    #[doc(hidden)]
    pub fault: Option<FaultSpec>,
}

impl MachineConfig {
    /// The paper's §3.2.1 target: 16 nodes, 128 KB 4-way L1s, 4 MB 4-way L2,
    /// MOSI snooping, 50 ns hops, 80 ns DRAM, simple processor model, no
    /// perturbation, no noise.
    pub fn hpca2003() -> Self {
        MachineConfig {
            cpus: 16,
            memory: MemoryConfig::hpca2003(),
            processor: ProcessorConfig::Simple,
            sched: SchedConfig::default(),
            perturbation_max_ns: 0,
            perturbation_seed: 0,
            noise: None,
            record_sched_events: false,
            check_invariants: false,
            fault: None,
        }
    }

    /// The §2.2 "real machine": a 12-processor E5000-like system with
    /// environmental noise enabled (seeded per run).
    pub fn e5000_like(noise_seed: u64) -> Self {
        let mut cfg = MachineConfig::hpca2003();
        cfg.cpus = 12;
        // 512 KB unified L2 per the paper's E5000 description.
        cfg.memory.l2.size_bytes = 512 * 1024;
        cfg.noise = Some(NoiseConfig::default_with_seed(noise_seed));
        cfg
    }

    /// Replaces the processor model.
    pub fn with_processor(mut self, processor: ProcessorConfig) -> Self {
        self.processor = processor;
        self
    }

    /// Sets the §3.3 perturbation (magnitude in ns, per-run seed).
    pub fn with_perturbation(mut self, max_ns: Nanos, seed: u64) -> Self {
        self.perturbation_max_ns = max_ns;
        self.perturbation_seed = seed;
        self
    }

    /// Sets the number of CPUs.
    pub fn with_cpus(mut self, cpus: usize) -> Self {
        self.cpus = cpus;
        self
    }

    /// Replaces the L2 associativity (Experiment 1's knob), keeping size and
    /// block size fixed as the paper does.
    pub fn with_l2_associativity(mut self, ways: u32) -> Self {
        self.memory.l2.associativity = ways;
        self
    }

    /// Replaces the DRAM access latency (the Figure 4 knob, swept 80–90 ns).
    pub fn with_dram_latency_ns(mut self, ns: Nanos) -> Self {
        self.memory.mem_provide_ns = ns;
        self
    }

    /// Replaces the snooping coherence protocol (the paper's target uses
    /// MOSI).
    pub fn with_protocol(mut self, protocol: crate::mem::CoherenceProtocol) -> Self {
        self.memory.protocol = protocol;
        self
    }

    /// Switches the coherence transport from the snooping bus to per-region
    /// home-node directories (see [`home_of`](crate::mem::home_of)),
    /// keeping the protocol state machine (MOSI/MESI/MOESI) as configured —
    /// the organization that scales the machine past the paper's 16 CPUs.
    /// The resulting configuration is fingerprint-distinct from every
    /// snooping configuration, so golden keys and checkpoint-cache keys
    /// never collide across transports.
    pub fn with_directory_coherence(mut self) -> Self {
        self.memory.protocol = self.memory.protocol.directory();
        self
    }

    /// Enables the Figure-1 scheduling-event log.
    pub fn with_sched_log(mut self) -> Self {
        self.record_sched_events = true;
        self
    }

    /// Enables continuous invariant checking (see
    /// [`MachineConfig::check_invariants`]).
    pub fn with_invariant_checks(mut self) -> Self {
        self.check_invariants = true;
        self
    }

    /// Test hook: installs a deterministic coherence-fault injection (see
    /// [`FaultSpec`]). Only the executor-violation test suites should call
    /// this.
    #[doc(hidden)]
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Replaces the environmental-noise model.
    pub fn with_noise(mut self, noise: Option<NoiseConfig>) -> Self {
        self.noise = noise;
        self
    }

    /// Replaces the scheduler parameters.
    pub fn with_sched(mut self, sched: SchedConfig) -> Self {
        self.sched = sched;
        self
    }

    /// Validates the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the first inconsistency.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.cpus == 0 || self.cpus > MAX_CPUS {
            return Err(SimError::InvalidConfig {
                what: format!("machine needs 1 to {MAX_CPUS} CPUs, not {}", self.cpus),
            });
        }
        self.memory.validate()?;
        self.sched.validate()?;
        if let Some(noise) = &self.noise {
            noise.validate()?;
        }
        if let Some(fault) = &self.fault {
            if u64::from(fault.kind.cpu()) >= self.cpus as u64 {
                return Err(SimError::InvalidConfig {
                    what: format!(
                        "fault injection targets CPU {} but machine has {} CPUs",
                        fault.kind.cpu(),
                        self.cpus
                    ),
                });
            }
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::hpca2003()
    }
}

crate::impl_snap!(enum FaultKind {
    0 => CoherenceState { cpu, block, state },
    1 => SchedulerDoubleRun { cpu },
});
crate::impl_snap!(FaultSpec {
    after_commits,
    kind
});
crate::impl_snap!(MachineConfig {
    cpus,
    memory,
    processor,
    sched,
    perturbation_max_ns,
    perturbation_seed,
    noise,
    record_sched_events,
    check_invariants,
    fault,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::OooConfig;

    #[test]
    fn paper_defaults() {
        let cfg = MachineConfig::hpca2003();
        assert_eq!(cfg.cpus, 16);
        assert_eq!(cfg.memory.l2.size_bytes, 4 * 1024 * 1024);
        assert_eq!(cfg.memory.l2.associativity, 4);
        assert!(cfg.validate().is_ok());
        assert!(cfg.noise.is_none());
        assert_eq!(cfg.perturbation_max_ns, 0);
        assert!(!cfg.check_invariants);
    }

    #[test]
    fn invariant_checks_builder() {
        let cfg = MachineConfig::hpca2003().with_invariant_checks();
        assert!(cfg.check_invariants);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn e5000_has_noise_and_12_cpus() {
        let cfg = MachineConfig::e5000_like(7);
        assert_eq!(cfg.cpus, 12);
        assert!(cfg.noise.is_some());
        assert_eq!(cfg.memory.l2.size_bytes, 512 * 1024);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builder_methods_chain() {
        let cfg = MachineConfig::hpca2003()
            .with_cpus(4)
            .with_l2_associativity(2)
            .with_perturbation(4, 99)
            .with_processor(ProcessorConfig::OutOfOrder(OooConfig::with_rob_size(16)))
            .with_sched_log();
        assert_eq!(cfg.cpus, 4);
        assert_eq!(cfg.memory.l2.associativity, 2);
        assert_eq!(cfg.perturbation_max_ns, 4);
        assert!(cfg.record_sched_events);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_fields() {
        let cfg = MachineConfig::hpca2003().with_cpus(0);
        assert!(cfg.validate().is_err());
        let cfg = MachineConfig::hpca2003().with_cpus(MAX_CPUS);
        assert!(cfg.validate().is_ok());
        let cfg = MachineConfig::hpca2003().with_l2_associativity(3);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn sixty_five_cpus_is_an_invalid_config() {
        let cfg = MachineConfig::hpca2003().with_cpus(65);
        assert!(matches!(
            cfg.validate(),
            Err(SimError::InvalidConfig { .. })
        ));
        let cfg = cfg.with_directory_coherence();
        assert!(matches!(
            cfg.validate(),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn fault_spec_validation() {
        let fault = FaultSpec::coherence(5, 3, 0x40, CoherenceState::Exclusive);
        let cfg = MachineConfig::hpca2003().with_cpus(4).with_fault(fault);
        assert_eq!(cfg.fault, Some(fault));
        assert!(cfg.validate().is_ok());

        // A fault aimed at a CPU the machine doesn't have is rejected before
        // it can panic inside the memory system's node indexing.
        let cfg = MachineConfig::hpca2003().with_cpus(2).with_fault(fault);
        assert!(cfg.validate().is_err());

        // The scheduler fault is validated the same way.
        let fault = FaultSpec::scheduler_double_run(5, 3);
        let cfg = MachineConfig::hpca2003().with_cpus(2).with_fault(fault);
        assert!(cfg.validate().is_err());
    }
}
