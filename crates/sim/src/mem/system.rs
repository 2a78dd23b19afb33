//! The coherent memory system: per-node L1 I/D and L2 caches, a snooping
//! MOSI protocol over a shared interconnect (or a directory organization on
//! large machines), DRAM, and the paper's §3.3 timing-perturbation hook.
//!
//! Latencies follow §3.2.1 of the paper: with a 50 ns network traversal and
//! 80 ns DRAM, a block comes from memory in 180 ns and from another cache in
//! 125 ns (two traversals plus the 80 ns/25 ns provider times). Under the
//! directory variants a cache-to-cache transfer takes three traversals (via
//! the block's home node) instead of two, and transactions serialize at the
//! per-region home instead of one global root switch.

use super::cache::{CacheArray, CacheConfig, CoherenceState};
use super::directory::{home_of, Directory};
use super::filter::{words_for, SnoopFilter};
use crate::ids::{BlockAddr, CpuId, Cycle, Nanos};
use crate::ops::AccessKind;
use crate::rng::Xoshiro256StarStar;
use crate::SimError;

/// Which invalidation-based coherence protocol keeps the caches coherent,
/// and over which transport.
///
/// The paper's target uses MOSI snooping (§3.2.1); its simulator supports a
/// broad range of protocols (§3.2.3), and the ablation benches compare the
/// three classic variants. The `Dir*` variants run the *same* protocol
/// state machine over a per-region home-node directory (see
/// [`Directory`](super::Directory)) instead of a broadcast bus — the
/// scalable organization for machines past the paper's 16 nodes. Directory
/// and snooping variants are distinct here (rather than a separate config
/// field) so every derived configuration fingerprint, golden key, and
/// checkpoint-cache key distinguishes them automatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoherenceProtocol {
    /// Modified/Owned/Shared/Invalid — dirty sharing, cache-to-cache supply
    /// from the owner (the paper's protocol).
    #[default]
    Mosi,
    /// Modified/Exclusive/Shared/Invalid — clean-exclusive state with silent
    /// upgrades; dirty data is written back to memory when another node
    /// reads it.
    Mesi,
    /// The union: clean-exclusive silent upgrades *and* dirty sharing.
    Moesi,
    /// MOSI over a home-node directory instead of a snooping bus.
    DirMosi,
    /// MESI over a home-node directory.
    DirMesi,
    /// MOESI over a home-node directory.
    DirMoesi,
}

impl CoherenceProtocol {
    /// The underlying protocol state machine, with the transport stripped:
    /// `DirMesi.base() == Mesi`, `Mesi.base() == Mesi`.
    #[inline]
    pub fn base(self) -> Self {
        match self {
            CoherenceProtocol::DirMosi => CoherenceProtocol::Mosi,
            CoherenceProtocol::DirMesi => CoherenceProtocol::Mesi,
            CoherenceProtocol::DirMoesi => CoherenceProtocol::Moesi,
            other => other,
        }
    }

    /// The same protocol state machine over the directory transport:
    /// `Mesi.directory() == DirMesi`, idempotent on `Dir*` variants.
    #[inline]
    pub fn directory(self) -> Self {
        match self.base() {
            CoherenceProtocol::Mosi => CoherenceProtocol::DirMosi,
            CoherenceProtocol::Mesi => CoherenceProtocol::DirMesi,
            _ => CoherenceProtocol::DirMoesi,
        }
    }

    /// Whether coherence transactions route through home-node directories
    /// rather than a snooping broadcast.
    #[inline]
    pub fn is_directory(self) -> bool {
        matches!(
            self,
            CoherenceProtocol::DirMosi | CoherenceProtocol::DirMesi | CoherenceProtocol::DirMoesi
        )
    }

    /// Whether the protocol grants Exclusive on a read miss with no other
    /// sharers.
    #[inline]
    pub fn has_exclusive(self) -> bool {
        matches!(
            self.base(),
            CoherenceProtocol::Mesi | CoherenceProtocol::Moesi
        )
    }

    /// Whether a dirty block may stay dirty-shared (Owned) when another node
    /// reads it; otherwise the read forces a writeback and the block goes
    /// Shared-clean.
    #[inline]
    pub fn has_owned(self) -> bool {
        matches!(
            self.base(),
            CoherenceProtocol::Mosi | CoherenceProtocol::Moesi
        )
    }
}

/// Latency and geometry configuration for the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// L1 instruction-cache geometry (paper: 128 KB, 4-way, 64 B).
    pub l1i: CacheConfig,
    /// L1 data-cache geometry (paper: 128 KB, 4-way, 64 B).
    pub l1d: CacheConfig,
    /// Unified L2 geometry (paper: 4 MB, 4-way, 64 B).
    pub l2: CacheConfig,
    /// L1 hit latency (ns).
    pub l1_hit_ns: Nanos,
    /// L2 hit latency (ns).
    pub l2_hit_ns: Nanos,
    /// One interconnect traversal (paper: 50 ns, includes wire, sync,
    /// routing).
    pub hop_ns: Nanos,
    /// Time for a remote cache owner to provide data (paper: 25 ns).
    pub cache_provide_ns: Nanos,
    /// Time for a memory controller to provide data (paper: 80 ns).
    pub mem_provide_ns: Nanos,
    /// Address-bus/root-switch occupancy per coherence transaction; the
    /// serialization point that couples processors' timing.
    pub bus_occupancy_ns: Nanos,
    /// Latency of an ownership upgrade (S/O → M) broadcast.
    pub upgrade_ns: Nanos,
    /// The snooping protocol in force.
    pub protocol: CoherenceProtocol,
}

impl MemoryConfig {
    /// The paper's §3.2.1 E10000-like hierarchy.
    pub fn hpca2003() -> Self {
        MemoryConfig {
            l1i: CacheConfig {
                size_bytes: 128 * 1024,
                associativity: 4,
                block_bytes: 64,
            },
            l1d: CacheConfig {
                size_bytes: 128 * 1024,
                associativity: 4,
                block_bytes: 64,
            },
            l2: CacheConfig {
                size_bytes: 4 * 1024 * 1024,
                associativity: 4,
                block_bytes: 64,
            },
            l1_hit_ns: 1,
            l2_hit_ns: 12,
            hop_ns: 50,
            cache_provide_ns: 25,
            mem_provide_ns: 80,
            bus_occupancy_ns: 2,
            upgrade_ns: 50,
            protocol: CoherenceProtocol::Mosi,
        }
    }

    /// Validates cache geometries and latencies.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if a cache geometry is
    /// inconsistent or any latency is zero where a zero would stall progress.
    pub fn validate(&self) -> Result<(), SimError> {
        self.l1i.validate()?;
        self.l1d.validate()?;
        self.l2.validate()?;
        if self.l1_hit_ns == 0 {
            return Err(SimError::InvalidConfig {
                what: "l1_hit_ns must be >= 1 to guarantee time progress".into(),
            });
        }
        Ok(())
    }

    /// End-to-end latency of a miss served by another cache
    /// (paper: 125 ns).
    pub fn cache_to_cache_ns(&self) -> Nanos {
        2 * self.hop_ns + self.cache_provide_ns
    }

    /// End-to-end latency of a miss served by memory (paper: 180 ns).
    pub fn memory_fetch_ns(&self) -> Nanos {
        2 * self.hop_ns + self.mem_provide_ns
    }
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessSource {
    /// L1 hit.
    L1,
    /// Local L2 hit with sufficient permission.
    L2,
    /// Ownership upgrade (block present, write permission acquired).
    Upgrade,
    /// Cache-to-cache transfer from a remote owner.
    RemoteCache,
    /// Fetched from a memory controller.
    Memory,
}

/// Timing outcome of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Total latency in ns (== cycles at 1 GHz), including bus wait and
    /// perturbation.
    pub latency: Nanos,
    /// Where the data came from.
    pub source: AccessSource,
}

/// Aggregate memory-system counters for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// L1 instruction-cache hits.
    pub l1i_hits: u64,
    /// L1 instruction-cache misses.
    pub l1i_misses: u64,
    /// L1 data-cache hits.
    pub l1d_hits: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// L2 hits (with sufficient permission).
    pub l2_hits: u64,
    /// L2 misses (coherence transactions issued).
    pub l2_misses: u64,
    /// Ownership upgrades that required a bus broadcast (S/O → M).
    pub upgrades: u64,
    /// Silent Exclusive → Modified upgrades (MESI/MOESI only).
    pub silent_upgrades: u64,
    /// Misses served by a remote cache owner.
    pub cache_to_cache: u64,
    /// Misses served by memory.
    pub memory_fetches: u64,
    /// Dirty blocks written back on eviction.
    pub writebacks: u64,
    /// Remote copies invalidated by stores/upgrades.
    pub invalidations: u64,
    /// Total ns spent waiting for the snooping bus.
    pub bus_wait_ns: u64,
    /// Total perturbation ns injected (§3.3).
    pub perturbation_ns: u64,
}

impl MemStats {
    /// Total data-cache accesses observed.
    pub fn data_accesses(&self) -> u64 {
        self.l1d_hits + self.l1d_misses
    }

    /// Total instruction fetches observed.
    pub fn instruction_fetches(&self) -> u64 {
        self.l1i_hits + self.l1i_misses
    }

    /// L1 data-cache miss ratio; 0.0 for a run with no data accesses.
    pub fn l1d_miss_ratio(&self) -> f64 {
        let total = self.data_accesses();
        if total == 0 {
            0.0
        } else {
            self.l1d_misses as f64 / total as f64
        }
    }

    /// L1 instruction-cache miss ratio; 0.0 for a run with no fetches.
    pub fn l1i_miss_ratio(&self) -> f64 {
        let total = self.instruction_fetches();
        if total == 0 {
            0.0
        } else {
            self.l1i_misses as f64 / total as f64
        }
    }

    /// L2 miss ratio over data + instruction L2 lookups; 0.0 for a run with
    /// no L2 traffic.
    pub fn l2_miss_ratio(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses + self.upgrades;
        if total == 0 {
            0.0
        } else {
            self.l2_misses as f64 / total as f64
        }
    }
}

/// Per-node cache stack.
#[derive(Debug, Clone, PartialEq)]
struct Node {
    l1i: CacheArray,
    l1d: CacheArray,
    l2: CacheArray,
}

/// The §3.3 pseudo-random timing perturbation: a uniform integer in
/// `[0, max_ns]` added to every L2 miss. `max_ns = 0` restores the
/// deterministic baseline simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Perturbation {
    max_ns: Nanos,
    rng: Xoshiro256StarStar,
}

impl Perturbation {
    /// Creates the perturbation source. The paper's default is `max_ns = 4`;
    /// each run of a multi-simulation experiment uses a unique `seed`.
    pub fn new(max_ns: Nanos, seed: u64) -> Self {
        Perturbation {
            max_ns,
            rng: Xoshiro256StarStar::new(seed ^ 0x5EED_CAFE_F00D_D00D),
        }
    }

    /// Disabled perturbation (deterministic baseline).
    pub fn disabled() -> Self {
        Perturbation::new(0, 0)
    }

    /// Maximum perturbation magnitude in ns.
    pub fn max_ns(&self) -> Nanos {
        self.max_ns
    }

    /// Draws the next perturbation value: uniform in `[0, max_ns]`, exactly
    /// zero when disabled. Public so distribution tests can sample the
    /// stream directly; the memory system draws once per L2 miss.
    #[inline]
    pub fn draw(&mut self) -> Nanos {
        if self.max_ns == 0 {
            0
        } else {
            self.rng.next_below(self.max_ns + 1)
        }
    }
}

/// Interconnect-probe counters: how many remote tag probes (owner scans)
/// and point-to-point invalidation messages the coherence transport issued.
/// Purely diagnostic — the broadcast-vs-filtered-vs-directory comparison in
/// EXPERIMENTS.md is built from these. Never serialized, never part of run
/// results, and excluded from machine equality (always-equal `PartialEq`,
/// like the invariant monitor's scratch state), so a restored machine whose
/// counters restart at zero still compares equal to the live one.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeStats {
    /// Remote L2 tag probes issued while locating an owner on a miss.
    pub scan_probes: u64,
    /// Point-to-point invalidation messages sent to candidate holders.
    pub invalidate_probes: u64,
}

impl PartialEq for ProbeStats {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for ProbeStats {}

/// Reusable candidate-bitset buffer for scans that mutate the machine while
/// iterating. Sized once at construction (`ceil(cpus / 64)` words), so the
/// steady-state hot path never allocates. Contents are dead outside a single
/// scan; equality always holds so leftover bits never distinguish machines.
#[derive(Debug, Clone, Default)]
struct ScanScratch(Vec<u64>);

impl PartialEq for ScanScratch {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// The full coherent memory system shared by all processors.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySystem {
    config: MemoryConfig,
    nodes: Vec<Node>,
    bus_free_at: Cycle,
    perturbation: Perturbation,
    stats: MemStats,
    /// Timestamp of the most recent access; the bus model requires callers
    /// to present non-decreasing timestamps (checked in debug builds).
    last_access: Cycle,
    /// Conservative L2-residency summary narrowing snoop scans; derived
    /// state, maintained at every residency transition and rebuilt on
    /// checkpoint restore (never serialized, so snapshot bytes are those of
    /// the broadcast implementation). Disabled under directory protocols,
    /// which track residency exactly in `directory` instead.
    filter: SnoopFilter,
    /// Exact per-block sharer directory (`Some` iff the protocol is a
    /// `Dir*` variant). Derived state like the filter: rebuilt from cache
    /// contents on restore, never serialized.
    directory: Option<Directory>,
    /// Per-home occupancy registers for the directory transport (empty for
    /// snooping protocols, which serialize at the single root switch via
    /// `bus_free_at`). Architectural timing state: serialized, but only for
    /// directory configurations, so snooping snapshot encodings are
    /// byte-identical to the pre-directory implementation.
    home_free_at: Vec<Cycle>,
    /// Scratch bitset for candidate scans (see [`ScanScratch`]).
    scan_scratch: ScanScratch,
    /// Diagnostic probe counters (see [`ProbeStats`]).
    probes: ProbeStats,
}

impl MemorySystem {
    /// Builds the memory system for `cpus` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `cpus == 0` or the memory
    /// configuration is inconsistent.
    pub fn new(
        config: MemoryConfig,
        cpus: usize,
        perturbation: Perturbation,
    ) -> Result<Self, SimError> {
        if cpus == 0 {
            return Err(SimError::InvalidConfig {
                what: "memory system needs at least one node".into(),
            });
        }
        config.validate()?;
        let mut nodes = Vec::with_capacity(cpus);
        for _ in 0..cpus {
            nodes.push(Node {
                l1i: CacheArray::new(config.l1i)?,
                l1d: CacheArray::new(config.l1d)?,
                l2: CacheArray::new(config.l2)?,
            });
        }
        let dir = config.protocol.is_directory();
        Ok(MemorySystem {
            config,
            nodes,
            bus_free_at: 0,
            perturbation,
            stats: MemStats::default(),
            last_access: 0,
            filter: if dir {
                SnoopFilter::disabled()
            } else {
                SnoopFilter::new(cpus)
            },
            directory: dir.then(|| Directory::new(cpus)),
            home_free_at: if dir { vec![0; cpus] } else { Vec::new() },
            scan_scratch: ScanScratch(Vec::with_capacity(words_for(cpus))),
            probes: ProbeStats::default(),
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Resets counters (e.g. at the end of warmup) without touching cache
    /// contents. The diagnostic probe counters reset too, so measurement
    /// intervals report measurement probes only.
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.probes = ProbeStats::default();
    }

    /// Replaces the perturbation stream — the per-run knob of §3.3. Cache
    /// contents are untouched, so two machines that differ only here start
    /// from identical initial conditions.
    pub fn set_perturbation(&mut self, perturbation: Perturbation) {
        self.perturbation = perturbation;
    }

    /// Performs a data access by `cpu` to `addr` at time `now`.
    ///
    /// Returns the access latency (ns) and the level that supplied the data.
    /// State transitions follow the MOSI snooping protocol; L2 misses receive
    /// the configured pseudo-random perturbation.
    pub fn access(
        &mut self,
        cpu: CpuId,
        addr: BlockAddr,
        kind: AccessKind,
        now: Cycle,
    ) -> AccessOutcome {
        let n = cpu.index();
        // 1. L1D.
        let l1_state = self.nodes[n].l1d.touch(addr);
        let l1_ok = match kind {
            AccessKind::Read => l1_state.is_readable(),
            AccessKind::Write => l1_state.is_writable(),
        };
        if l1_ok {
            self.stats.l1d_hits += 1;
            return AccessOutcome {
                latency: self.config.l1_hit_ns,
                source: AccessSource::L1,
            };
        }
        self.stats.l1d_misses += 1;
        let outcome = self.l2_access(n, addr, kind, now, false);
        // Fill L1D with the resulting permission.
        let l2_state = self.nodes[n].l2.probe(addr);
        let l1_fill = if l2_state.is_writable() {
            CoherenceState::Modified
        } else {
            CoherenceState::Shared
        };
        self.nodes[n].l1d.insert(addr, l1_fill);
        outcome
    }

    /// Performs an instruction fetch by `cpu` of `code` at time `now`.
    ///
    /// An L1I hit is free (fully pipelined); a miss pays the L2/coherence
    /// path like a data read.
    pub fn fetch(&mut self, cpu: CpuId, code: BlockAddr, now: Cycle) -> Nanos {
        let n = cpu.index();
        if self.nodes[n].l1i.touch(code).is_readable() {
            self.stats.l1i_hits += 1;
            return 0;
        }
        self.stats.l1i_misses += 1;
        let outcome = self.l2_access(n, code, AccessKind::Read, now, true);
        self.nodes[n].l1i.insert(code, CoherenceState::Shared);
        outcome.latency
    }

    /// L2-and-below access path. `instruction` only routes stats.
    fn l2_access(
        &mut self,
        n: usize,
        addr: BlockAddr,
        kind: AccessKind,
        now: Cycle,
        _instruction: bool,
    ) -> AccessOutcome {
        let l2_state = self.nodes[n].l2.touch(addr);
        match kind {
            AccessKind::Read if l2_state.is_readable() => {
                self.stats.l2_hits += 1;
                return AccessOutcome {
                    latency: self.config.l2_hit_ns,
                    source: AccessSource::L2,
                };
            }
            AccessKind::Write if l2_state.is_writable() => {
                self.stats.l2_hits += 1;
                return AccessOutcome {
                    latency: self.config.l2_hit_ns,
                    source: AccessSource::L2,
                };
            }
            AccessKind::Write if l2_state == CoherenceState::Exclusive => {
                // Clean-exclusive: the defining MESI/MOESI optimization — a
                // store needs no bus transaction at all.
                self.stats.silent_upgrades += 1;
                self.nodes[n].l2.set_state(addr, CoherenceState::Modified);
                return AccessOutcome {
                    latency: self.config.l2_hit_ns,
                    source: AccessSource::L2,
                };
            }
            AccessKind::Write if l2_state.is_readable() => {
                // S or O: ownership upgrade — invalidate remote copies. On
                // the snooping bus the upgrade is one broadcast; under a
                // directory the requester asks the home, which invalidates
                // the exact sharers point-to-point and acks (two traversals).
                self.stats.upgrades += 1;
                let latency = if self.config.protocol.is_directory() {
                    let wait = self.arbitrate_home(home_of(addr, self.nodes.len()), now);
                    wait + 2 * self.config.hop_ns + self.config.l2_hit_ns
                } else {
                    let wait = self.arbitrate_bus(now);
                    wait + self.config.upgrade_ns + self.config.l2_hit_ns
                };
                self.invalidate_others(n, addr);
                self.nodes[n].l2.set_state(addr, CoherenceState::Modified);
                return AccessOutcome {
                    latency,
                    source: AccessSource::Upgrade,
                };
            }
            _ => {}
        }

        // Full L2 miss: one coherence transaction. Snooping serializes at
        // the root switch; the directory serializes at the block's home
        // node, so transactions to different regions proceed independently.
        self.stats.l2_misses += 1;
        let directory = self.config.protocol.is_directory();
        let wait = if directory {
            self.arbitrate_home(home_of(addr, self.nodes.len()), now)
        } else {
            self.arbitrate_bus(now)
        };
        let pert = self.perturbation.draw();
        self.stats.perturbation_ns += pert;

        // Locate a remote owner (M/O/E copy) and whether any copy exists,
        // probing only the candidate holders: the snoop filter's region
        // summary (conservative, clear bit proves absence) or the
        // directory's exact sharer set. Differentially checked against the
        // full broadcast in debug builds either way.
        let (owner, any_remote_copy) = self.scan_candidates(n, addr);

        // Data supply: cache-to-cache is two traversals on the snooping bus
        // (owner overhears the broadcast) but three via a directory (the
        // home forwards the request to the owner). A home-node memory fetch
        // costs the same two traversals as the snooping bus: the home *is*
        // the memory controller for its region.
        let (provide, source) = match owner {
            Some(_) => {
                self.stats.cache_to_cache += 1;
                let forward_hop = if directory { self.config.hop_ns } else { 0 };
                (
                    forward_hop + self.config.cache_provide_ns,
                    AccessSource::RemoteCache,
                )
            }
            None => {
                self.stats.memory_fetches += 1;
                (self.config.mem_provide_ns, AccessSource::Memory)
            }
        };
        let latency = wait + 2 * self.config.hop_ns + provide + pert;

        // Protocol state transitions.
        let my_new_state = match kind {
            AccessKind::Read => {
                if let Some(o) = owner {
                    match self.nodes[o].l2.probe(addr) {
                        CoherenceState::Modified => {
                            if self.config.protocol.has_owned() {
                                // MOSI/MOESI: the dirty owner keeps supplying.
                                self.nodes[o].l2.set_state(addr, CoherenceState::Owned);
                            } else {
                                // MESI: the read forces a writeback; both
                                // copies end up Shared-clean.
                                self.stats.writebacks += 1;
                                self.nodes[o].l2.set_state(addr, CoherenceState::Shared);
                            }
                            // Its L1 copy loses write permission.
                            downgrade_l1(&mut self.nodes[o], addr);
                        }
                        CoherenceState::Exclusive => {
                            // Clean-exclusive supplier downgrades silently.
                            self.nodes[o].l2.set_state(addr, CoherenceState::Shared);
                        }
                        _ => {}
                    }
                }
                if !any_remote_copy && self.config.protocol.has_exclusive() {
                    CoherenceState::Exclusive
                } else {
                    CoherenceState::Shared
                }
            }
            AccessKind::Write => {
                self.invalidate_others(n, addr);
                CoherenceState::Modified
            }
        };

        // Insert into our L2 (and handle the victim).
        if let Some(ev) = self.nodes[n].l2.insert(addr, my_new_state) {
            if ev.state.is_dirty() {
                self.stats.writebacks += 1;
            }
            self.residency_evict(n, ev.addr);
            // Inclusion: the victim leaves our L1s too.
            self.nodes[n].l1d.invalidate(ev.addr);
            self.nodes[n].l1i.invalidate(ev.addr);
        }
        // A full miss only runs when our own L2 held no copy, so the insert
        // is always a fresh fill.
        self.residency_fill(n, addr);

        AccessOutcome { latency, source }
    }

    /// Records a fresh L2 fill in whichever residency tracker the transport
    /// uses: the snoop filter's region summary or the exact directory.
    #[inline]
    fn residency_fill(&mut self, n: usize, addr: BlockAddr) {
        match &mut self.directory {
            Some(dir) => dir.note_fill(n, addr),
            None => self.filter.note_fill(n, addr),
        }
    }

    /// Records the loss of a resident L2 copy (eviction or invalidation) in
    /// the active residency tracker.
    #[inline]
    fn residency_evict(&mut self, n: usize, addr: BlockAddr) {
        match &mut self.directory {
            Some(dir) => dir.note_evict(n, addr),
            None => self.filter.note_evict(n, addr),
        }
    }

    /// Loads the candidate-holder bitset for `addr` (filter region bits or
    /// exact directory sharers) into the scan scratch, with requester `n`
    /// masked out. The scratch is pre-sized at construction, so this never
    /// allocates.
    fn load_candidates(&mut self, n: usize, addr: BlockAddr) {
        let words: &[u64] = match &self.directory {
            Some(dir) => dir.candidates(addr),
            None => self.filter.candidates(addr),
        };
        self.scan_scratch.0.clear();
        self.scan_scratch.0.extend_from_slice(words);
        self.scan_scratch.0[n / 64] &= !(1u64 << (n % 64));
    }

    /// Probes the candidate holders of `addr` (requester `n` excluded) for
    /// a remote owner (M/O/E copy) and whether any valid copy exists. Exact
    /// by the trackers' contracts — a clear filter bit proves absence, and
    /// directory sharer sets are exact — which debug builds verify against
    /// the full broadcast scan.
    fn scan_candidates(&mut self, n: usize, addr: BlockAddr) -> (Option<usize>, bool) {
        self.load_candidates(n, addr);
        let mut owner: Option<usize> = None;
        let mut any_remote_copy = false;
        let mut probed = 0u64;
        for w in 0..self.scan_scratch.0.len() {
            let mut bits = self.scan_scratch.0[w];
            while bits != 0 {
                let i = (w << 6) | (bits.trailing_zeros() as usize);
                bits &= bits - 1;
                probed += 1;
                let st = self.nodes[i].l2.probe(addr);
                if st != CoherenceState::Invalid {
                    any_remote_copy = true;
                    if st.is_owner() && owner.is_none() {
                        owner = Some(i);
                    }
                }
            }
        }
        self.probes.scan_probes += probed;
        debug_assert_eq!(
            (owner, any_remote_copy),
            self.broadcast_scan(n, addr),
            "candidate scan diverged from the full broadcast"
        );
        (owner, any_remote_copy)
    }

    /// Serializes a coherence transaction through the root switch; returns
    /// the wait time (ns).
    ///
    /// A single free-at register only models queueing correctly when
    /// requests arrive in time order; the machine guarantees that by timing
    /// every access at its event time.
    fn arbitrate_bus(&mut self, now: Cycle) -> Nanos {
        debug_assert!(
            now >= self.last_access,
            "memory-system timestamps must be non-decreasing ({now} < {})",
            self.last_access
        );
        self.last_access = now;
        let start = self.bus_free_at.max(now);
        self.bus_free_at = start + self.config.bus_occupancy_ns;
        let wait = start - now;
        self.stats.bus_wait_ns += wait;
        wait
    }

    /// Serializes a directory transaction at the block's home node; returns
    /// the wait time (ns). Same single free-at queueing model as the
    /// snooping root switch, but one register per home, so transactions to
    /// blocks homed on different nodes never contend — the decoupling that
    /// lets directory machines scale past the paper's 16 processors.
    fn arbitrate_home(&mut self, home: usize, now: Cycle) -> Nanos {
        debug_assert!(
            now >= self.last_access,
            "memory-system timestamps must be non-decreasing ({now} < {})",
            self.last_access
        );
        self.last_access = now;
        let start = self.home_free_at[home].max(now);
        self.home_free_at[home] = start + self.config.bus_occupancy_ns;
        let wait = start - now;
        self.stats.bus_wait_ns += wait;
        wait
    }

    /// Owner/sharer scan probing every remote node — the reference the
    /// filtered path must agree with, and the fallback for machines too
    /// large for the presence vector.
    fn broadcast_scan(&self, n: usize, addr: BlockAddr) -> (Option<usize>, bool) {
        let mut owner: Option<usize> = None;
        let mut any_remote_copy = false;
        for (i, node) in self.nodes.iter().enumerate() {
            if i == n {
                continue;
            }
            let st = node.l2.probe(addr);
            if st != CoherenceState::Invalid {
                any_remote_copy = true;
                if st.is_owner() && owner.is_none() {
                    owner = Some(i);
                }
            }
        }
        (owner, any_remote_copy)
    }

    /// Invalidates every remote copy of `addr` (L2 + both L1s), counting
    /// invalidations. Only the candidate holders are visited — the filter's
    /// region summary or the directory's exact sharers; an invalidate on a
    /// non-resident node is a no-op, so skipping proven non-holders changes
    /// nothing (checked in debug builds).
    fn invalidate_others(&mut self, n: usize, addr: BlockAddr) {
        self.load_candidates(n, addr);
        #[cfg(debug_assertions)]
        for (i, node) in self.nodes.iter().enumerate() {
            if i != n && self.scan_scratch.0[i / 64] & (1u64 << (i % 64)) == 0 {
                debug_assert_eq!(
                    node.l2.probe(addr),
                    CoherenceState::Invalid,
                    "node {i} skipped by the candidate scan holds a copy"
                );
            }
        }
        // Invalidation mutates the directory entry being iterated, so walk a
        // detached scratch (no allocation: ownership moves out and back).
        let scratch = std::mem::take(&mut self.scan_scratch.0);
        let mut probed = 0u64;
        for (w, &word) in scratch.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = (w << 6) | (bits.trailing_zeros() as usize);
                bits &= bits - 1;
                probed += 1;
                self.invalidate_node(i, addr);
            }
        }
        self.probes.invalidate_probes += probed;
        self.scan_scratch.0 = scratch;
    }

    /// Invalidates node `i`'s copy of `addr` across its cache stack,
    /// keeping the stats and the residency tracker in step.
    fn invalidate_node(&mut self, i: usize, addr: BlockAddr) {
        let old = self.nodes[i].l2.invalidate(addr);
        if old != CoherenceState::Invalid {
            self.stats.invalidations += 1;
            self.residency_evict(i, addr);
            self.nodes[i].l1d.invalidate(addr);
            self.nodes[i].l1i.invalidate(addr);
        }
    }

    /// Number of processor nodes in the system.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total resident blocks across every cache array — the dominant term
    /// of a machine snapshot's size, used to pre-reserve encoder capacity.
    pub fn resident_blocks_total(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.l1i.resident_blocks() + n.l1d.resident_blocks() + n.l2.resident_blocks())
            .sum()
    }

    /// Returns the MOSI state of `addr` in `cpu`'s L2 (for tests and
    /// invariant checks).
    pub fn l2_state(&self, cpu: CpuId, addr: BlockAddr) -> CoherenceState {
        self.nodes[cpu.index()].l2.probe(addr)
    }

    /// Returns the state of `addr` in `cpu`'s L1 data cache (for inclusion
    /// checks; a snoop probe, no LRU update).
    pub fn l1d_state(&self, cpu: CpuId, addr: BlockAddr) -> CoherenceState {
        self.nodes[cpu.index()].l1d.probe(addr)
    }

    /// Returns the state of `addr` in `cpu`'s L1 instruction cache (for
    /// inclusion checks; a snoop probe, no LRU update).
    pub fn l1i_state(&self, cpu: CpuId, addr: BlockAddr) -> CoherenceState {
        self.nodes[cpu.index()].l1i.probe(addr)
    }

    /// Test hook: forcibly sets `addr`'s state in `cpu`'s L2, bypassing the
    /// protocol. Exists solely so the invariant-checking tests can plant
    /// deliberately broken coherence states and verify the
    /// [`check`](crate::check) machinery catches them; never call it from
    /// simulation code.
    #[doc(hidden)]
    pub fn force_l2_state(&mut self, cpu: CpuId, addr: BlockAddr, state: CoherenceState) {
        let n = cpu.index();
        if state == CoherenceState::Invalid {
            if self.nodes[n].l2.invalidate(addr) != CoherenceState::Invalid {
                self.residency_evict(n, addr);
            }
        } else if !self.nodes[n].l2.set_state(addr, state) {
            let evicted = self.nodes[n].l2.insert(addr, state);
            if let Some(ev) = evicted {
                self.residency_evict(n, ev.addr);
            }
            self.residency_fill(n, addr);
        }
    }

    /// The snoop filter's residency summary (for tests asserting that a
    /// restored machine rebuilds the identical filter). Disabled — empty —
    /// under directory protocols.
    pub fn snoop_filter(&self) -> &SnoopFilter {
        &self.filter
    }

    /// The home-node directory (`Some` iff the protocol is a `Dir*`
    /// variant); for tests asserting the rebuilt-on-restore contract.
    pub fn directory(&self) -> Option<&Directory> {
        self.directory.as_ref()
    }

    /// Diagnostic interconnect-probe counters accumulated since the last
    /// [`Self::reset_stats`].
    pub fn probe_stats(&self) -> ProbeStats {
        self.probes
    }

    /// Checks the protocol's single-writer invariant for `addr`: at most one
    /// M copy, and an M copy excludes any other valid copy.
    pub fn check_coherence_invariant(&self, addr: BlockAddr) -> bool {
        let mut modified = 0usize;
        let mut exclusive = 0usize;
        let mut owned = 0usize;
        let mut valid = 0usize;
        for node in &self.nodes {
            match node.l2.probe(addr) {
                CoherenceState::Modified => {
                    modified += 1;
                    valid += 1;
                }
                CoherenceState::Exclusive => {
                    exclusive += 1;
                    valid += 1;
                }
                CoherenceState::Owned => {
                    owned += 1;
                    valid += 1;
                }
                CoherenceState::Shared => valid += 1,
                CoherenceState::Invalid => {}
            }
        }
        modified <= 1
            && exclusive <= 1
            && owned <= 1
            && ((modified == 0 && exclusive == 0) || valid == 1)
            && !(modified == 1 && owned == 1)
    }
}

impl crate::checkpoint::Snap for CoherenceProtocol {
    fn encode_snap(&self, enc: &mut crate::checkpoint::Encoder) {
        enc.put_u8(match self {
            CoherenceProtocol::Mosi => 0,
            CoherenceProtocol::Mesi => 1,
            CoherenceProtocol::Moesi => 2,
            CoherenceProtocol::DirMosi => 3,
            CoherenceProtocol::DirMesi => 4,
            CoherenceProtocol::DirMoesi => 5,
        });
    }
    fn decode_snap(
        dec: &mut crate::checkpoint::Decoder<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        match dec.get_u8()? {
            0 => Ok(CoherenceProtocol::Mosi),
            1 => Ok(CoherenceProtocol::Mesi),
            2 => Ok(CoherenceProtocol::Moesi),
            3 => Ok(CoherenceProtocol::DirMosi),
            4 => Ok(CoherenceProtocol::DirMesi),
            5 => Ok(CoherenceProtocol::DirMoesi),
            _ => Err(crate::checkpoint::CheckpointError::Corrupt {
                what: "CoherenceProtocol tag".into(),
            }),
        }
    }
    fn snap_size_hint(&self) -> usize {
        1
    }
}

crate::impl_snap!(MemoryConfig {
    l1i,
    l1d,
    l2,
    l1_hit_ns,
    l2_hit_ns,
    hop_ns,
    cache_provide_ns,
    mem_provide_ns,
    bus_occupancy_ns,
    upgrade_ns,
    protocol,
});
crate::impl_snap!(MemStats {
    l1i_hits,
    l1i_misses,
    l1d_hits,
    l1d_misses,
    l2_hits,
    l2_misses,
    upgrades,
    silent_upgrades,
    cache_to_cache,
    memory_fetches,
    writebacks,
    invalidations,
    bus_wait_ns,
    perturbation_ns,
});
crate::impl_snap!(Node { l1i, l1d, l2 });
crate::impl_snap!(Perturbation { max_ns, rng });

/// Hand-written [`Snap`](crate::checkpoint::Snap): encodes exactly the six
/// architectural fields the derived implementation always encoded, in the
/// same order — the snoop filter and the directory are derived state,
/// rebuilt from the restored cache contents, keeping snooping checkpoint
/// bytes (and fingerprints) identical to the pre-filter encoding. The only
/// addition the directory organization makes — its per-home occupancy
/// registers — is appended *after* those six fields and *only* for `Dir*`
/// protocols, so every snooping configuration's encoding is untouched.
impl crate::checkpoint::Snap for MemorySystem {
    fn encode_snap(&self, enc: &mut crate::checkpoint::Encoder) {
        self.config.encode_snap(enc);
        self.nodes.encode_snap(enc);
        self.bus_free_at.encode_snap(enc);
        self.perturbation.encode_snap(enc);
        self.stats.encode_snap(enc);
        self.last_access.encode_snap(enc);
        if self.config.protocol.is_directory() {
            self.home_free_at.encode_snap(enc);
        }
    }

    fn decode_snap(
        dec: &mut crate::checkpoint::Decoder<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::{CheckpointError, Snap};
        let config = MemoryConfig::decode_snap(dec)?;
        let nodes: Vec<Node> = Snap::decode_snap(dec)?;
        let bus_free_at = Snap::decode_snap(dec)?;
        let perturbation = Snap::decode_snap(dec)?;
        let stats = Snap::decode_snap(dec)?;
        let last_access = Snap::decode_snap(dec)?;
        let dir = config.protocol.is_directory();
        let home_free_at: Vec<Cycle> = if dir {
            Snap::decode_snap(dec)?
        } else {
            Vec::new()
        };
        // Validate the directory register count, then rebuild the derived
        // residency state (snoop filter or directory) from the restored
        // cache contents.
        let cpus = nodes.len();
        if dir && home_free_at.len() != cpus {
            return Err(CheckpointError::Corrupt {
                what: "home occupancy register count".into(),
            });
        }
        let (mut filter, mut directory) = if dir {
            (SnoopFilter::disabled(), Some(Directory::new(cpus)))
        } else {
            (SnoopFilter::new(cpus), None)
        };
        for (i, node) in nodes.iter().enumerate() {
            node.l2.for_each_resident(|addr, _| match &mut directory {
                Some(d) => d.note_fill(i, addr),
                None => filter.note_fill(i, addr),
            });
        }
        // A decoded machine is a fork template: its filter's counts, like
        // its line arrays, are shared by the forks until they write them.
        filter.share();
        Ok(MemorySystem {
            config,
            nodes,
            bus_free_at,
            perturbation,
            stats,
            last_access,
            filter,
            directory,
            home_free_at,
            scan_scratch: ScanScratch(Vec::with_capacity(words_for(cpus))),
            probes: ProbeStats::default(),
        })
    }

    fn snap_size_hint(&self) -> usize {
        // `home_free_at` is counted unconditionally — an over-estimate on
        // snooping configs, which is the direction hints are allowed to err.
        self.config.snap_size_hint()
            + self.nodes.snap_size_hint()
            + self.bus_free_at.snap_size_hint()
            + self.perturbation.snap_size_hint()
            + self.stats.snap_size_hint()
            + self.last_access.snap_size_hint()
            + self.home_free_at.snap_size_hint()
    }
}

/// Downgrades a node's L1D copy of `addr` to read-only (used when its L2
/// loses write permission).
fn downgrade_l1(node: &mut Node, addr: BlockAddr) {
    if node.l1d.probe(addr).is_writable() {
        node.l1d.set_state(addr, CoherenceState::Shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(cpus: usize) -> MemorySystem {
        let mut cfg = MemoryConfig::hpca2003();
        // Small caches so tests exercise evictions.
        cfg.l1i = CacheConfig::new(1024, 2, 64).unwrap();
        cfg.l1d = CacheConfig::new(1024, 2, 64).unwrap();
        cfg.l2 = CacheConfig::new(8192, 4, 64).unwrap();
        MemorySystem::new(cfg, cpus, Perturbation::disabled()).unwrap()
    }

    #[test]
    fn paper_latencies() {
        let cfg = MemoryConfig::hpca2003();
        assert_eq!(cfg.cache_to_cache_ns(), 125);
        assert_eq!(cfg.memory_fetch_ns(), 180);
    }

    #[test]
    fn cold_read_comes_from_memory_then_hits() {
        let mut m = sys(2);
        let a = BlockAddr(100);
        let first = m.access(CpuId(0), a, AccessKind::Read, 0);
        assert_eq!(first.source, AccessSource::Memory);
        assert_eq!(first.latency, 180);
        let second = m.access(CpuId(0), a, AccessKind::Read, 1000);
        assert_eq!(second.source, AccessSource::L1);
        assert_eq!(second.latency, 1);
        assert_eq!(m.stats().memory_fetches, 1);
        assert_eq!(m.stats().l1d_hits, 1);
    }

    #[test]
    fn cache_to_cache_transfer_after_remote_write() {
        let mut m = sys(2);
        let a = BlockAddr(7);
        // CPU 0 writes (M copy).
        let w = m.access(CpuId(0), a, AccessKind::Write, 0);
        assert_eq!(w.source, AccessSource::Memory);
        assert_eq!(m.l2_state(CpuId(0), a), CoherenceState::Modified);
        // CPU 1 reads: served cache-to-cache, owner downgrades to O.
        let r = m.access(CpuId(1), a, AccessKind::Read, 1000);
        assert_eq!(r.source, AccessSource::RemoteCache);
        assert_eq!(r.latency, 125);
        assert_eq!(m.l2_state(CpuId(0), a), CoherenceState::Owned);
        assert_eq!(m.l2_state(CpuId(1), a), CoherenceState::Shared);
        assert!(m.check_coherence_invariant(a));
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut m = sys(3);
        let a = BlockAddr(9);
        m.access(CpuId(0), a, AccessKind::Read, 0);
        m.access(CpuId(1), a, AccessKind::Read, 100);
        // CPU 2 writes: both copies invalidated.
        m.access(CpuId(2), a, AccessKind::Write, 200);
        assert_eq!(m.l2_state(CpuId(0), a), CoherenceState::Invalid);
        assert_eq!(m.l2_state(CpuId(1), a), CoherenceState::Invalid);
        assert_eq!(m.l2_state(CpuId(2), a), CoherenceState::Modified);
        assert!(m.stats().invalidations >= 2);
        assert!(m.check_coherence_invariant(a));
    }

    #[test]
    fn upgrade_on_store_to_shared_block() {
        let mut m = sys(2);
        let a = BlockAddr(11);
        m.access(CpuId(0), a, AccessKind::Read, 0);
        m.access(CpuId(1), a, AccessKind::Read, 10);
        let up = m.access(CpuId(0), a, AccessKind::Write, 20);
        assert_eq!(up.source, AccessSource::Upgrade);
        assert_eq!(m.l2_state(CpuId(0), a), CoherenceState::Modified);
        assert_eq!(m.l2_state(CpuId(1), a), CoherenceState::Invalid);
        assert_eq!(m.stats().upgrades, 1);
    }

    #[test]
    fn store_hit_in_l1_after_write() {
        let mut m = sys(1);
        let a = BlockAddr(3);
        m.access(CpuId(0), a, AccessKind::Write, 0);
        let again = m.access(CpuId(0), a, AccessKind::Write, 10);
        assert_eq!(again.source, AccessSource::L1);
    }

    #[test]
    fn read_after_own_write_hits_l1() {
        let mut m = sys(1);
        let a = BlockAddr(3);
        m.access(CpuId(0), a, AccessKind::Write, 0);
        let r = m.access(CpuId(0), a, AccessKind::Read, 10);
        assert_eq!(r.source, AccessSource::L1);
    }

    #[test]
    fn owner_l1_loses_write_permission_on_remote_read() {
        let mut m = sys(2);
        let a = BlockAddr(5);
        m.access(CpuId(0), a, AccessKind::Write, 0);
        m.access(CpuId(1), a, AccessKind::Read, 100);
        // CPU 0 stores again: its L1 copy must no longer be writable, and the
        // store must invalidate CPU 1 (upgrade from Owned).
        let w = m.access(CpuId(0), a, AccessKind::Write, 200);
        assert_eq!(w.source, AccessSource::Upgrade);
        assert_eq!(m.l2_state(CpuId(1), a), CoherenceState::Invalid);
        assert!(m.check_coherence_invariant(a));
    }

    #[test]
    fn instruction_fetch_path() {
        let mut m = sys(2);
        let c = BlockAddr(0xC0);
        let lat = m.fetch(CpuId(0), c, 0);
        assert_eq!(lat, 180); // cold: from memory
        let lat2 = m.fetch(CpuId(0), c, 10);
        assert_eq!(lat2, 0); // L1I hit is free
        assert_eq!(m.stats().l1i_hits, 1);
        assert_eq!(m.stats().l1i_misses, 1);
    }

    #[test]
    fn bus_contention_serializes_transactions() {
        let mut m = sys(2);
        // Two misses at the same instant: the second waits for the bus.
        let a = m.access(CpuId(0), BlockAddr(1000), AccessKind::Read, 0);
        let b = m.access(CpuId(1), BlockAddr(2000), AccessKind::Read, 0);
        assert_eq!(a.latency, 180);
        assert_eq!(b.latency, 180 + m.config().bus_occupancy_ns);
        assert_eq!(m.stats().bus_wait_ns, m.config().bus_occupancy_ns);
    }

    #[test]
    fn perturbation_adds_bounded_latency_and_is_seed_deterministic() {
        let mk = |seed| {
            let mut cfg = MemoryConfig::hpca2003();
            cfg.l2 = CacheConfig::new(8192, 4, 64).unwrap();
            MemorySystem::new(cfg, 1, Perturbation::new(4, seed)).unwrap()
        };
        let mut m1 = mk(1);
        let mut m2 = mk(1);
        let mut m3 = mk(2);
        let mut same = true;
        let mut diff = false;
        for i in 0..200u64 {
            let a = BlockAddr(10_000 + i * 17);
            let l1 = m1.access(CpuId(0), a, AccessKind::Read, i * 1000).latency;
            let l2 = m2.access(CpuId(0), a, AccessKind::Read, i * 1000).latency;
            let l3 = m3.access(CpuId(0), a, AccessKind::Read, i * 1000).latency;
            assert!((180..=184).contains(&l1), "latency {l1} out of range");
            same &= l1 == l2;
            diff |= l1 != l3;
        }
        assert!(same, "same seed must give identical latencies");
        assert!(diff, "different seeds should diverge");
        assert!(m1.stats().perturbation_ns > 0);
    }

    #[test]
    fn l2_eviction_back_invalidates_l1() {
        let mut m = sys(1);
        // L2: 8192 B, 4-way, 64 B => 32 sets. Blocks k*32 collide in set 0.
        let conflicting: Vec<BlockAddr> = (0..5).map(|k| BlockAddr(k * 32)).collect();
        for &a in &conflicting {
            m.access(CpuId(0), a, AccessKind::Read, 0);
        }
        // The first block was evicted from L2; inclusion says L1 lost it too,
        // so a re-access must miss all the way to memory.
        let r = m.access(CpuId(0), conflicting[0], AccessKind::Read, 100);
        assert_eq!(r.source, AccessSource::Memory);
    }

    #[test]
    fn rejects_zero_nodes() {
        let cfg = MemoryConfig::hpca2003();
        assert!(MemorySystem::new(cfg, 0, Perturbation::disabled()).is_err());
    }

    fn sys_with(protocol: CoherenceProtocol, cpus: usize) -> MemorySystem {
        let mut cfg = MemoryConfig::hpca2003();
        cfg.l2 = CacheConfig::new(8192, 4, 64).unwrap();
        cfg.protocol = protocol;
        MemorySystem::new(cfg, cpus, Perturbation::disabled()).unwrap()
    }

    #[test]
    fn mesi_grants_exclusive_on_sole_read() {
        let mut m = sys_with(CoherenceProtocol::Mesi, 2);
        let a = BlockAddr(40);
        m.access(CpuId(0), a, AccessKind::Read, 0);
        assert_eq!(m.l2_state(CpuId(0), a), CoherenceState::Exclusive);
        // A second reader demotes both to Shared.
        m.access(CpuId(1), a, AccessKind::Read, 100);
        assert_eq!(m.l2_state(CpuId(0), a), CoherenceState::Shared);
        assert_eq!(m.l2_state(CpuId(1), a), CoherenceState::Shared);
        assert!(m.check_coherence_invariant(a));
    }

    #[test]
    fn mesi_silent_upgrade_needs_no_bus() {
        let mut m = sys_with(CoherenceProtocol::Mesi, 2);
        let a = BlockAddr(41);
        m.access(CpuId(0), a, AccessKind::Read, 0); // -> E
        let w = m.access(CpuId(0), a, AccessKind::Write, 100);
        assert_eq!(w.source, AccessSource::L2);
        assert_eq!(w.latency, m.config().l2_hit_ns);
        assert_eq!(m.l2_state(CpuId(0), a), CoherenceState::Modified);
        assert_eq!(m.stats().silent_upgrades, 1);
        assert_eq!(m.stats().upgrades, 0);
    }

    #[test]
    fn mosi_never_grants_exclusive() {
        let mut m = sys_with(CoherenceProtocol::Mosi, 2);
        let a = BlockAddr(42);
        m.access(CpuId(0), a, AccessKind::Read, 0);
        assert_eq!(m.l2_state(CpuId(0), a), CoherenceState::Shared);
        // A store from Shared pays a bus upgrade even with no other copies.
        let w = m.access(CpuId(0), a, AccessKind::Write, 100);
        assert_eq!(w.source, AccessSource::Upgrade);
        assert_eq!(m.stats().upgrades, 1);
        assert_eq!(m.stats().silent_upgrades, 0);
    }

    #[test]
    fn mesi_read_of_dirty_block_forces_writeback() {
        let mut m = sys_with(CoherenceProtocol::Mesi, 2);
        let a = BlockAddr(43);
        m.access(CpuId(0), a, AccessKind::Write, 0); // -> M on cpu0
        let before = m.stats().writebacks;
        let r = m.access(CpuId(1), a, AccessKind::Read, 100);
        assert_eq!(r.source, AccessSource::RemoteCache);
        assert_eq!(m.stats().writebacks, before + 1);
        assert_eq!(m.l2_state(CpuId(0), a), CoherenceState::Shared);
        assert_eq!(m.l2_state(CpuId(1), a), CoherenceState::Shared);
    }

    #[test]
    fn moesi_keeps_dirty_sharing_and_exclusive() {
        let mut m = sys_with(CoherenceProtocol::Moesi, 3);
        let a = BlockAddr(44);
        // Sole read -> Exclusive.
        m.access(CpuId(0), a, AccessKind::Read, 0);
        assert_eq!(m.l2_state(CpuId(0), a), CoherenceState::Exclusive);
        // Silent upgrade -> M; remote read -> owner keeps O (no writeback).
        m.access(CpuId(0), a, AccessKind::Write, 50);
        let before = m.stats().writebacks;
        m.access(CpuId(1), a, AccessKind::Read, 100);
        assert_eq!(m.stats().writebacks, before);
        assert_eq!(m.l2_state(CpuId(0), a), CoherenceState::Owned);
        assert_eq!(m.l2_state(CpuId(1), a), CoherenceState::Shared);
        assert!(m.check_coherence_invariant(a));
    }

    #[test]
    fn exclusive_supplier_provides_cache_to_cache() {
        let mut m = sys_with(CoherenceProtocol::Mesi, 2);
        let a = BlockAddr(45);
        m.access(CpuId(0), a, AccessKind::Read, 0); // E on cpu0
        let r = m.access(CpuId(1), a, AccessKind::Read, 100);
        assert_eq!(r.source, AccessSource::RemoteCache);
        assert_eq!(r.latency, m.config().cache_to_cache_ns());
    }

    #[test]
    fn ratio_helpers_are_zero_on_empty_runs() {
        // A zero-access run must report 0.0 ratios, not NaN.
        let s = MemStats::default();
        assert_eq!(s.l1d_miss_ratio(), 0.0);
        assert_eq!(s.l1i_miss_ratio(), 0.0);
        assert_eq!(s.l2_miss_ratio(), 0.0);
        assert_eq!(s.data_accesses(), 0);
        assert_eq!(s.instruction_fetches(), 0);
    }

    #[test]
    fn ratio_helpers_match_counters() {
        let mut m = sys(2);
        m.access(CpuId(0), BlockAddr(1), AccessKind::Read, 0); // miss
        m.access(CpuId(0), BlockAddr(1), AccessKind::Read, 10); // hit
        m.fetch(CpuId(0), BlockAddr(0xC0), 20); // miss
        let s = m.stats();
        assert!((s.l1d_miss_ratio() - 0.5).abs() < 1e-12);
        assert!((s.l1i_miss_ratio() - 1.0).abs() < 1e-12);
        assert!(s.l2_miss_ratio() > 0.0);
    }

    #[test]
    fn probe_accessors_report_l1_and_node_count() {
        let mut m = sys(2);
        assert_eq!(m.node_count(), 2);
        let a = BlockAddr(21);
        m.access(CpuId(0), a, AccessKind::Write, 0);
        assert_eq!(m.l1d_state(CpuId(0), a), CoherenceState::Modified);
        assert_eq!(m.l1d_state(CpuId(1), a), CoherenceState::Invalid);
        assert_eq!(m.l1i_state(CpuId(0), a), CoherenceState::Invalid);
        m.fetch(CpuId(1), a, 100);
        assert_eq!(m.l1i_state(CpuId(1), a), CoherenceState::Shared);
    }

    #[test]
    fn force_l2_state_plants_arbitrary_states() {
        let mut m = sys(2);
        let a = BlockAddr(30);
        m.force_l2_state(CpuId(0), a, CoherenceState::Modified);
        m.force_l2_state(CpuId(1), a, CoherenceState::Modified);
        assert_eq!(m.l2_state(CpuId(0), a), CoherenceState::Modified);
        assert_eq!(m.l2_state(CpuId(1), a), CoherenceState::Modified);
        assert!(!m.check_coherence_invariant(a));
        m.force_l2_state(CpuId(1), a, CoherenceState::Invalid);
        assert!(m.check_coherence_invariant(a));
    }

    #[test]
    fn reset_stats_keeps_cache_contents() {
        let mut m = sys(1);
        let a = BlockAddr(77);
        m.access(CpuId(0), a, AccessKind::Read, 0);
        m.reset_stats();
        assert_eq!(m.stats().l1d_misses, 0);
        let r = m.access(CpuId(0), a, AccessKind::Read, 10);
        assert_eq!(r.source, AccessSource::L1);
    }
}
