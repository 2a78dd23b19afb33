//! An untimed functional reference model of the snooping coherence
//! protocols, for differential testing against the timed simulator.
//!
//! The oracle tracks only what the protocol *specification* dictates: the
//! per-node state of each block and where each access must be served from.
//! It knows nothing about latencies, the bus, LRU, or capacity — which is
//! exactly the point: on traces whose working set fits the timed L2 (so no
//! eviction ever fires), the timed simulator's L2 states and data sources
//! must match the oracle after every single access. The differential suite
//! (`tests/oracle_diff.rs`) drives both on seeded random traces.
//!
//! What the oracle deliberately does **not** model: cache capacity and
//! eviction, the L1s, instruction fetches, timing of any kind, and stat
//! counters. Those are covered by the [`InvariantMonitor`](super::InvariantMonitor)
//! and the unit/property suites instead.

use std::collections::HashMap;

use crate::ids::{BlockAddr, CpuId};
use crate::mem::{AccessSource, CoherenceProtocol, CoherenceState};
use crate::ops::AccessKind;

/// Where the protocol specification says an access must be served from.
///
/// Coarser than [`AccessSource`]: the oracle has no L1, so both L1 and L2
/// hits collapse into [`OracleSource::LocalHit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleSource {
    /// Served locally with sufficient permission (timed: L1 or L2 hit,
    /// including a silent Exclusive → Modified upgrade).
    LocalHit,
    /// Served locally after an ownership-upgrade broadcast.
    Upgrade,
    /// Miss served by a remote cache owner.
    RemoteCache,
    /// Miss served by a memory controller.
    Memory,
}

impl OracleSource {
    /// Maps the timed simulator's [`AccessSource`] onto the oracle's coarser
    /// classification.
    pub fn from_timed(source: AccessSource) -> Self {
        match source {
            AccessSource::L1 | AccessSource::L2 => OracleSource::LocalHit,
            AccessSource::Upgrade => OracleSource::Upgrade,
            AccessSource::RemoteCache => OracleSource::RemoteCache,
            AccessSource::Memory => OracleSource::Memory,
        }
    }
}

/// The untimed reference model: per-node coherence state for every block
/// ever touched, evolved by the protocol's transition rules alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoherenceOracle {
    protocol: CoherenceProtocol,
    cpus: usize,
    states: HashMap<BlockAddr, Vec<CoherenceState>>,
}

impl CoherenceOracle {
    /// Creates an oracle for `cpus` nodes running `protocol`. All blocks
    /// start Invalid everywhere.
    pub fn new(protocol: CoherenceProtocol, cpus: usize) -> Self {
        assert!(cpus > 0, "oracle needs at least one node");
        CoherenceOracle {
            protocol,
            cpus,
            states: HashMap::new(),
        }
    }

    /// The protocol being modelled.
    pub fn protocol(&self) -> CoherenceProtocol {
        self.protocol
    }

    /// Number of nodes.
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    /// The reference state of `addr` at `cpu`.
    pub fn state(&self, cpu: CpuId, addr: BlockAddr) -> CoherenceState {
        self.states
            .get(&addr)
            .map_or(CoherenceState::Invalid, |v| v[cpu.index()])
    }

    /// Applies one access and returns where the specification says it must
    /// be served from.
    ///
    /// The transition rules are written from the protocol definition, not
    /// from the simulator's code, so the two disagree whenever either has a
    /// bug:
    ///
    /// * **Read, local copy valid** — local hit, no transition.
    /// * **Read miss** — a remote Modified owner goes Owned (MOSI/MOESI) or
    ///   writes back and goes Shared (MESI); a remote Exclusive holder goes
    ///   Shared. The requester gets Exclusive iff no other copy exists and
    ///   the protocol has E, else Shared. Served by the remote owner if one
    ///   exists, else by memory.
    /// * **Write, local Modified** — local hit.
    /// * **Write, local Exclusive** — silent upgrade to Modified, local hit.
    /// * **Write, local Shared/Owned** — upgrade broadcast: every remote
    ///   copy is invalidated, the writer goes Modified.
    /// * **Write miss** — every remote copy is invalidated, the writer goes
    ///   Modified; served by the remote owner if one existed, else memory.
    pub fn apply(&mut self, cpu: CpuId, addr: BlockAddr, kind: AccessKind) -> OracleSource {
        let me = cpu.index();
        assert!(me < self.cpus, "cpu {me} out of range");
        let protocol = self.protocol;
        let n = self.cpus;
        let states = self
            .states
            .entry(addr)
            .or_insert_with(|| vec![CoherenceState::Invalid; n]);
        match kind {
            AccessKind::Read => {
                if states[me].is_readable() {
                    return OracleSource::LocalHit;
                }
                let owner = (0..n).find(|&i| i != me && states[i].is_owner());
                let any_copy = (0..n).any(|i| i != me && states[i] != CoherenceState::Invalid);
                if let Some(o) = owner {
                    match states[o] {
                        CoherenceState::Modified => {
                            states[o] = if protocol.has_owned() {
                                CoherenceState::Owned
                            } else {
                                CoherenceState::Shared
                            };
                        }
                        CoherenceState::Exclusive => states[o] = CoherenceState::Shared,
                        _ => {}
                    }
                }
                states[me] = if !any_copy && protocol.has_exclusive() {
                    CoherenceState::Exclusive
                } else {
                    CoherenceState::Shared
                };
                if owner.is_some() {
                    OracleSource::RemoteCache
                } else {
                    OracleSource::Memory
                }
            }
            AccessKind::Write => match states[me] {
                CoherenceState::Modified => OracleSource::LocalHit,
                CoherenceState::Exclusive => {
                    states[me] = CoherenceState::Modified;
                    OracleSource::LocalHit
                }
                CoherenceState::Shared | CoherenceState::Owned => {
                    for (i, s) in states.iter_mut().enumerate() {
                        if i != me {
                            *s = CoherenceState::Invalid;
                        }
                    }
                    states[me] = CoherenceState::Modified;
                    OracleSource::Upgrade
                }
                CoherenceState::Invalid => {
                    let had_owner = (0..n).any(|i| i != me && states[i].is_owner());
                    for (i, s) in states.iter_mut().enumerate() {
                        if i != me {
                            *s = CoherenceState::Invalid;
                        }
                    }
                    states[me] = CoherenceState::Modified;
                    if had_owner {
                        OracleSource::RemoteCache
                    } else {
                        OracleSource::Memory
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mosi_read_write_sharing_script() {
        let mut o = CoherenceOracle::new(CoherenceProtocol::Mosi, 3);
        let a = BlockAddr(1);
        // Cold read: memory, Shared (no E in MOSI).
        assert_eq!(o.apply(CpuId(0), a, AccessKind::Read), OracleSource::Memory);
        assert_eq!(o.state(CpuId(0), a), CoherenceState::Shared);
        // Store from Shared pays an upgrade even with no other copy.
        assert_eq!(
            o.apply(CpuId(0), a, AccessKind::Write),
            OracleSource::Upgrade
        );
        assert_eq!(o.state(CpuId(0), a), CoherenceState::Modified);
        // Remote read: cache-to-cache, owner keeps the dirty block as Owned.
        assert_eq!(
            o.apply(CpuId(1), a, AccessKind::Read),
            OracleSource::RemoteCache
        );
        assert_eq!(o.state(CpuId(0), a), CoherenceState::Owned);
        assert_eq!(o.state(CpuId(1), a), CoherenceState::Shared);
        // Third node still reads cache-to-cache from the Owned copy.
        assert_eq!(
            o.apply(CpuId(2), a, AccessKind::Read),
            OracleSource::RemoteCache
        );
        // Writer invalidates everyone.
        assert_eq!(
            o.apply(CpuId(2), a, AccessKind::Write),
            OracleSource::Upgrade
        );
        assert_eq!(o.state(CpuId(0), a), CoherenceState::Invalid);
        assert_eq!(o.state(CpuId(1), a), CoherenceState::Invalid);
        assert_eq!(o.state(CpuId(2), a), CoherenceState::Modified);
    }

    #[test]
    fn mesi_exclusive_and_silent_upgrade() {
        let mut o = CoherenceOracle::new(CoherenceProtocol::Mesi, 2);
        let a = BlockAddr(2);
        assert_eq!(o.apply(CpuId(0), a, AccessKind::Read), OracleSource::Memory);
        assert_eq!(o.state(CpuId(0), a), CoherenceState::Exclusive);
        // Silent upgrade: no bus traffic.
        assert_eq!(
            o.apply(CpuId(0), a, AccessKind::Write),
            OracleSource::LocalHit
        );
        assert_eq!(o.state(CpuId(0), a), CoherenceState::Modified);
        // MESI remote read of dirty data: both end Shared (writeback).
        assert_eq!(
            o.apply(CpuId(1), a, AccessKind::Read),
            OracleSource::RemoteCache
        );
        assert_eq!(o.state(CpuId(0), a), CoherenceState::Shared);
        assert_eq!(o.state(CpuId(1), a), CoherenceState::Shared);
    }

    #[test]
    fn mesi_second_reader_demotes_exclusive() {
        let mut o = CoherenceOracle::new(CoherenceProtocol::Mesi, 2);
        let a = BlockAddr(3);
        o.apply(CpuId(0), a, AccessKind::Read);
        assert_eq!(
            o.apply(CpuId(1), a, AccessKind::Read),
            OracleSource::RemoteCache
        );
        assert_eq!(o.state(CpuId(0), a), CoherenceState::Shared);
        assert_eq!(o.state(CpuId(1), a), CoherenceState::Shared);
    }

    #[test]
    fn moesi_keeps_owned_and_exclusive() {
        let mut o = CoherenceOracle::new(CoherenceProtocol::Moesi, 2);
        let a = BlockAddr(4);
        o.apply(CpuId(0), a, AccessKind::Read);
        assert_eq!(o.state(CpuId(0), a), CoherenceState::Exclusive);
        o.apply(CpuId(0), a, AccessKind::Write);
        assert_eq!(
            o.apply(CpuId(1), a, AccessKind::Read),
            OracleSource::RemoteCache
        );
        assert_eq!(o.state(CpuId(0), a), CoherenceState::Owned);
    }

    #[test]
    fn write_miss_over_remote_owner_is_cache_to_cache() {
        let mut o = CoherenceOracle::new(CoherenceProtocol::Mosi, 2);
        let a = BlockAddr(5);
        o.apply(CpuId(0), a, AccessKind::Write);
        assert_eq!(
            o.apply(CpuId(1), a, AccessKind::Write),
            OracleSource::RemoteCache
        );
        assert_eq!(o.state(CpuId(0), a), CoherenceState::Invalid);
        assert_eq!(o.state(CpuId(1), a), CoherenceState::Modified);
    }

    #[test]
    fn write_miss_over_shared_copies_is_memory_served() {
        // Shared copies are clean and no cache owns the block, so memory
        // supplies the data even though remote copies get invalidated.
        let mut o = CoherenceOracle::new(CoherenceProtocol::Mosi, 3);
        let a = BlockAddr(6);
        o.apply(CpuId(0), a, AccessKind::Read);
        o.apply(CpuId(1), a, AccessKind::Read);
        assert_eq!(
            o.apply(CpuId(2), a, AccessKind::Write),
            OracleSource::Memory
        );
        assert_eq!(o.state(CpuId(0), a), CoherenceState::Invalid);
        assert_eq!(o.state(CpuId(1), a), CoherenceState::Invalid);
    }

    #[test]
    fn source_mapping_from_timed() {
        assert_eq!(
            OracleSource::from_timed(AccessSource::L1),
            OracleSource::LocalHit
        );
        assert_eq!(
            OracleSource::from_timed(AccessSource::L2),
            OracleSource::LocalHit
        );
        assert_eq!(
            OracleSource::from_timed(AccessSource::Upgrade),
            OracleSource::Upgrade
        );
        assert_eq!(
            OracleSource::from_timed(AccessSource::RemoteCache),
            OracleSource::RemoteCache
        );
        assert_eq!(
            OracleSource::from_timed(AccessSource::Memory),
            OracleSource::Memory
        );
    }
}
