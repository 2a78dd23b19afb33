//! Differential testing of the two coherence transports: seeded random
//! traces driven through a snooping memory system and a directory memory
//! system in lockstep, for all three protocol state machines, on ≤16-CPU
//! configurations where both transports are defined.
//!
//! The directory organization changes *where* transactions serialize —
//! never what the protocol decides, nor whom it probes: both transports
//! consult the same exact sharer table. So given the same access sequence
//! the two backends must agree on every access's source class, every cache
//! state at every level, every probe count, and every statistic except bus
//! waiting time (the only quantity the transport's arbitration structure is
//! allowed to move). A second suite pins the directory side
//! against the untimed [`CoherenceOracle`] inside the no-eviction envelope,
//! with the invariant monitor watching throughout — the same discipline
//! `oracle_diff.rs` applies to snooping.
//!
//! [`CoherenceOracle`]: mtvar_sim::check::oracle::CoherenceOracle

use mtvar_sim::check::oracle::{CoherenceOracle, OracleSource};
use mtvar_sim::check::InvariantMonitor;
use mtvar_sim::ids::{BlockAddr, CpuId};
use mtvar_sim::mem::{CacheConfig, CoherenceProtocol, MemoryConfig, MemorySystem, Perturbation};
use mtvar_sim::ops::AccessKind;
use mtvar_sim::rng::Xoshiro256StarStar;

const BLOCKS: u64 = 512;
const PERT_SEED: u64 = 0xD1FF_D1FF;

const BASE_PROTOCOLS: [CoherenceProtocol; 3] = [
    CoherenceProtocol::Mosi,
    CoherenceProtocol::Mesi,
    CoherenceProtocol::Moesi,
];

/// A small-cache memory system (evictions are frequent) under `protocol`.
fn small_mem(protocol: CoherenceProtocol, cpus: usize) -> MemorySystem {
    let mut cfg = MemoryConfig::hpca2003();
    cfg.l1i = CacheConfig::new(512, 2, 64).unwrap();
    cfg.l1d = CacheConfig::new(512, 2, 64).unwrap();
    cfg.l2 = CacheConfig::new(8192, 4, 64).unwrap();
    cfg.protocol = protocol;
    MemorySystem::new(cfg, cpus, Perturbation::new(4, PERT_SEED)).unwrap()
}

fn random_trace(
    rng: &mut Xoshiro256StarStar,
    cpus: usize,
    len: usize,
) -> Vec<(CpuId, BlockAddr, AccessKind)> {
    (0..len)
        .map(|_| {
            (
                CpuId(rng.next_below(cpus as u64) as u32),
                BlockAddr(rng.next_below(BLOCKS)),
                if rng.next_bool(0.4) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            )
        })
        .collect()
}

/// Drives `trace` through a snooping and a directory machine in lockstep
/// and asserts they agree on everything but arbitration waiting time.
fn diff_transports(base: CoherenceProtocol, cpus: usize, trace: &[(CpuId, BlockAddr, AccessKind)]) {
    let mut snoop = small_mem(base, cpus);
    let mut dir = small_mem(base.directory(), cpus);
    let mut now = 0u64;
    for (step, &(cpu, addr, kind)) in trace.iter().enumerate() {
        now += 1000;
        let s = snoop.access(cpu, addr, kind, now);
        let d = dir.access(cpu, addr, kind, now);
        assert_eq!(
            s.source, d.source,
            "{base:?} cpus={cpus} step {step}: transports served {cpu} {kind:?} \
             block {} from different classes",
            addr.0,
        );
        // `ProbeStats` equality always holds (it is diagnostic), so compare
        // the counters themselves.
        let (sp, dp) = (snoop.probe_stats(), dir.probe_stats());
        assert_eq!(
            (sp.scan_probes, sp.invalidate_probes),
            (dp.scan_probes, dp.invalidate_probes),
            "{base:?} cpus={cpus} step {step}: transports probed different nodes",
        );
        for i in 0..cpus {
            let c = CpuId(i as u32);
            assert_eq!(
                snoop.l2_state(c, addr),
                dir.l2_state(c, addr),
                "{base:?} cpus={cpus} step {step}: {c} L2 state of block {} diverged",
                addr.0,
            );
        }
    }
    // Final sweep: every block, every cache level, every node.
    for b in 0..BLOCKS {
        let a = BlockAddr(b);
        for i in 0..cpus {
            let c = CpuId(i as u32);
            assert_eq!(
                snoop.l2_state(c, a),
                dir.l2_state(c, a),
                "{base:?} L2 {c} block {b}"
            );
            assert_eq!(
                snoop.l1d_state(c, a),
                dir.l1d_state(c, a),
                "{base:?} L1D {c} block {b}"
            );
            assert_eq!(
                snoop.l1i_state(c, a),
                dir.l1i_state(c, a),
                "{base:?} L1I {c} block {b}"
            );
        }
    }
    // Statistics: identical except the transport-defined waiting time.
    let mut s = *snoop.stats();
    let mut d = *dir.stats();
    s.bus_wait_ns = 0;
    d.bus_wait_ns = 0;
    assert_eq!(
        s, d,
        "{base:?} cpus={cpus}: counters diverged across transports"
    );
}

#[test]
fn transports_agree_on_random_traces() {
    for base in BASE_PROTOCOLS {
        for cpus in [2usize, 5, 16] {
            let mut rng = Xoshiro256StarStar::new(0xC0DE ^ (cpus as u64) << 8);
            for _ in 0..12 {
                let len = rng.next_range(100, 600) as usize;
                let trace = random_trace(&mut rng, cpus, len);
                diff_transports(base, cpus, &trace);
            }
        }
    }
}

#[test]
fn transports_agree_under_write_contention() {
    // All-write traces over a handful of blocks stress the invalidation and
    // upgrade paths, where the directory consults exact sharer sets.
    for base in BASE_PROTOCOLS {
        let mut rng = Xoshiro256StarStar::new(0xBEA7 ^ 0x11);
        for _ in 0..8 {
            let trace: Vec<_> = (0..300)
                .map(|_| {
                    (
                        CpuId(rng.next_below(16) as u32),
                        BlockAddr(rng.next_below(8)),
                        AccessKind::Write,
                    )
                })
                .collect();
            diff_transports(base, 16, &trace);
        }
    }
}

/// The oracle-diff discipline of `oracle_diff.rs`, applied to the directory
/// transport: inside the no-eviction envelope (L2 holds the whole 0..128
/// space) the directory-timed system must match the untimed specification
/// state-for-state and source-for-source, with the invariant monitor clean.
fn oracle_diff_directory(protocol: CoherenceProtocol, seed: u64) {
    const CPUS: usize = 4;
    const ORACLE_BLOCKS: u64 = 128;
    assert!(protocol.is_directory());
    let mut rng = Xoshiro256StarStar::new(seed);
    for _ in 0..24 {
        let len = rng.next_range(50, 400) as usize;
        let mut mem = small_mem(protocol, CPUS);
        let mut oracle = CoherenceOracle::new(protocol, CPUS);
        let mut monitor = InvariantMonitor::new(protocol);
        let mut now = 0u64;
        for step in 0..len {
            now += 1000;
            let cpu = CpuId(rng.next_below(CPUS as u64) as u32);
            let addr = BlockAddr(rng.next_below(ORACLE_BLOCKS));
            let kind = if rng.next_bool(0.4) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let timed = mem.access(cpu, addr, kind, now);
            let expected = oracle.apply(cpu, addr, kind);
            assert_eq!(
                OracleSource::from_timed(timed.source),
                expected,
                "{protocol:?} step {step}: {cpu} {kind:?} block {} served from {:?}, \
                 spec says {expected:?}",
                addr.0,
                timed.source,
            );
            for i in 0..CPUS {
                let c = CpuId(i as u32);
                assert_eq!(
                    mem.l2_state(c, addr),
                    oracle.state(c, addr),
                    "{protocol:?} step {step}: {c} L2 state of block {} diverged from spec",
                    addr.0,
                );
            }
            monitor.note_data_op();
            monitor.check_block(&mem, addr, now);
        }
        monitor.check_conservation(mem.stats(), now);
        assert!(
            monitor.is_clean(),
            "{protocol:?}: monitor found violations: {:?}",
            monitor.violations()
        );
    }
}

#[test]
fn dir_mosi_matches_reference_model() {
    oracle_diff_directory(CoherenceProtocol::DirMosi, 0x0D1F_1001);
}

#[test]
fn dir_mesi_matches_reference_model() {
    oracle_diff_directory(CoherenceProtocol::DirMesi, 0x0D1F_1002);
}

#[test]
fn dir_moesi_matches_reference_model() {
    oracle_diff_directory(CoherenceProtocol::DirMoesi, 0x0D1F_1003);
}
