//! Randomized tests of the simulator's structural invariants: cache
//! bookkeeping, the MOSI single-writer property under arbitrary access
//! interleavings, RNG bounds, and checkpoint equivalence.
//!
//! Formerly written against the `proptest` crate; rewritten as deterministic
//! seeded sweeps (driven by the crate's own [`Xoshiro256StarStar`]) so the
//! suite builds with no network access.

use mtvar_sim::config::MachineConfig;
use mtvar_sim::ids::{BlockAddr, CpuId};
use mtvar_sim::machine::Machine;
use mtvar_sim::mem::{
    CacheArray, CacheConfig, CoherenceState, MemoryConfig, MemorySystem, Perturbation, SharerTable,
};
use mtvar_sim::ops::AccessKind;
use mtvar_sim::rng::Xoshiro256StarStar;
use mtvar_sim::workload::SharingWorkload;

/// A random access sequence: (cpu in 0..4, block in 0..96, is_write).
fn accesses(rng: &mut Xoshiro256StarStar, max: usize) -> Vec<(u8, u16, bool)> {
    let n = rng.next_range(1, max as u64 - 1) as usize;
    (0..n)
        .map(|_| {
            (
                rng.next_below(4) as u8,
                rng.next_below(96) as u16,
                rng.next_bool(0.5),
            )
        })
        .collect()
}

fn small_mem(cpus: usize) -> MemorySystem {
    let mut cfg = MemoryConfig::hpca2003();
    cfg.l1i = CacheConfig::new(512, 2, 64).unwrap();
    cfg.l1d = CacheConfig::new(512, 2, 64).unwrap();
    cfg.l2 = CacheConfig::new(4096, 2, 64).unwrap();
    MemorySystem::new(cfg, cpus, Perturbation::new(4, 9)).unwrap()
}

#[test]
fn mosi_single_writer_invariant_holds() {
    let mut rng = Xoshiro256StarStar::new(0x51_0001);
    for _ in 0..64 {
        let ops = accesses(&mut rng, 400);
        let mut mem = small_mem(4);
        let mut now = 0u64;
        for (cpu, block, write) in &ops {
            now += 10;
            let kind = if *write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let out = mem.access(
                CpuId(u32::from(*cpu)),
                BlockAddr(u64::from(*block)),
                kind,
                now,
            );
            assert!(out.latency >= 1);
        }
        // Every touched block satisfies the protocol invariant afterwards.
        for b in 0..96u64 {
            assert!(
                mem.check_coherence_invariant(BlockAddr(b)),
                "block {b} violates MOSI"
            );
        }
    }
}

#[test]
fn store_grants_exclusive_access() {
    let mut rng = Xoshiro256StarStar::new(0x51_0002);
    for _ in 0..64 {
        let ops = accesses(&mut rng, 200);
        let victim = rng.next_below(96);
        let mut mem = small_mem(4);
        let mut now = 0u64;
        for (cpu, block, write) in &ops {
            now += 10;
            let kind = if *write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            mem.access(
                CpuId(u32::from(*cpu)),
                BlockAddr(u64::from(*block)),
                kind,
                now,
            );
        }
        // A final write by cpu 0 leaves exactly one valid copy: its own M.
        mem.access(CpuId(0), BlockAddr(victim), AccessKind::Write, now + 10);
        assert_eq!(
            mem.l2_state(CpuId(0), BlockAddr(victim)),
            CoherenceState::Modified
        );
        for c in 1..4u32 {
            assert_eq!(
                mem.l2_state(CpuId(c), BlockAddr(victim)),
                CoherenceState::Invalid
            );
        }
    }
}

#[test]
fn cache_array_never_exceeds_capacity() {
    let mut rng = Xoshiro256StarStar::new(0x51_0003);
    for _ in 0..64 {
        let cfg = CacheConfig::new(2048, 2, 64).unwrap(); // 32 blocks
        let mut cache = CacheArray::new(cfg).unwrap();
        let n = rng.next_range(1, 599);
        for _ in 0..n {
            cache.insert(BlockAddr(rng.next_below(4096)), CoherenceState::Shared);
            assert!(cache.resident_blocks() <= 32);
        }
    }
}

#[test]
fn cache_insert_then_probe_hits() {
    let mut rng = Xoshiro256StarStar::new(0x51_0004);
    for _ in 0..64 {
        let cfg = CacheConfig::new(4096, 4, 64).unwrap();
        let mut cache = CacheArray::new(cfg).unwrap();
        let fillers = rng.next_below(8);
        for _ in 0..fillers {
            cache.insert(BlockAddr(rng.next_below(100_000)), CoherenceState::Shared);
        }
        let addr = rng.next_below(100_000);
        cache.insert(BlockAddr(addr), CoherenceState::Owned);
        assert_eq!(cache.probe(BlockAddr(addr)), CoherenceState::Owned);
    }
}

#[test]
fn rng_bounds_hold() {
    let mut meta = Xoshiro256StarStar::new(0x51_0005);
    for _ in 0..64 {
        let seed = meta.next_u64();
        let bound = meta.next_range(1, 1_000_000);
        let lo = meta.next_below(1000);
        let width = meta.next_below(1000);
        let mut rng = Xoshiro256StarStar::new(seed);
        for _ in 0..50 {
            assert!(rng.next_below(bound) < bound);
            let v = rng.next_range(lo, lo + width);
            assert!((lo..=lo + width).contains(&v));
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}

#[test]
fn machine_determinism_for_arbitrary_seeds() {
    let mut meta = Xoshiro256StarStar::new(0x51_0006);
    for _ in 0..8 {
        let wseed = meta.next_u64();
        let pseed = meta.next_u64();
        let run = || {
            let cfg = MachineConfig::hpca2003()
                .with_cpus(2)
                .with_perturbation(4, pseed);
            let mut m = Machine::new(cfg, SharingWorkload::new(4, wseed, 30, 512, 8)).unwrap();
            m.run_transactions(40).unwrap().elapsed()
        };
        assert_eq!(run(), run());
    }
}

#[test]
fn checkpoint_equivalence_under_random_split() {
    let mut meta = Xoshiro256StarStar::new(0x51_0007);
    for _ in 0..8 {
        let wseed = meta.next_u64();
        let split = meta.next_range(10, 59);
        // Running A txns, checkpointing, then B txns must equal running
        // straight through when observed from the checkpoint onward.
        let cfg = MachineConfig::hpca2003()
            .with_cpus(2)
            .with_perturbation(4, 3);
        let mut m = Machine::new(cfg, SharingWorkload::new(4, wseed, 25, 256, 6)).unwrap();
        m.run_transactions(split).unwrap();
        let mut fork = m.fork();
        let straight = m.run_transactions(30).unwrap();
        let forked = fork.run_transactions(30).unwrap();
        assert_eq!(straight.elapsed(), forked.elapsed());
        assert_eq!(straight.commit_cycles, forked.commit_cycles);
    }
}

/// A reference LRU model for one cache: per-set recency lists, least recent
/// first. Mirrors the documented CacheArray contract: `insert`/`touch`
/// refresh recency, `probe` does not, eviction takes the least recent line.
#[derive(Clone)]
struct LruModel {
    sets: u64,
    ways: usize,
    // recency[set] holds (addr, state), least recently used first.
    recency: Vec<Vec<(u64, CoherenceState)>>,
}

impl LruModel {
    fn new(cfg: &CacheConfig) -> Self {
        LruModel {
            sets: cfg.sets(),
            ways: cfg.associativity as usize,
            recency: vec![Vec::new(); cfg.sets() as usize],
        }
    }

    fn set_of(&self, addr: u64) -> usize {
        (addr % self.sets) as usize
    }

    fn insert(&mut self, addr: u64, state: CoherenceState) -> Option<(u64, CoherenceState)> {
        let set = self.set_of(addr);
        let lines = &mut self.recency[set];
        if let Some(i) = lines.iter().position(|&(a, _)| a == addr) {
            lines.remove(i);
            lines.push((addr, state));
            return None;
        }
        let evicted = if lines.len() == self.ways {
            Some(lines.remove(0))
        } else {
            None
        };
        lines.push((addr, state));
        evicted
    }

    fn touch(&mut self, addr: u64) -> CoherenceState {
        let set = self.set_of(addr);
        let lines = &mut self.recency[set];
        match lines.iter().position(|&(a, _)| a == addr) {
            Some(i) => {
                let entry = lines.remove(i);
                lines.push(entry);
                entry.1
            }
            None => CoherenceState::Invalid,
        }
    }

    fn probe(&self, addr: u64) -> CoherenceState {
        self.recency[self.set_of(addr)]
            .iter()
            .find(|&&(a, _)| a == addr)
            .map_or(CoherenceState::Invalid, |&(_, s)| s)
    }

    fn invalidate(&mut self, addr: u64) -> CoherenceState {
        let set = self.set_of(addr);
        let lines = &mut self.recency[set];
        match lines.iter().position(|&(a, _)| a == addr) {
            Some(i) => lines.remove(i).1,
            None => CoherenceState::Invalid,
        }
    }
}

const STATES: [CoherenceState; 4] = [
    CoherenceState::Modified,
    CoherenceState::Owned,
    CoherenceState::Exclusive,
    CoherenceState::Shared,
];

/// A random cache operation: `(kind, address, state pick)`.
fn random_cache_op(rng: &mut Xoshiro256StarStar, addrs: u64) -> (u64, u64, usize) {
    (
        rng.next_below(4),
        rng.next_below(addrs),
        rng.next_below(4) as usize,
    )
}

/// Applies one operation to `cache` and `model` alike, asserting that every
/// observable result agrees.
fn apply_cache_op(cache: &mut CacheArray, model: &mut LruModel, op: (u64, u64, usize)) {
    let (kind, addr, pick) = op;
    match kind {
        0 => {
            let got = cache.insert(BlockAddr(addr), STATES[pick]);
            let want = model.insert(addr, STATES[pick]);
            assert_eq!(
                got.map(|e| (e.addr.0, e.state)),
                want,
                "insert({addr}) evicted the wrong line"
            );
        }
        1 => assert_eq!(cache.touch(BlockAddr(addr)), model.touch(addr)),
        2 => assert_eq!(cache.probe(BlockAddr(addr)), model.probe(addr)),
        _ => assert_eq!(cache.invalidate(BlockAddr(addr)), model.invalidate(addr)),
    }
    let resident: usize = model.recency.iter().map(Vec::len).sum();
    assert_eq!(cache.resident_blocks(), resident);
}

fn cache_bytes(cache: &CacheArray) -> Vec<u8> {
    use mtvar_sim::checkpoint::{Encoder, Snap};
    let mut enc = Encoder::new();
    cache.encode_snap(&mut enc);
    enc.into_bytes()
}

fn decode_cache(bytes: &[u8]) -> CacheArray {
    use mtvar_sim::checkpoint::{Decoder, Snap};
    CacheArray::decode_snap(&mut Decoder::new(bytes)).expect("own encoding decodes")
}

fn resident_walk(cache: &CacheArray) -> Vec<(BlockAddr, CoherenceState)> {
    let mut out = Vec::new();
    cache.for_each_resident(|addr, state| out.push((addr, state)));
    out
}

#[test]
fn cache_array_matches_lru_reference_model() {
    // Random op soup against the reference model: every probe/touch result,
    // every eviction (victim address AND state), and residency must agree —
    // on a freshly built array, and then, mid-trace, on a decoded template
    // and two clones of it, which share its lines chunk by chunk while each
    // continues on a random suffix of its own. Every sharer must also stay
    // indistinguishable from a flat array (a decode nobody shares owns its
    // lines outright) driven through the same suffix.
    let geometries = [
        (1024, 4),  // 4 sets × 4 ways: one short chunk
        (1024, 2),  // 8 sets × 2 ways: likewise
        (2048, 1),  // 32 sets × 1 way: two chunks
        (8192, 2),  // 64 sets × 2 ways: four chunks
        (16384, 4), // 64 sets × 4 ways
    ];
    let mut rng = Xoshiro256StarStar::new(0x51_0009);
    for round in 0..50 {
        let (size, ways) = geometries[round % geometries.len()];
        let cfg = CacheConfig::new(size, ways, 64).unwrap();
        // 16 tags per set: plenty of evictions.
        let addrs = cfg.sets() * 16;
        let mut cache = CacheArray::new(cfg).unwrap();
        let mut model = LruModel::new(&cfg);
        for _ in 0..rng.next_range(1, 400) {
            apply_cache_op(&mut cache, &mut model, random_cache_op(&mut rng, addrs));
        }

        let bytes = cache_bytes(&cache);
        let template = decode_cache(&bytes);
        assert_eq!(resident_walk(&template), resident_walk(&cache));
        let mut sharers = [template.clone(), template.clone(), template];
        for (i, sharer) in sharers.iter_mut().enumerate() {
            let (mut flat, mut flat_model) = (decode_cache(&bytes), model.clone());
            let mut model = model.clone();
            for _ in 0..rng.next_range(1, 300) {
                let op = random_cache_op(&mut rng, addrs);
                apply_cache_op(sharer, &mut model, op);
                apply_cache_op(&mut flat, &mut flat_model, op);
            }
            for addr in 0..addrs {
                assert_eq!(sharer.probe(BlockAddr(addr)), model.probe(addr));
            }
            assert_eq!(resident_walk(sharer), resident_walk(&flat));
            assert_eq!(cache_bytes(sharer), cache_bytes(&flat));
            assert!(*sharer == flat, "sharer {i} differs from the flat array");
            assert!(sharer.clone() == flat, "a clone of sharer {i} differs");
        }
    }
}

#[test]
fn probe_does_not_refresh_lru_but_touch_does() {
    // 1 set × 2 ways. A then B makes A the LRU victim; a probe of A must
    // leave that unchanged, while a touch of A must flip the victim to B.
    let cfg = CacheConfig::new(128, 2, 64).unwrap();
    let (a, b, c) = (BlockAddr(0), BlockAddr(1), BlockAddr(2));

    let mut cache = CacheArray::new(cfg).unwrap();
    cache.insert(a, CoherenceState::Shared);
    cache.insert(b, CoherenceState::Shared);
    assert_eq!(cache.probe(a), CoherenceState::Shared); // snoop: no refresh
    let evicted = cache
        .insert(c, CoherenceState::Shared)
        .expect("set is full");
    assert_eq!(evicted.addr, a, "probe must not have refreshed A");

    let mut cache = CacheArray::new(cfg).unwrap();
    cache.insert(a, CoherenceState::Shared);
    cache.insert(b, CoherenceState::Shared);
    assert_eq!(cache.touch(a), CoherenceState::Shared); // access: refresh
    let evicted = cache
        .insert(c, CoherenceState::Shared)
        .expect("set is full");
    assert_eq!(evicted.addr, b, "touch must have refreshed A");
}

#[test]
fn cache_config_rejects_bad_geometry() {
    // Zeroes, non-powers-of-two, and size/assoc/block mismatches must all
    // be rejected; the valid cases must build.
    assert!(CacheConfig::new(0, 2, 64).is_err());
    assert!(CacheConfig::new(4096, 0, 64).is_err());
    assert!(CacheConfig::new(4096, 2, 0).is_err());
    assert!(CacheConfig::new(4096, 3, 64).is_err()); // assoc not pow2
    assert!(CacheConfig::new(4096, 2, 48).is_err()); // block not pow2
    assert!(CacheConfig::new(3000, 2, 64).is_err()); // size not pow2
    assert!(CacheConfig::new(64, 2, 64).is_err()); // smaller than one set

    // Sweep valid power-of-two geometries; derived counts must be exact.
    let mut rng = Xoshiro256StarStar::new(0x51_000A);
    for _ in 0..64 {
        let block = 1u32 << rng.next_range(4, 7); // 16..128 B
        let assoc = 1u32 << rng.next_below(4); // 1..8 ways
        let sets = 1u64 << rng.next_below(6); // 1..32 sets
        let size = sets * u64::from(assoc) * u64::from(block);
        let cfg = CacheConfig::new(size, assoc, block).unwrap();
        assert_eq!(cfg.sets(), sets);
        assert_eq!(cfg.blocks(), sets * u64::from(assoc));
    }
}

#[test]
fn perturbation_draws_are_bounded_and_seed_deterministic() {
    let mut meta = Xoshiro256StarStar::new(0x51_000B);
    for _ in 0..32 {
        let max_ns = meta.next_range(1, 16);
        let seed = meta.next_u64();
        let mut a = Perturbation::new(max_ns, seed);
        let mut b = Perturbation::new(max_ns, seed);
        for _ in 0..200 {
            let v = a.draw();
            assert!(v <= max_ns, "draw {v} exceeds max {max_ns}");
            assert_eq!(v, b.draw(), "same seed must give the same stream");
        }
    }
}

#[test]
fn perturbation_is_uniform_over_its_range() {
    // max_ns = 4 gives 5 equally likely outcomes; each bin of 20 000 draws
    // should hold ~1/5 of them.
    let mut p = Perturbation::new(4, 0xBEEF);
    let mut counts = [0usize; 5];
    const N: usize = 20_000;
    for _ in 0..N {
        counts[p.draw() as usize] += 1;
    }
    for (value, &count) in counts.iter().enumerate() {
        let frac = count as f64 / N as f64;
        assert!(
            (0.18..=0.22).contains(&frac),
            "value {value} drawn with frequency {frac}"
        );
    }
}

#[test]
fn disabled_perturbation_draws_exactly_zero() {
    let mut p = Perturbation::disabled();
    assert_eq!(p.max_ns(), 0);
    for _ in 0..100 {
        assert_eq!(p.draw(), 0);
    }
    // max_ns = 0 via new() is the same thing, whatever the seed.
    let mut p = Perturbation::new(0, 0xDEAD_BEEF);
    for _ in 0..100 {
        assert_eq!(p.draw(), 0);
    }
}

#[test]
fn distinct_perturbation_seeds_give_distinct_streams() {
    let mut meta = Xoshiro256StarStar::new(0x51_000C);
    for _ in 0..16 {
        let s1 = meta.next_u64();
        let s2 = meta.next_u64();
        if s1 == s2 {
            continue;
        }
        let mut a = Perturbation::new(8, s1);
        let mut b = Perturbation::new(8, s2);
        let va: Vec<u64> = (0..64).map(|_| a.draw()).collect();
        let vb: Vec<u64> = (0..64).map(|_| b.draw()).collect();
        assert_ne!(va, vb, "seeds {s1:#x} and {s2:#x} collided");
    }
}

#[test]
fn commit_log_is_sorted_and_complete() {
    let mut meta = Xoshiro256StarStar::new(0x51_0008);
    for _ in 0..8 {
        let wseed = meta.next_u64();
        let cfg = MachineConfig::hpca2003()
            .with_cpus(3)
            .with_perturbation(4, 1);
        let mut m = Machine::new(cfg, SharingWorkload::new(6, wseed, 20, 512, 5)).unwrap();
        let r = m.run_transactions(50).unwrap();
        assert_eq!(r.transactions, 50);
        assert_eq!(r.commit_cycles.len(), 50);
        assert!(r.commit_cycles.windows(2).all(|w| w[0] <= w[1]));
        assert!(r.end_cycle >= r.start_cycle);
    }
}

/// The exact model of a sharer table: each block's sharer bits, a block
/// removed once its last sharer leaves.
type SharerModel = std::collections::HashMap<u64, u64>;

/// A block from `pool`, or one of the two extreme keys one time in ten.
fn pick(rng: &mut Xoshiro256StarStar, pool: &[u64]) -> u64 {
    match rng.next_below(20) {
        0 => 0,
        1 => u64::MAX,
        _ => pool[rng.next_below(pool.len() as u64) as usize],
    }
}

/// One random fill or evict on `table` and `model`, then the sharers of a
/// random block checked against the model.
fn step_sharers(
    rng: &mut Xoshiro256StarStar,
    pool: &[u64],
    cpus: usize,
    table: &mut SharerTable,
    model: &mut SharerModel,
) {
    let cpu = rng.next_below(cpus as u64) as usize;
    let bit = 1u64 << cpu;
    let addr = pick(rng, pool);
    let held = model.get(&addr).copied().unwrap_or(0);
    if held & bit != 0 {
        table.note_evict(cpu, BlockAddr(addr));
        match held & !bit {
            0 => model.remove(&addr),
            left => model.insert(addr, left),
        };
    } else {
        table.note_fill(cpu, BlockAddr(addr));
        model.insert(addr, held | bit);
    }
    let probe = pick(rng, pool);
    assert_eq!(
        table.sharers(BlockAddr(probe)),
        model.get(&probe).copied().unwrap_or(0),
        "{cpus} cpus: sharers of block {probe:#x} diverged"
    );
}

/// A table built from `model` alone, with no emptied entries.
fn rebuilt(model: &SharerModel) -> SharerTable {
    let mut table = SharerTable::with_room_for(model.len());
    for (&addr, &sharers) in model {
        for cpu in (0..64).filter(|c| sharers & (1 << c) != 0) {
            table.note_fill(cpu, BlockAddr(addr));
        }
    }
    table
}

/// Checks every block of `pool`, both extreme keys and the live count
/// against `model`, and equality with a table rebuilt from it. Returns
/// whether `table` held emptied entries that the equality ignored.
fn check_sharers(pool: &[u64], cpus: usize, table: &SharerTable, model: &SharerModel) -> bool {
    for &addr in pool.iter().chain(&[0, u64::MAX]) {
        assert_eq!(
            table.sharers(BlockAddr(addr)),
            model.get(&addr).copied().unwrap_or(0),
            "{cpus} cpus: sharers of block {addr:#x} diverged"
        );
    }
    assert_eq!(table.live_blocks(), model.len(), "{cpus} cpus: live blocks");
    let fresh = rebuilt(model);
    assert!(
        *table == fresh,
        "{cpus} cpus: a table differs from its rebuild"
    );
    table.entries() > fresh.entries()
}

/// Random fill/evict churn against the exact model at 1, 17 and 64 nodes,
/// over a pool of 1,500 structured and random blocks plus the extreme keys
/// 0 and `u64::MAX`. The pool keeps the table up to three quarters full,
/// so probe chains are long, emptied slots are taken again and the table
/// rehashes. Mid-trace the table is cloned twice; the three copies then
/// each continue on a random suffix of their own and must each match their
/// own model, also after the others have run. Equality with a table rebuilt
/// from the model must ignore the emptied entries churn leaves behind.
#[test]
fn sharer_table_matches_an_exact_model() {
    for cpus in [1usize, 17, 64] {
        let mut rng = Xoshiro256StarStar::new(0x51_54A3 ^ (cpus as u64));
        let mut saw_emptied = false;
        for _ in 0..4 {
            // Widely spaced bases with small offsets, like the workload
            // generators', and as many arbitrary keys.
            let pool: Vec<u64> = (0..750u64)
                .map(|i| 0x10_0000_0000 + (i % 6) * 0x4000_0000 + (i / 6) * 64)
                .chain((0..750).map(|_| rng.next_u64() | 1))
                .collect();
            let mut table = SharerTable::with_room_for(0);
            let mut model = SharerModel::new();
            for _ in 0..6_000 {
                step_sharers(&mut rng, &pool, cpus, &mut table, &mut model);
            }
            saw_emptied |= check_sharers(&pool, cpus, &table, &model);
            let mut copies = [
                (table.clone(), model.clone()),
                (table.clone(), model.clone()),
                (table, model),
            ];
            for (table, model) in &mut copies {
                for _ in 0..2_000 {
                    step_sharers(&mut rng, &pool, cpus, table, model);
                }
            }
            for (table, model) in &copies {
                saw_emptied |= check_sharers(&pool, cpus, table, model);
            }
        }
        assert!(
            saw_emptied,
            "{cpus} cpus: churn never left an emptied entry"
        );
    }
}

/// End-to-end snooping coherence on machines wider than 16 nodes, up to
/// the 64-node cap: the memory system's own debug differential (every miss
/// and invalidation checked against the full broadcast) runs on every
/// access in these debug-built tests, and the single-writer invariant must
/// hold.
#[test]
fn wide_machine_snooping_matches_broadcast() {
    for cpus in [17usize, 64] {
        let mut rng = Xoshiro256StarStar::new(0x51_0B1D ^ (cpus as u64));
        let mut mem = small_mem(cpus);
        let mut now = 0u64;
        for _ in 0..3000 {
            now += 10;
            let cpu = CpuId(rng.next_below(cpus as u64) as u32);
            let addr = BlockAddr(rng.next_below(256));
            let kind = if rng.next_bool(0.4) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            mem.access(cpu, addr, kind, now);
            assert!(
                mem.check_coherence_invariant(addr),
                "{cpus} cpus: single-writer violated"
            );
        }
        let p = mem.probe_stats();
        assert!(
            p.scan_probes < mem.stats().l2_misses * (cpus as u64 - 1),
            "{cpus} cpus: exact sharers should beat full broadcast on these traces \
             ({} probes over {} misses)",
            p.scan_probes,
            mem.stats().l2_misses,
        );
    }
}

/// A plain dense cache array: every set's ways side by side in one flat
/// `Vec` of `(tag, state, stamp)`, under the array's replacement rules (the
/// matching way, else the first Invalid way, else the least stamp) with an
/// invalidated line keeping its tag and stamp. The reference the
/// slot-indexed [`CacheArray`] is checked against, lookup by lookup and
/// byte by byte.
#[derive(Clone)]
struct DenseCache {
    cfg: CacheConfig,
    sets: u64,
    ways: usize,
    lines: Vec<(u64, CoherenceState, u64)>,
    clock: u64,
}

impl DenseCache {
    fn new(cfg: CacheConfig) -> Self {
        let ways = cfg.associativity as usize;
        DenseCache {
            cfg,
            sets: cfg.sets(),
            ways,
            lines: vec![(0, CoherenceState::Invalid, 0); cfg.blocks() as usize],
            clock: 0,
        }
    }

    /// The line indices of `addr`'s set, and its tag.
    fn set(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let first = (addr % self.sets) as usize * self.ways;
        (first..first + self.ways, addr / self.sets)
    }

    fn find(&self, addr: u64) -> Option<usize> {
        let (ways, tag) = self.set(addr);
        ways.into_iter()
            .find(|&i| self.lines[i].1 != CoherenceState::Invalid && self.lines[i].0 == tag)
    }

    fn probe(&self, addr: u64) -> CoherenceState {
        self.find(addr)
            .map_or(CoherenceState::Invalid, |i| self.lines[i].1)
    }

    fn touch(&mut self, addr: u64) -> CoherenceState {
        self.clock += 1;
        let Some(i) = self.find(addr) else {
            return CoherenceState::Invalid;
        };
        self.lines[i].2 = self.clock;
        self.lines[i].1
    }

    fn set_state(&mut self, addr: u64, state: CoherenceState) -> bool {
        let Some(i) = self.find(addr) else {
            return false;
        };
        self.lines[i].1 = state;
        true
    }

    fn insert(&mut self, addr: u64, state: CoherenceState) -> Option<(u64, CoherenceState)> {
        self.clock += 1;
        let (ways, tag) = self.set(addr);
        let new = (tag, state, self.clock);
        if let Some(i) = self.find(addr) {
            self.lines[i] = new;
            return None;
        }
        if let Some(i) = ways
            .clone()
            .find(|&i| self.lines[i].1 == CoherenceState::Invalid)
        {
            self.lines[i] = new;
            return None;
        }
        let victim = ways.min_by_key(|&i| self.lines[i].2).expect("a way");
        let (old_tag, old_state, _) = std::mem::replace(&mut self.lines[victim], new);
        Some((old_tag * self.sets + addr % self.sets, old_state))
    }

    fn invalidate(&mut self, addr: u64) -> CoherenceState {
        let Some(i) = self.find(addr) else {
            return CoherenceState::Invalid;
        };
        std::mem::replace(&mut self.lines[i].1, CoherenceState::Invalid)
    }

    fn resident(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| l.1 != CoherenceState::Invalid)
            .count()
    }

    /// The snapshot encoding of the dense array: geometry, line count, the
    /// lines in set order with every Invalid stretch as one run (marker
    /// byte 5, then its length), then sets, ways and the use clock.
    fn bytes(&self) -> Vec<u8> {
        use mtvar_sim::checkpoint::{Encoder, Snap};
        let mut enc = Encoder::new();
        self.cfg.encode_snap(&mut enc);
        enc.put_u64(self.lines.len() as u64);
        let mut run = 0u64;
        let flush = |enc: &mut Encoder, run: &mut u64| {
            if *run > 0 {
                enc.put_u8(5);
                enc.put_u64(std::mem::take(run));
            }
        };
        for &(tag, state, stamp) in &self.lines {
            if state == CoherenceState::Invalid {
                run += 1;
                continue;
            }
            flush(&mut enc, &mut run);
            state.encode_snap(&mut enc);
            enc.put_u64(tag);
            enc.put_u64(stamp);
        }
        flush(&mut enc, &mut run);
        self.sets.encode_snap(&mut enc);
        self.ways.encode_snap(&mut enc);
        self.clock.encode_snap(&mut enc);
        enc.into_bytes()
    }
}

/// One random operation, applied to the array and the dense reference
/// alike: every return value must agree.
fn apply_dense_op(cache: &mut CacheArray, dense: &mut DenseCache, rng: &mut Xoshiro256StarStar) {
    const STATES: [CoherenceState; 5] = [
        CoherenceState::Modified,
        CoherenceState::Exclusive,
        CoherenceState::Owned,
        CoherenceState::Shared,
        CoherenceState::Invalid,
    ];
    // Four times the capacity: fills of new sets, hits and evictions alike.
    let addr = rng.next_below(4 * dense.cfg.blocks());
    let state = STATES[rng.next_below(5) as usize];
    match rng.next_below(10) {
        0..=3 if state != CoherenceState::Invalid => {
            let got = cache.insert(BlockAddr(addr), state);
            let want = dense.insert(addr, state);
            assert_eq!(got.map(|e| (e.addr.0, e.state)), want, "insert({addr})");
        }
        // An Invalid pick of a fill touches instead.
        0..=5 => assert_eq!(cache.touch(BlockAddr(addr)), dense.touch(addr)),
        6 => assert_eq!(cache.probe(BlockAddr(addr)), dense.probe(addr)),
        7 | 8 => assert_eq!(
            cache.set_state(BlockAddr(addr), state),
            dense.set_state(addr, state),
            "set_state({addr}, {state:?})"
        ),
        _ => assert_eq!(cache.invalidate(BlockAddr(addr)), dense.invalidate(addr)),
    }
}

/// Every probe, the resident count and the snapshot bytes of `cache` equal
/// the dense reference's.
fn assert_dense(cache: &CacheArray, dense: &DenseCache, what: &str) {
    for addr in 0..4 * dense.cfg.blocks() {
        assert_eq!(
            cache.probe(BlockAddr(addr)),
            dense.probe(addr),
            "{what}: probe({addr})"
        );
    }
    assert_eq!(
        cache.resident_blocks(),
        dense.resident(),
        "{what}: residents"
    );
    assert_eq!(cache_bytes(cache), dense.bytes(), "{what}: snapshot bytes");
}

#[test]
fn slot_indexed_array_matches_a_dense_reference() {
    // Random fill, touch, probe, set_state and invalidate sequences over
    // 1, 2, 4 and 8 ways and 1 to 256 sets, against the dense array. Half
    // way, the array is shared in place and restored from its bytes, and
    // both are forked; the sequences go on in every copy, each against its
    // own reference, then the forks are folded back (one flattened while
    // a sibling holds its base) and go on again. The array takes its slots
    // in first-fill order and a restore in set order, so equal bytes show
    // that the encoding does not depend on the order sets were filled in.
    let mut rng = Xoshiro256StarStar::new(0x51_000B);
    for round in 0..96 {
        let ways = 1u32 << (round % 4);
        let sets = [1u64, 2, 16, 64, 256][round / 4 % 5];
        let cfg = CacheConfig::new(sets * u64::from(ways) * 64, ways, 64).unwrap();
        let mut cache = CacheArray::new(cfg).unwrap();
        let mut dense = DenseCache::new(cfg);
        let steps = |rng: &mut Xoshiro256StarStar| rng.next_range(1, 6 * cfg.blocks().max(8));
        for _ in 0..steps(&mut rng) {
            apply_dense_op(&mut cache, &mut dense, &mut rng);
        }
        assert_dense(&cache, &dense, "built");

        // Share in place and restore; fork both.
        cache.share();
        let restored = decode_cache(&cache_bytes(&cache));
        assert_dense(&restored, &dense, "restored");
        let mut copies = vec![
            (cache.clone(), dense.clone()),
            (restored.clone(), dense.clone()),
            (restored.clone(), dense.clone()),
            (cache, dense.clone()),
            (restored, dense),
        ];
        for (copy, dense) in &mut copies {
            for _ in 0..steps(&mut rng) {
                apply_dense_op(copy, dense, &mut rng);
            }
            assert_dense(copy, dense, "forked");
        }

        // Fold: the first fork while the shared array still holds its
        // base (flattened), the last copy of the restore once its forks
        // are folded, flattened or gone.
        let mut folded = copies.pop().expect("five copies");
        copies[0].0.share();
        copies[1].0.share();
        drop(copies.remove(2));
        folded.0.share();
        copies.push(folded);
        for (copy, dense) in &mut copies {
            assert_dense(copy, dense, "re-shared");
            let (mut child, mut child_dense) = (copy.clone(), dense.clone());
            for _ in 0..steps(&mut rng) {
                apply_dense_op(copy, dense, &mut rng);
                apply_dense_op(&mut child, &mut child_dense, &mut rng);
            }
            assert_dense(copy, dense, "re-shared, written");
            assert_dense(&child, &child_dense, "fork of a re-shared array");
        }
    }
}
