//! The content-addressed warmup-checkpoint store.
//!
//! Every data point in the paper's figures is a run launched from a
//! checkpoint taken after warmup (§3.2.2); a 100-run × 5-checkpoint study
//! that re-simulates warmup per run pays for it 500 times. The
//! [`CheckpointStore`] makes warmed machine snapshots reusable: an in-memory
//! LRU over [`Checkpoint`]s, content-addressed by
//! `(config fingerprint, workload fingerprint, base seed, warmup length)`,
//! with optional on-disk spill under `target/mtvar-checkpoints/` so warmed
//! state survives the process.
//!
//! Three properties matter for correctness:
//!
//! * **Prefix extension.** [`CheckpointStore::longest_prefix`] finds the
//!   deepest stored snapshot of the same space with a *shorter* warmup, so a
//!   sweep at warmup 2000 restores the warmup-1600 snapshot and simulates
//!   only the remaining 400 transactions. Extending a restored machine is
//!   bit-identical to warming from zero ([`Machine::restore`] guarantees
//!   it), so reuse never changes results.
//! * **Crash-safe spill.** Disk writes go to a temporary file, `fsync`, then
//!   an atomic rename — an interrupted write can never leave a truncated
//!   `.ckpt` behind. Reads validate the frame fingerprint; a corrupt or
//!   truncated file is deleted and reported as a miss, and the caller falls
//!   back to re-simulation.
//! * **Single-flight warmup.** [`CheckpointStore::get_or_warm`] lets exactly
//!   one of any number of concurrent callers asking for the same key
//!   simulate it; the rest wait and share the stored snapshot. Executors
//!   sharing a store therefore pay for each warmup once, whoever asks.
//!
//! [`Machine::restore`]: mtvar_sim::machine::Machine::restore

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use mtvar_sim::checkpoint::Checkpoint;

use crate::spill::SpillDir;

/// Content address of one warmed snapshot: the complete identity of "this
/// machine, warmed this far". Two sweeps that agree on all four fields may
/// share a checkpoint; any disagreement keys them apart.
///
/// The config fingerprint is taken with the perturbation neutralized
/// (magnitude 0, seed 0) because warmup runs unperturbed — one stored
/// snapshot serves every perturbation magnitude and seed of the same
/// machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CheckpointKey {
    /// [`config_fingerprint`] of the warmup configuration.
    ///
    /// [`config_fingerprint`]: crate::runspace::config_fingerprint
    pub config: u64,
    /// Workload-factory fingerprint (same construction as the run cache).
    pub workload: u64,
    /// The plan's base perturbation seed.
    pub base_seed: u64,
    /// Warmup length in transactions.
    pub warmup: u64,
}

impl CheckpointKey {
    fn file_name(&self) -> String {
        format!("{}{}.ckpt", self.file_prefix(), self.warmup)
    }

    /// The filename prefix shared by every warmup length of this space.
    fn file_prefix(&self) -> String {
        format!(
            "ck-{:016x}-{:016x}-{:016x}-w",
            self.config, self.workload, self.base_seed
        )
    }
}

#[derive(Debug, Default)]
struct StoreInner {
    map: HashMap<CheckpointKey, (u64, Arc<Checkpoint>)>,
    tick: u64,
    /// Keys some [`CheckpointStore::get_or_warm`] caller is warming right
    /// now; a key leaves the set the moment its warmup ends.
    in_flight: HashSet<CheckpointKey>,
}

impl StoreInner {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// In-memory LRU of warmed snapshots with optional crash-safe disk spill.
///
/// Shared across executors via `Arc` (see
/// [`Executor::with_checkpoint_store`]); all operations take an internal
/// lock, so `&self` methods are safe from worker threads. Snapshots are
/// themselves held behind `Arc<Checkpoint>`: a hit hands back a shared
/// pointer, so the lock is held only for O(1) bookkeeping — never while a
/// multi-megabyte payload is copied — and concurrent sweeps warming from
/// the same snapshot share one allocation.
///
/// [`Executor::with_checkpoint_store`]: crate::runspace::Executor::with_checkpoint_store
#[derive(Debug)]
pub struct CheckpointStore {
    inner: Mutex<StoreInner>,
    /// Signalled whenever a key leaves `in_flight`.
    settled: Condvar,
    capacity: usize,
    warmups_simulated: AtomicU64,
    warmups_shared: AtomicU64,
    /// The spill directory and its warnings
    /// ([`CheckpointStore::take_warnings`]); `None` for a memory-only store.
    disk: Option<SpillDir>,
}

/// How many *additional* prefix candidates [`CheckpointStore::longest_prefix`]
/// tries after its first choice fails validation. Each failure means a
/// corrupt or vanished entry; one retry recovers the common single-bad-file
/// case, while a hard cap keeps a spill directory whose files cannot be
/// deleted (read-only mount) or keep re-materializing from spinning the
/// search forever. Beyond the cap the store warns and reports a miss — the
/// caller re-simulates, which is always correct.
const CORRUPT_RETRY_LIMIT: usize = 1;

impl Default for CheckpointStore {
    fn default() -> Self {
        CheckpointStore::new()
    }
}

impl CheckpointStore {
    /// Default in-memory capacity (snapshots, not bytes).
    pub const DEFAULT_CAPACITY: usize = 32;

    /// The conventional spill directory, `target/mtvar-checkpoints/`.
    pub fn default_spill_dir() -> PathBuf {
        PathBuf::from("target").join("mtvar-checkpoints")
    }

    /// An in-memory store with [`CheckpointStore::DEFAULT_CAPACITY`] entries
    /// and no disk spill.
    pub fn new() -> Self {
        CheckpointStore {
            inner: Mutex::new(StoreInner::default()),
            settled: Condvar::new(),
            capacity: Self::DEFAULT_CAPACITY,
            warmups_simulated: AtomicU64::new(0),
            warmups_shared: AtomicU64::new(0),
            disk: None,
        }
    }

    /// Sets the in-memory capacity (clamped to >= 1); least-recently-used
    /// snapshots are evicted beyond it. Evicted entries remain readable from
    /// disk when spill is enabled.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Enables disk spill under `dir` (created on first write). Every insert
    /// is written through; misses in memory fall back to disk.
    #[must_use]
    pub fn with_disk_spill(mut self, dir: impl Into<PathBuf>) -> Self {
        self.disk = Some(SpillDir::new("checkpoint store", dir));
        self
    }

    /// Enables disk spill under [`CheckpointStore::default_spill_dir`].
    #[must_use]
    pub fn with_default_disk_spill(self) -> Self {
        let dir = Self::default_spill_dir();
        self.with_disk_spill(dir)
    }

    /// Number of snapshots currently held in memory.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("store poisoned").map.len()
    }

    /// Whether the in-memory store holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every in-memory snapshot (disk files are left alone).
    pub fn clear(&self) {
        self.inner.lock().expect("store poisoned").map.clear();
    }

    /// Drains and returns the warnings accumulated from degraded disk
    /// operations: failed writes, unreadable spill files, corrupt files
    /// (deleted or not), and prefix searches abandoned after
    /// `CORRUPT_RETRY_LIMIT` failed candidates. Every warning was also
    /// written to stderr when it occurred; this accessor exists so tests and
    /// callers can assert on them programmatically.
    pub fn take_warnings(&self) -> Vec<String> {
        self.disk
            .as_ref()
            .map_or_else(Vec::new, SpillDir::take_warnings)
    }

    /// Looks up the snapshot for `key`: memory first, then disk. A memory
    /// hit clones only the `Arc`, never the payload. A disk file that fails
    /// frame validation (truncated or corrupt) is deleted and reported as a
    /// miss — the caller re-simulates and the next insert rewrites it whole.
    pub fn get(&self, key: &CheckpointKey) -> Option<Arc<Checkpoint>> {
        {
            let mut inner = self.inner.lock().expect("store poisoned");
            let tick = inner.touch();
            if let Some(entry) = inner.map.get_mut(key) {
                entry.0 = tick;
                return Some(Arc::clone(&entry.1));
            }
        }
        let ck = Arc::new(
            self.disk
                .as_ref()?
                .read_validated(&key.file_name(), Checkpoint::from_bytes)?,
        );
        self.insert_memory(*key, Arc::clone(&ck));
        Some(ck)
    }

    /// Stores a snapshot under `key`, evicting the least-recently-used
    /// in-memory entry beyond capacity and spilling to disk when enabled.
    /// Disk spill is best-effort: an I/O failure degrades to memory-only
    /// caching (with a warning) rather than failing the sweep.
    pub fn insert(&self, key: CheckpointKey, checkpoint: Arc<Checkpoint>) {
        if let Some(disk) = &self.disk {
            disk.write(&key.file_name(), &checkpoint.to_bytes());
        }
        self.insert_memory(key, checkpoint);
    }

    /// The snapshot for `key`, simulated at most once however many callers
    /// ask at the same time: a stored snapshot is returned as is; otherwise
    /// the first caller runs `warm` and stores its snapshot, while every
    /// other caller of the same key waits and then shares it. The lock is
    /// never held while `warm` runs, so other keys proceed in parallel.
    ///
    /// # Errors
    ///
    /// `warm`'s error goes to the caller that ran it, alone; one waiter then
    /// runs its own `warm`. A panic in `warm` releases the waiters the same
    /// way.
    pub fn get_or_warm<E>(
        &self,
        key: CheckpointKey,
        warm: impl FnOnce() -> Result<Arc<Checkpoint>, E>,
    ) -> Result<Arc<Checkpoint>, E> {
        loop {
            if let Some(hit) = self.get(&key) {
                // Relaxed: a statistic that publishes no other data.
                self.warmups_shared.fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }
            let inner = self.inner.lock().expect("store poisoned");
            let mut inner = self
                .settled
                .wait_while(inner, |inner| inner.in_flight.contains(&key))
                .expect("store poisoned");
            // Stored by now if the caller we waited for succeeded, or if one
            // finished between the lookup above and the lock: look again.
            if inner.map.contains_key(&key) {
                continue;
            }
            inner.in_flight.insert(key);
            break;
        }
        let _in_flight = InFlight { store: self, key };
        let snapshot = warm()?;
        self.insert(key, Arc::clone(&snapshot));
        self.warmups_simulated.fetch_add(1, Ordering::Relaxed);
        Ok(snapshot)
    }

    /// Warmups [`CheckpointStore::get_or_warm`] ran to completion.
    pub fn warmups_simulated(&self) -> u64 {
        self.warmups_simulated.load(Ordering::Relaxed)
    }

    /// [`CheckpointStore::get_or_warm`] calls answered with a snapshot
    /// another call produced — waited for, or already stored.
    pub fn warmups_shared(&self) -> u64 {
        self.warmups_shared.load(Ordering::Relaxed)
    }

    /// Finds the stored snapshot of the same `(config, workload, base_seed)`
    /// space with the largest warmup strictly below `key.warmup`, searching
    /// memory and disk. Returns `(warmup, checkpoint)`; the caller restores
    /// it and simulates only the remaining `key.warmup - warmup`
    /// transactions.
    ///
    /// `get` re-validates each candidate (a corrupt disk file becomes a
    /// miss), and the search falls back to the next-deepest prefix — but
    /// only `CORRUPT_RETRY_LIMIT` time(s). An undeletable or
    /// re-materializing corrupt entry must not spin the search; past the
    /// cap it warns and reports a miss so the caller re-simulates.
    pub fn longest_prefix(&self, key: &CheckpointKey) -> Option<(u64, Arc<Checkpoint>)> {
        let mut candidates: Vec<u64> = Vec::new();
        {
            let inner = self.inner.lock().expect("store poisoned");
            for k in inner.map.keys() {
                if k.config == key.config
                    && k.workload == key.workload
                    && k.base_seed == key.base_seed
                    && k.warmup < key.warmup
                {
                    candidates.push(k.warmup);
                }
            }
        }
        if let Some(disk) = &self.disk {
            let prefix = key.file_prefix();
            candidates.extend(disk.names().filter_map(|name| {
                let warmup = name.strip_prefix(&prefix)?.strip_suffix(".ckpt")?;
                warmup.parse::<u64>().ok().filter(|w| *w < key.warmup)
            }));
        }
        candidates.sort_unstable();
        candidates.dedup();
        let mut failures = 0usize;
        while let Some(warmup) = candidates.pop() {
            let prefix_key = CheckpointKey { warmup, ..*key };
            if let Some(ck) = self.get(&prefix_key) {
                return Some((warmup, ck));
            }
            failures += 1;
            if failures > CORRUPT_RETRY_LIMIT {
                // Only disk entries fail validation; a memory-only store
                // gets here by racing an eviction, which is not degradation.
                if let Some(disk) = &self.disk {
                    disk.warn(format!(
                        "abandoning prefix search for {}{} after {failures} corrupt or \
                         vanished candidate(s); falling back to re-simulation",
                        key.file_prefix(),
                        key.warmup,
                    ));
                }
                return None;
            }
        }
        None
    }

    fn insert_memory(&self, key: CheckpointKey, checkpoint: Arc<Checkpoint>) {
        let mut inner = self.inner.lock().expect("store poisoned");
        let tick = inner.touch();
        inner.map.insert(key, (tick, checkpoint));
        while inner.map.len() > self.capacity {
            let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| *k)
            else {
                break;
            };
            inner.map.remove(&oldest);
        }
    }
}

/// Holds one key's in-flight mark for the duration of its warmup. Dropping
/// it — on return, error or unwind — clears the mark and wakes every waiter.
struct InFlight<'a> {
    store: &'a CheckpointStore,
    key: CheckpointKey,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        // A drop must not panic, and every update under this lock leaves the
        // map valid, so a poisoned lock is entered rather than propagated.
        let mut inner = self
            .store
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        inner.in_flight.remove(&self.key);
        drop(inner);
        self.store.settled.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::temp_dir;
    use mtvar_sim::hash::Fnv1a;
    use std::fs;
    use std::sync::Barrier;

    fn key(warmup: u64) -> CheckpointKey {
        CheckpointKey {
            config: 0xC0FF_EE00_DEAD_BEEF,
            workload: 0x1234_5678_9ABC_DEF0,
            base_seed: 7,
            warmup,
        }
    }

    fn snapshot(tag: u8) -> Arc<Checkpoint> {
        Arc::new(Checkpoint::from_payload(vec![tag; 64]))
    }

    #[test]
    fn memory_round_trip_and_miss() {
        let store = CheckpointStore::new();
        assert!(store.get(&key(10)).is_none());
        store.insert(key(10), snapshot(1));
        assert_eq!(store.get(&key(10)).unwrap().payload(), &[1u8; 64][..]);
        assert!(store.get(&key(11)).is_none(), "warmup is part of the key");
        assert_eq!(store.len(), 1);
        store.clear();
        assert!(store.is_empty());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let store = CheckpointStore::new().with_capacity(2);
        store.insert(key(1), snapshot(1));
        store.insert(key(2), snapshot(2));
        // Touch key(1) so key(2) is the LRU when key(3) arrives.
        assert!(store.get(&key(1)).is_some());
        store.insert(key(3), snapshot(3));
        assert_eq!(store.len(), 2);
        assert!(store.get(&key(2)).is_none(), "LRU entry evicted");
        assert!(store.get(&key(1)).is_some());
        assert!(store.get(&key(3)).is_some());
    }

    #[test]
    fn longest_prefix_picks_deepest_shorter_warmup() {
        let store = CheckpointStore::new();
        store.insert(key(100), snapshot(1));
        store.insert(key(400), snapshot(4));
        store.insert(key(900), snapshot(9));
        let (warmup, ck) = store.longest_prefix(&key(800)).unwrap();
        assert_eq!(warmup, 400);
        assert_eq!(ck.payload(), &[4u8; 64][..]);
        // An exact-warmup entry is not a *prefix* of itself.
        let (warmup, _) = store.longest_prefix(&key(900)).unwrap();
        assert_eq!(warmup, 400);
        assert!(store.longest_prefix(&key(100)).is_none());
        // Different space: no sharing.
        let other = CheckpointKey {
            base_seed: 8,
            ..key(800)
        };
        assert!(store.longest_prefix(&other).is_none());
    }

    type Warmed = Result<Arc<Checkpoint>, &'static str>;

    /// Runs a first caller of `key(10)` that is held inside its warmup until
    /// `others` more callers of the same key have been spawned, then ends
    /// the warmup with `finish`. Whether a later caller parks on the
    /// in-flight mark or arrives after it cleared is up to the scheduler;
    /// the store must give the same answers either way. Returns the first
    /// caller's join result and the others' results.
    #[expect(clippy::disallowed_methods, reason = "callers race on threads")]
    fn race_one_key(
        store: &CheckpointStore,
        others: usize,
        finish: impl FnOnce() -> Warmed + Send,
    ) -> (std::thread::Result<Warmed>, Vec<Warmed>) {
        let entered = Barrier::new(2);
        let release = Barrier::new(2);
        std::thread::scope(|scope| {
            let first = scope.spawn(|| {
                store.get_or_warm(key(10), || {
                    entered.wait();
                    release.wait();
                    finish()
                })
            });
            entered.wait(); // the first caller is now inside its warmup
            let rest: Vec<_> = (0..others)
                .map(|_| scope.spawn(|| store.get_or_warm(key(10), || Ok(snapshot(2)))))
                .collect();
            release.wait();
            (
                first.join(),
                rest.into_iter()
                    .map(|h| h.join().expect("a later caller panicked"))
                    .collect(),
            )
        })
    }

    #[test]
    fn concurrent_callers_of_one_key_share_one_warmup() {
        let store = CheckpointStore::new();
        let (first, rest) = race_one_key(&store, 3, || Ok(snapshot(1)));
        assert_eq!(first.unwrap().unwrap().payload(), &[1u8; 64][..]);
        for shared in rest {
            assert_eq!(
                shared.unwrap().payload(),
                &[1u8; 64][..],
                "a later caller must get the first caller's snapshot, not warm its own"
            );
        }
        assert_eq!(store.warmups_simulated(), 1);
        assert_eq!(store.warmups_shared(), 3);
        // A late arrival finds the snapshot stored and never warms.
        let late = store.get_or_warm(key(10), || Err("warmed a stored key"));
        assert_eq!(late.unwrap().payload(), &[1u8; 64][..]);
        assert_eq!(store.warmups_shared(), 4);
        assert!(store.inner.lock().unwrap().in_flight.is_empty());
    }

    #[test]
    fn distinct_keys_do_not_share_a_warmup() {
        let store = CheckpointStore::new();
        let warm = |tag| move || Ok::<_, ()>(snapshot(tag));
        let a = store.get_or_warm(key(10), warm(1)).unwrap();
        let b = store.get_or_warm(key(20), warm(2)).unwrap();
        assert_ne!(a.payload(), b.payload(), "different warmup, different key");
        assert_eq!(store.warmups_simulated(), 2);
        assert_eq!(store.warmups_shared(), 0);
    }

    #[test]
    fn failed_warmup_is_retried_by_a_later_caller() {
        let store = CheckpointStore::new();
        let (first, rest) = race_one_key(&store, 1, || Err("warmup exploded"));
        assert_eq!(first.unwrap().unwrap_err(), "warmup exploded");
        // The error went to the first caller alone; the second ran its own
        // warmup and got its own snapshot.
        assert_eq!(rest[0].as_ref().unwrap().payload(), &[2u8; 64][..]);
        assert_eq!(store.warmups_simulated(), 1);
        assert_eq!(store.warmups_shared(), 0);
    }

    #[test]
    fn panicking_warmup_releases_later_callers() {
        let store = CheckpointStore::new();
        let (first, rest) = race_one_key(&store, 1, || panic!("warmup panicked"));
        assert!(first.is_err(), "the first caller's thread panicked");
        // Without the unwind path the key would stay in flight and the
        // second caller would wait for ever.
        assert_eq!(rest[0].as_ref().unwrap().payload(), &[2u8; 64][..]);
        assert_eq!(store.warmups_simulated(), 1);
        assert!(store.inner.lock().unwrap().in_flight.is_empty());
    }

    #[test]
    fn disk_spill_survives_a_fresh_store() {
        let dir = temp_dir("ckpt-spill");
        {
            let store = CheckpointStore::new().with_disk_spill(&dir);
            store.insert(key(50), snapshot(5));
        }
        let fresh = CheckpointStore::new().with_disk_spill(&dir);
        assert!(fresh.is_empty());
        let ck = fresh.get(&key(50)).expect("disk hit");
        assert_eq!(ck.payload(), &[5u8; 64][..]);
        assert_eq!(fresh.len(), 1, "disk hits are promoted into memory");
        // longest_prefix also sees disk-only entries.
        let fresh2 = CheckpointStore::new().with_disk_spill(&dir);
        let (warmup, _) = fresh2.longest_prefix(&key(60)).unwrap();
        assert_eq!(warmup, 50);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_file_is_deleted_and_misses() {
        let dir = temp_dir("ckpt-corrupt");
        let store = CheckpointStore::new().with_disk_spill(&dir);
        store.insert(key(50), snapshot(5));
        let path = dir.join(key(50).file_name());
        assert!(path.exists());

        // Truncate the file mid-frame, as an interrupted non-atomic write
        // would have; then corrupt a byte in a full-length copy; then leave
        // the version-2 (sectioned) frame an older build wrote: the same
        // header at version 2, an empty section table and its checksum.
        let full = fs::read(&path).unwrap();
        let version_2 = {
            let mut m = full[..28].to_vec();
            m[8..12].copy_from_slice(&2u32.to_le_bytes());
            m.extend_from_slice(&0u32.to_le_bytes());
            m.extend_from_slice(&Fnv1a::hash(&m).to_le_bytes());
            m.extend_from_slice(&full[28..]);
            m
        };
        for mangled in [
            full[..full.len() / 2].to_vec(),
            {
                let mut m = full.clone();
                let last = m.len() - 1;
                m[last] ^= 0xFF;
                m
            },
            version_2,
        ] {
            fs::write(&path, &mangled).unwrap();
            let fresh = CheckpointStore::new().with_disk_spill(&dir);
            assert!(
                fresh.get(&key(50)).is_none(),
                "corrupt file must read as a miss"
            );
            assert!(!path.exists(), "corrupt file must be deleted");
            assert!(
                fresh.longest_prefix(&key(60)).is_none(),
                "a deleted prefix must not resurface"
            );
            // Re-insert for the next mangling round.
            store.insert(key(50), snapshot(5));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prefix_search_retry_is_bounded_over_corrupt_files() {
        let dir = temp_dir("ckpt-bounded-retry");
        fs::create_dir_all(&dir).unwrap();
        // Four garbage .ckpt files at increasing warmups — every candidate
        // fails frame validation. The search must try the deepest, retry
        // once on the next-deepest, then give up with a warning instead of
        // walking (or spinning through) the whole chain.
        for warmup in [10u64, 20, 30, 40] {
            fs::write(dir.join(key(warmup).file_name()), b"not a checkpoint").unwrap();
        }
        let store = CheckpointStore::new().with_disk_spill(&dir);
        assert!(store.longest_prefix(&key(100)).is_none());
        let surviving: Vec<bool> = [10u64, 20, 30, 40]
            .iter()
            .map(|w| dir.join(key(*w).file_name()).exists())
            .collect();
        assert_eq!(
            surviving,
            [true, true, false, false],
            "only the two attempted candidates (40, then 30) may be touched"
        );
        let warnings = store.take_warnings();
        assert!(
            warnings
                .iter()
                .any(|w| w.contains("abandoning prefix search")),
            "the abandoned search must be surfaced: {warnings:?}"
        );
        assert!(
            store.take_warnings().is_empty(),
            "take_warnings drains the buffer"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn undeletable_corrupt_entries_terminate_with_a_warning() {
        let dir = temp_dir("ckpt-undeletable");
        // Plant corrupt entries the store *cannot unlink*: directories
        // squatting on the .ckpt names (remove_file fails on a directory,
        // and read fails without deleting). Before the retry bound, a chain
        // of these drove one recursion per entry; re-materializing paths
        // span forever.
        for warmup in [10u64, 20, 30, 40, 50] {
            fs::create_dir_all(dir.join(key(warmup).file_name())).unwrap();
        }
        let store = CheckpointStore::new().with_disk_spill(&dir);
        assert!(store.get(&key(50)).is_none(), "unreadable entry is a miss");
        assert!(store.longest_prefix(&key(100)).is_none());
        for warmup in [10u64, 20, 30, 40, 50] {
            assert!(
                dir.join(key(warmup).file_name()).exists(),
                "undeletable entries must survive, not be retried forever"
            );
        }
        let warnings = store.take_warnings();
        assert!(
            warnings.iter().filter(|w| w.contains("unreadable")).count() >= 2,
            "unreadable entries must be surfaced: {warnings:?}"
        );
        assert!(
            warnings
                .iter()
                .any(|w| w.contains("abandoning prefix search")),
            "the bounded search must warn when giving up: {warnings:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_spill_warns_and_memory_still_serves() {
        // A regular file squatting on the spill-dir path: the directory can
        // never be created, so every write fails.
        let dir = temp_dir("ckpt-squatted");
        fs::write(&dir, b"not a directory").unwrap();
        let store = CheckpointStore::new().with_disk_spill(&dir);
        store.insert(key(5), snapshot(5));
        let warnings = store.take_warnings();
        assert_eq!(warnings.len(), 1, "one failed write, one warning");
        assert!(warnings[0].contains("failed to spill"), "{warnings:?}");
        assert_eq!(store.get(&key(5)).unwrap().payload(), &[5u8; 64][..]);
        let _ = fs::remove_file(&dir);
    }
}
