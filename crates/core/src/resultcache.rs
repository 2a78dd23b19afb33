//! Disk spill for the executor's run-result cache.
//!
//! The in-memory result cache (inside [`Executor`]) memoizes completed runs
//! under `(config, workload, seed, warmup, transactions)` so overlapping
//! sweeps never re-simulate a run — but it dies with the process. A
//! long-running service wants the opposite: restart the daemon and keep the
//! warm results. The [`ResultStore`] is that persistence layer, built on the
//! same crash-safety machinery as the checkpoint store
//! ([`crate::checkpoint::CheckpointStore`]):
//!
//! * **Crash-safe writes.** Every insert goes to a temporary file, `fsync`,
//!   then an atomic rename — an interrupted write can never leave a
//!   truncated record under the final name.
//! * **Validated reads, corrupt-file fallback.** Records are framed with
//!   magic, version, length and a content fingerprint, all checked on load.
//!   A corrupt or truncated file is deleted and reported as a miss, and the
//!   executor falls back to re-simulation — always correct, never poisoned.
//! * **Violations persist.** A spilled record carries the run's invariant
//!   findings alongside its measurement, so a restarted service replays
//!   violation summaries exactly like an in-memory cache hit would.
//!
//! [`Executor`]: crate::runspace::Executor

use std::path::PathBuf;

use mtvar_sim::checkpoint::{CheckpointError, Decoder, Encoder, Snap};
use mtvar_sim::hash::Fnv1a;
use mtvar_sim::stats::RunResult;

use crate::runspace::Violation;
use crate::spill::SpillDir;

/// Magic bytes opening a framed run-result record.
pub const RESULT_MAGIC: [u8; 8] = *b"MTVARRES";

/// Current record encoding version. Bump when [`RunRecord`]'s wire format
/// changes; old spill files are then rejected (and deleted) instead of
/// misread.
pub const RESULT_VERSION: u32 = 1;

/// Cache key: the complete identity of one simulated run. Two sweeps that
/// agree on all five fields may share a result; any disagreement keys them
/// apart. The fields are the fingerprints the executor already derives —
/// `source` is a config fingerprint (XORed with the shared-warmup domain
/// separator for forked sweeps) or a snapshot fingerprint, and `seed` is the
/// run's derived perturbation seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Source fingerprint (configuration or snapshot identity).
    pub source: u64,
    /// Workload-factory fingerprint.
    pub workload: u64,
    /// Derived per-run perturbation seed.
    pub seed: u64,
    /// Warmup transactions of the plan.
    pub warmup: u64,
    /// Measured transactions of the plan.
    pub transactions: u64,
}

impl RunKey {
    fn file_name(&self) -> String {
        format!(
            "rr-{:016x}-{:016x}-{:016x}-w{}-t{}.run",
            self.source, self.workload, self.seed, self.warmup, self.transactions
        )
    }
}

/// What the executor remembers about one completed run: the measurement plus
/// the invariant findings made while producing it. Caching the findings is
/// what lets cache hits *replay* violations instead of silently dropping
/// them — on disk exactly as in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The run's complete measurement.
    pub result: RunResult,
    /// Whether an invariant monitor observed the run at all. Strict
    /// executors refuse to trust unmonitored entries and re-simulate.
    pub monitored: bool,
    /// Uncapped violation count from the run's monitor.
    pub total_violations: u64,
    /// Stored violation reports (capped by the monitor).
    pub violations: Vec<Violation>,
}

mtvar_sim::impl_snap!(RunRecord {
    result,
    monitored,
    total_violations,
    violations,
});

/// Encodes one record into its framed byte form: `magic | version |
/// payload_len | fingerprint | payload`.
pub fn encode_record(record: &RunRecord) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(28 + record.snap_size_hint());
    record.encode_snap(&mut enc);
    let payload = enc.into_bytes();
    let mut out = Vec::with_capacity(28 + payload.len());
    out.extend_from_slice(&RESULT_MAGIC);
    out.extend_from_slice(&RESULT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&Fnv1a::hash(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes a framed record, validating magic, version, length, fingerprint
/// and structure. Every malformed input — truncation, bit flip, splice,
/// hostile length — is an error, never a panic, and lengths are checked
/// against the actual byte count before anything is sized from them.
///
/// # Errors
///
/// Returns the [`CheckpointError`] naming the first validation failure.
pub fn decode_record(bytes: &[u8]) -> Result<RunRecord, CheckpointError> {
    let mut dec = Decoder::new(bytes);
    if dec.get_bytes(8)? != RESULT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = dec.get_u32()?;
    if version != RESULT_VERSION {
        return Err(CheckpointError::UnsupportedVersion { found: version });
    }
    let payload_len = dec.get_u64()?;
    let stored = dec.get_u64()?;
    // Hostile-length rejection: the claimed length must match what is
    // actually present, and is never used to size an allocation.
    if payload_len != dec.remaining() as u64 {
        return Err(CheckpointError::Truncated);
    }
    let payload = dec.get_bytes(payload_len as usize)?;
    let actual = Fnv1a::hash(payload);
    if stored != actual {
        return Err(CheckpointError::FingerprintMismatch { stored, actual });
    }
    let mut body = Decoder::new(payload);
    let record = RunRecord::decode_snap(&mut body)?;
    body.finish()?;
    Ok(record)
}

/// On-disk run-result store: one validated frame per completed run, written
/// crash-safely. Attached to an executor via
/// [`Executor::with_result_spill`]; the in-memory cache consults it on a
/// miss and writes through on insert.
///
/// [`Executor::with_result_spill`]: crate::runspace::Executor::with_result_spill
#[derive(Debug)]
pub struct ResultStore {
    spill: SpillDir,
}

impl ResultStore {
    /// The conventional spill directory, `target/mtvar-results/`.
    pub fn default_spill_dir() -> PathBuf {
        PathBuf::from("target").join("mtvar-results")
    }

    /// A store spilling under `dir` (created on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultStore {
            spill: SpillDir::new("result store", dir),
        }
    }

    /// Drains and returns the warnings accumulated from degraded disk
    /// operations (unreadable or corrupt spill files, failed writes). Every
    /// warning was also written to stderr when it occurred.
    pub fn take_warnings(&self) -> Vec<String> {
        self.spill.take_warnings()
    }

    /// Loads the record for `key` from disk. A file that fails frame
    /// validation (truncated, corrupt, wrong version) is deleted and
    /// reported as a miss — the caller re-simulates and the next insert
    /// rewrites it whole.
    pub fn get(&self, key: &RunKey) -> Option<RunRecord> {
        self.spill.read_validated(&key.file_name(), decode_record)
    }

    /// Writes `record` under `key` via temp-file + `fsync` + atomic rename.
    /// Best-effort: an I/O failure degrades to memory-only caching (with a
    /// warning) rather than failing the sweep.
    pub fn insert(&self, key: &RunKey, record: &RunRecord) {
        self.spill.write(&key.file_name(), &encode_record(record));
    }

    /// Number of `.run` records currently on disk (a directory scan; used by
    /// stats reporting, not hot paths).
    pub fn len_on_disk(&self) -> usize {
        self.spill
            .names()
            .filter(|name| name.ends_with(".run"))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::temp_dir;
    use mtvar_sim::stats::RunResult;
    use std::fs;

    fn key(seed: u64) -> RunKey {
        RunKey {
            source: 0xAB,
            workload: 0xCD,
            seed,
            warmup: 10,
            transactions: 25,
        }
    }

    fn record(tag: u64) -> RunRecord {
        let mut result = RunResult {
            start_cycle: 100 + tag,
            end_cycle: 900 + tag,
            transactions: 4,
            commit_cycles: vec![200, 400, 600, 900 + tag],
            mem: Default::default(),
            proc: Default::default(),
            locks: Default::default(),
            sched: Default::default(),
            sched_events: Vec::new(),
            cpu_busy_ns: 640,
            cpus: 4,
        };
        result.mem.l1d_hits = 7 * tag;
        RunRecord {
            result,
            monitored: true,
            total_violations: 0,
            violations: Vec::new(),
        }
    }

    #[test]
    fn frame_round_trips() {
        let r = record(3);
        let bytes = encode_record(&r);
        assert_eq!(decode_record(&bytes).unwrap(), r);
    }

    #[test]
    fn every_frame_mutation_is_rejected() {
        let bytes = encode_record(&record(5));
        // Every byte position, one flipped bit.
        for i in 0..bytes.len() {
            let mut buf = bytes.clone();
            buf[i] ^= 1 << (i % 8);
            assert!(decode_record(&buf).is_err(), "flip at byte {i} decoded Ok");
        }
        // Every truncation.
        for len in 0..bytes.len() {
            assert!(
                decode_record(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded Ok"
            );
        }
        // Hostile payload length: claims u64::MAX but must be rejected by
        // comparison against the real byte count, never allocated.
        let mut buf = bytes.clone();
        buf[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_record(&buf).is_err());
    }

    #[test]
    fn disk_round_trip_and_corrupt_fallback() {
        let dir = temp_dir("result-spill");
        let store = ResultStore::new(&dir);
        assert!(store.get(&key(1)).is_none());
        store.insert(&key(1), &record(1));
        assert_eq!(store.get(&key(1)).unwrap(), record(1));
        assert!(store.get(&key(2)).is_none(), "seed is part of the key");
        assert_eq!(store.len_on_disk(), 1);

        // Corrupt the file: the read must miss, delete, and warn.
        let path = dir.join(key(1).file_name());
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(store.get(&key(1)).is_none());
        assert!(!path.exists(), "corrupt file must be deleted");
        let warnings = store.take_warnings();
        assert!(
            warnings.iter().any(|w| w.contains("corrupt")),
            "corruption must be surfaced: {warnings:?}"
        );
        assert!(store.take_warnings().is_empty(), "warnings drain");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn violations_persist_across_the_spill() {
        let dir = temp_dir("result-violations");
        let store = ResultStore::new(&dir);
        let mut r = record(2);
        r.monitored = true;
        r.total_violations = 3;
        let bytes = encode_record(&r);
        let back = decode_record(&bytes).unwrap();
        assert_eq!(back.total_violations, 3);
        store.insert(&key(2), &r);
        assert_eq!(store.get(&key(2)).unwrap().total_violations, 3);
        let _ = fs::remove_dir_all(&dir);
    }
}
