//! Golden-run regression fingerprints.
//!
//! A deterministic simulator's strongest regression test is bit-exactness:
//! for a pinned `(configuration, workload seed, perturbation seed)` the
//! entire [`RunResult`] must never change unless a change was *intended*.
//! This module condenses a run into one `u64` digest and stores one digest
//! per benchmark in a human-diffable text file, so an accidental behaviour
//! change in any layer — workload generation, processor timing, coherence,
//! scheduling — trips a single cheap comparison.
//!
//! The digest covers every integer field of the result, including the full
//! per-transaction commit-cycle vector. It deliberately excludes
//! `sched_events`: the log is empty unless explicitly enabled and is purely
//! observational, and golden configurations leave it off.
//!
//! Re-blessing: when a change is intentional, regenerate the golden file by
//! running the harness with `MTVAR_BLESS=1` (see `tests/golden_runs.rs` at
//! the workspace root) and commit the diff alongside the change that caused
//! it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mtvar_sim::hash::Fnv1a;
use mtvar_sim::stats::RunResult;

use crate::CoreError;

/// Digests every integer field of a [`RunResult`] into one `u64`.
///
/// Covered: cycle bounds, transaction count, the full commit-cycle vector
/// (length and values), all 14 memory counters, all 7 processor counters,
/// all 4 lock counters, all 4 scheduler counters, busy time, and CPU count.
/// Excluded: `sched_events` (observational; empty unless enabled).
pub fn run_digest(result: &RunResult) -> u64 {
    let mut h = Fnv1a::new();
    let mut push = |word: u64| h.update(&word.to_le_bytes());
    push(result.start_cycle);
    push(result.end_cycle);
    push(result.transactions);
    push(result.commit_cycles.len() as u64);
    for &c in &result.commit_cycles {
        push(c);
    }
    let m = &result.mem;
    for w in [
        m.l1i_hits,
        m.l1i_misses,
        m.l1d_hits,
        m.l1d_misses,
        m.l2_hits,
        m.l2_misses,
        m.upgrades,
        m.silent_upgrades,
        m.cache_to_cache,
        m.memory_fetches,
        m.writebacks,
        m.invalidations,
        m.bus_wait_ns,
        m.perturbation_ns,
    ] {
        push(w);
    }
    let p = &result.proc;
    for w in [
        p.instructions,
        p.branches,
        p.branch_mispredicts,
        p.indirect_mispredicts,
        p.ras_mispredicts,
        p.window_stall_ns,
        p.drain_ns,
    ] {
        push(w);
    }
    let l = &result.locks;
    for w in [l.acquisitions, l.contended, l.wait_ns, l.hold_ns] {
        push(w);
    }
    let s = &result.sched;
    for w in [s.dispatches, s.preemptions, s.migrations, s.yields] {
        push(w);
    }
    push(result.cpu_busy_ns);
    push(result.cpus as u64);
    h.finish()
}

/// A named collection of golden digests with a stable, diff-friendly text
/// encoding: one `name = 0xHEX` line per entry, sorted by name, `#` for
/// comments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GoldenFile {
    entries: BTreeMap<String, u64>,
}

impl GoldenFile {
    /// Creates an empty golden file.
    pub fn new() -> Self {
        GoldenFile::default()
    }

    /// Parses the text encoding.
    ///
    /// Blank lines and lines starting with `#` are ignored; every other
    /// line must be `name = 0xHEX`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidExperiment`] naming the first malformed
    /// line.
    pub fn parse(text: &str) -> Result<Self, CoreError> {
        let mut entries = BTreeMap::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || CoreError::InvalidExperiment {
                what: format!(
                    "golden file line {}: expected `name = 0xHEX`, got `{line}`",
                    idx + 1
                ),
            };
            let (name, value) = line.split_once('=').ok_or_else(bad)?;
            let hex = value.trim().strip_prefix("0x").ok_or_else(bad)?;
            let digest = u64::from_str_radix(hex, 16).map_err(|_| bad())?;
            entries.insert(name.trim().to_string(), digest);
        }
        Ok(GoldenFile { entries })
    }

    /// Renders the sorted text encoding (round-trips through [`parse`]).
    ///
    /// [`parse`]: GoldenFile::parse
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Golden run digests — regenerate with MTVAR_BLESS=1 (see tests/golden_runs.rs).\n",
        );
        for (name, digest) in &self.entries {
            let _ = writeln!(out, "{name} = {digest:#018x}");
        }
        out
    }

    /// Records (or replaces) a digest.
    pub fn set(&mut self, name: &str, digest: u64) {
        self.entries.insert(name.to_string(), digest);
    }

    /// Looks up a digest by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries.get(name).copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the file holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> RunResult {
        let mut r = RunResult {
            start_cycle: 100,
            end_cycle: 5000,
            transactions: 3,
            commit_cycles: vec![1200, 2600, 4100],
            mem: Default::default(),
            proc: Default::default(),
            locks: Default::default(),
            sched: Default::default(),
            sched_events: Vec::new(),
            cpu_busy_ns: 9000,
            cpus: 4,
        };
        r.mem.l1d_hits = 40;
        r.mem.l1d_misses = 7;
        r.proc.instructions = 123;
        r.locks.acquisitions = 5;
        r.sched.dispatches = 11;
        r
    }

    #[test]
    fn digest_is_deterministic_and_field_sensitive() {
        let a = sample_result();
        let base = run_digest(&a);
        assert_eq!(base, run_digest(&a.clone()));
        // Pinned: `tests/golden/benchmarks.txt` is written in this hash.
        assert_eq!(base, 0xE9FB_7633_1809_CA9D);

        // Every category of field must perturb the digest.
        let mut b = a.clone();
        b.end_cycle += 1;
        assert_ne!(base, run_digest(&b));
        let mut b = a.clone();
        b.commit_cycles[1] += 1;
        assert_ne!(base, run_digest(&b));
        let mut b = a.clone();
        b.mem.silent_upgrades += 1;
        assert_ne!(base, run_digest(&b));
        let mut b = a.clone();
        b.proc.ras_mispredicts += 1;
        assert_ne!(base, run_digest(&b));
        let mut b = a.clone();
        b.locks.wait_ns += 1;
        assert_ne!(base, run_digest(&b));
        let mut b = a.clone();
        b.sched.migrations += 1;
        assert_ne!(base, run_digest(&b));
        let mut b = a.clone();
        b.cpus += 1;
        assert_ne!(base, run_digest(&b));
    }

    #[test]
    fn commit_vector_length_and_order_matter() {
        let a = sample_result();
        let mut b = a.clone();
        b.commit_cycles.push(4500);
        assert_ne!(run_digest(&a), run_digest(&b));
        let mut c = a.clone();
        c.commit_cycles.swap(0, 2);
        assert_ne!(run_digest(&a), run_digest(&c));
    }

    #[test]
    fn golden_file_round_trips() {
        let mut g = GoldenFile::new();
        g.set("barnes", 0xDEAD_BEEF_0000_0001);
        g.set("apache", 0x0000_0000_0000_002A);
        let text = g.render();
        let parsed = GoldenFile::parse(&text).unwrap();
        assert_eq!(parsed, g);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed.get("apache"), Some(0x2A));
        assert_eq!(parsed.get("missing"), None);
        // Rendered sorted by name.
        let names: Vec<&str> = parsed.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["apache", "barnes"]);
    }

    #[test]
    fn parse_tolerates_comments_and_rejects_garbage() {
        let g = GoldenFile::parse("# header\n\n  ocean = 0xFF\n").unwrap();
        assert_eq!(g.get("ocean"), Some(0xFF));
        assert!(GoldenFile::parse("ocean 0xFF").is_err());
        assert!(GoldenFile::parse("ocean = FF").is_err());
        assert!(GoldenFile::parse("ocean = 0xZZ").is_err());
    }

    #[test]
    fn empty_file_parses_empty() {
        let g = GoldenFile::parse("# nothing here\n").unwrap();
        assert!(g.is_empty());
    }
}
