//! Per-run measurement results.

use crate::ids::Cycle;
use crate::mem::MemStats;
use crate::proc::ProcStats;
use crate::sched::{SchedEvent, SchedStats};
use crate::sync::LockStats;

/// Everything measured over one simulation run (one measurement interval).
///
/// The headline number is [`RunResult::cycles_per_transaction`] — the paper's
/// §3.1 metric: simulated time to finish a fixed number of transactions,
/// divided by that number.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Cycle at which measurement began.
    pub start_cycle: Cycle,
    /// Cycle of the final transaction commit.
    pub end_cycle: Cycle,
    /// Transactions committed inside the interval.
    pub transactions: u64,
    /// Absolute commit time of each transaction, in order.
    pub commit_cycles: Vec<Cycle>,
    /// Memory-system counters over the interval.
    pub mem: MemStats,
    /// Aggregated processor counters over the interval.
    pub proc: ProcStats,
    /// Lock counters over the interval.
    pub locks: LockStats,
    /// Scheduler counters over the interval.
    pub sched: SchedStats,
    /// Scheduling-event log (empty unless recording was enabled).
    pub sched_events: Vec<SchedEvent>,
    /// Total ns the CPUs spent executing (vs idle), summed over CPUs.
    pub cpu_busy_ns: u64,
    /// Number of CPUs in the machine (for utilization).
    pub cpus: usize,
}

impl RunResult {
    /// Elapsed simulated time of the interval.
    pub fn elapsed(&self) -> Cycle {
        self.end_cycle - self.start_cycle
    }

    /// The paper's cycles-per-transaction metric.
    ///
    /// Returns NaN if no transactions committed.
    pub fn cycles_per_transaction(&self) -> f64 {
        if self.transactions == 0 {
            f64::NAN
        } else {
            self.elapsed() as f64 / self.transactions as f64
        }
    }

    /// Mean CPU utilization over the interval: busy time divided by
    /// `cpus × elapsed`. Exceeds neither 1 nor the truth by much — pipeline
    /// drains and stalls count as busy, idle waiting for work does not.
    pub fn cpu_utilization(&self) -> f64 {
        let denom = (self.cpus as u64 * self.elapsed()) as f64;
        if denom == 0.0 {
            0.0
        } else {
            (self.cpu_busy_ns as f64 / denom).min(1.0)
        }
    }

    /// Cycles-per-transaction over a sub-window `[i, j)` of the commit
    /// sequence (used for the Figure-8 time-variability series). Window `i`
    /// is measured from the previous commit (or interval start for `i = 0`).
    ///
    /// Returns `None` when the window is empty or out of range.
    pub fn window_cycles_per_transaction(&self, i: usize, j: usize) -> Option<f64> {
        if i >= j || j > self.commit_cycles.len() {
            return None;
        }
        let start = if i == 0 {
            self.start_cycle
        } else {
            self.commit_cycles[i - 1]
        };
        let end = self.commit_cycles[j - 1];
        Some((end - start) as f64 / (j - i) as f64)
    }
}

// Stable binary encoding so completed measurements can be spilled to disk
// (the run-result cache) and replayed across processes. Every field is
// covered — including the full commit-cycle vector and the observational
// sched-event log — so a decoded result is indistinguishable from the
// original, and the golden digest of a round-tripped result is unchanged.
crate::impl_snap!(RunResult {
    start_cycle,
    end_cycle,
    transactions,
    commit_cycles,
    mem,
    proc,
    locks,
    sched,
    sched_events,
    cpu_busy_ns,
    cpus,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{Decoder, Encoder, Snap};

    fn result() -> RunResult {
        RunResult {
            start_cycle: 1000,
            end_cycle: 5000,
            transactions: 4,
            commit_cycles: vec![2000, 3000, 4000, 5000],
            mem: MemStats::default(),
            proc: ProcStats::default(),
            locks: LockStats::default(),
            sched: SchedStats::default(),
            sched_events: Vec::new(),
            cpu_busy_ns: 3000,
            cpus: 2,
        }
    }

    #[test]
    fn cycles_per_transaction() {
        let r = result();
        assert_eq!(r.elapsed(), 4000);
        assert!((r.cycles_per_transaction() - 1000.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_nan() {
        let mut r = result();
        r.transactions = 0;
        assert!(r.cycles_per_transaction().is_nan());
    }

    #[test]
    fn utilization_is_bounded() {
        let r = result();
        // 3000 busy ns over 2 cpus x 4000 cycles.
        assert!((r.cpu_utilization() - 3000.0 / 8000.0).abs() < 1e-12);
        let mut z = result();
        z.end_cycle = z.start_cycle;
        assert_eq!(z.cpu_utilization(), 0.0);
    }

    #[test]
    fn snap_round_trip_is_exact() {
        let mut r = result();
        r.mem.l2_misses = 9;
        r.proc.instructions = 1234;
        r.locks.contended = 2;
        r.sched.preemptions = 3;
        let mut enc = Encoder::new();
        r.encode_snap(&mut enc);
        let bytes = enc.into_bytes();
        assert!(bytes.len() <= r.snap_size_hint(), "hint must err high");
        let mut dec = Decoder::new(&bytes);
        let back = RunResult::decode_snap(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back, r);
        // Truncations decode to an error, never a panic.
        for cut in 0..bytes.len() {
            let mut dec = Decoder::new(&bytes[..cut]);
            let out = RunResult::decode_snap(&mut dec);
            assert!(
                out.is_err() || dec.finish().is_err(),
                "prefix of {cut} bytes silently decoded"
            );
        }
    }

    #[test]
    fn window_metric() {
        let r = result();
        // First two txns: (3000 - 1000) / 2.
        assert_eq!(r.window_cycles_per_transaction(0, 2), Some(1000.0));
        // Last two: (5000 - 3000) / 2.
        assert_eq!(r.window_cycles_per_transaction(2, 4), Some(1000.0));
        assert_eq!(r.window_cycles_per_transaction(2, 2), None);
        assert_eq!(r.window_cycles_per_transaction(0, 9), None);
    }
}
