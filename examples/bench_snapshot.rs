//! Snapshot fork-restore benchmark: the cost of launching one perturbed run
//! from a warmed 16-CPU OLTP checkpoint, before (a full `Machine::restore`
//! per fork — the pre-sectioning executor path) versus after (decode one
//! template, `Machine::fork` per run — copy-on-write `Arc` sharing of the
//! line arrays). Written to `BENCH_snapshot.json`.
//!
//! ```text
//! cargo run --release --example bench_snapshot
//! ```
//!
//! This is the state-acquisition step of the time-sampling scenario: a study
//! launches many short measured windows from one warmup checkpoint, so the
//! per-window decode cost multiplies across the whole run space. The digest
//! fold pins the statistics: a forked machine must produce bit-identical
//! results to a freshly restored one, so the speedup is a like-for-like
//! decode-path win, not a semantics change.

use std::time::Instant;

use mtvar_core::golden::run_digest;
use mtvar_sim::config::MachineConfig;
use mtvar_sim::hash::fold_digest;
use mtvar_sim::machine::Machine;
use mtvar_workloads::profile::ProfiledWorkload;
use mtvar_workloads::Benchmark;

/// Measurement samples per mode; the median is reported.
const SAMPLES: usize = 7;
/// Warmup transactions before the checkpoint is taken.
const WARMUP_TXNS: u64 = 300;
/// Forks launched from the one warmed checkpoint per sample.
const FORKS: usize = 32;
/// Measured transactions per fork in the digest-equality pass.
const FORK_TXNS: u64 = 20;

/// Minimum accepted speedup of fork-per-run over restore-per-run. The PR's
/// acceptance floor; the measured ratio is far above it because a fork is a
/// pointer-copy of the dominant line arrays.
const REQUIRED_SPEEDUP: f64 = 2.0;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

fn warmed_checkpoint() -> mtvar_sim::checkpoint::Checkpoint {
    let cfg = MachineConfig::hpca2003().with_perturbation(4, 1);
    let mut m = Machine::new(cfg, Benchmark::Oltp.workload(16, 42)).expect("machine");
    m.run_transactions(WARMUP_TXNS).expect("warmup");
    m.snapshot()
}

/// Legacy path: every fork pays a full decode of the checkpoint.
fn restore_sample(ck: &mtvar_sim::checkpoint::Checkpoint) -> f64 {
    let t0 = Instant::now();
    for _ in 0..FORKS {
        let m: Machine<ProfiledWorkload> = Machine::restore(ck).expect("restore");
        std::hint::black_box(&m);
    }
    t0.elapsed().as_secs_f64()
}

/// Sectioned path: decode one template, fork it per run.
fn fork_sample(ck: &mtvar_sim::checkpoint::Checkpoint) -> f64 {
    let t0 = Instant::now();
    let template: Machine<ProfiledWorkload> = Machine::restore(ck).expect("restore");
    for _ in 0..FORKS {
        let m = template.fork();
        std::hint::black_box(&m);
    }
    t0.elapsed().as_secs_f64()
}

/// Decode-thread sweep axis for the parallel sectioned decode.
const DECODE_THREADS: [usize; 4] = [1, 2, 4, 8];
/// Template decodes per timing sample in the thread sweep.
const DECODES_PER_SAMPLE: usize = 4;

/// Times `DECODES_PER_SAMPLE` template decodes at the given worker count.
fn decode_sample(ck: &mtvar_sim::checkpoint::Checkpoint, threads: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..DECODES_PER_SAMPLE {
        let m: Machine<ProfiledWorkload> =
            Machine::restore_with_threads(ck, threads).expect("restore");
        std::hint::black_box(&m);
    }
    t0.elapsed().as_secs_f64()
}

/// Runs `FORKS` perturbed windows acquired via `acquire` and folds their
/// statistics digests; both acquisition paths must fold to the same value.
fn digest_fold<F>(mut acquire: F) -> u64
where
    F: FnMut() -> Machine<ProfiledWorkload>,
{
    (0..FORKS).fold(0xcbf2_9ce4_8422_2325u64, |acc, i| {
        let mut m = acquire();
        m.set_perturbation(m.config().perturbation_max_ns, i as u64);
        let result = m.run_transactions(FORK_TXNS).expect("forked run");
        fold_digest(acc, run_digest(&result))
    })
}

fn main() {
    println!(
        "snapshot fork-restore: 16-CPU OLTP (hpca2003), checkpoint after \
         {WARMUP_TXNS} warmup txns, {FORKS} forks/sample"
    );
    let ck = warmed_checkpoint();
    println!(
        "  payload            : {} bytes, {} sections",
        ck.len(),
        ck.sections().len()
    );

    // Statistics pin first: a fork must be indistinguishable from a fresh
    // restore across a perturbed measured window.
    let restored_digest = digest_fold(|| Machine::restore(&ck).expect("restore"));
    let template: Machine<ProfiledWorkload> = Machine::restore(&ck).expect("restore");
    let forked_digest = digest_fold(|| template.fork());
    assert_eq!(
        restored_digest, forked_digest,
        "forked runs must be bit-identical to restored runs"
    );
    println!("  digest             : {restored_digest:#018x} (restore == fork)");

    let restore_wall = median((0..SAMPLES).map(|_| restore_sample(&ck)).collect());
    let fork_wall = median((0..SAMPLES).map(|_| fork_sample(&ck)).collect());
    let restore_us = restore_wall * 1e6 / FORKS as f64;
    let fork_us = fork_wall * 1e6 / FORKS as f64;
    let speedup = restore_wall / fork_wall;

    println!("  restore/fork       : {restore_us:.1} us (full decode per fork)");
    println!("  fork/fork          : {fork_us:.1} us (one decode + CoW forks)");
    println!("  speedup            : {speedup:.2}x");
    assert!(
        speedup >= REQUIRED_SPEEDUP,
        "fork path must be at least {REQUIRED_SPEEDUP}x faster than \
         restore-per-fork (measured {speedup:.2}x)"
    );

    // Template-decode latency across decode worker counts: the parallel
    // sectioned decode's headline. Bit-identity is asserted unconditionally
    // (every thread count must re-encode to the snapshot's fingerprint); the
    // speedup floor is only *enforced* where the host actually has cores to
    // decode with — a single-core container cannot overlap section decodes,
    // and the JSON records that honestly via `speedup_enforced`.
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let want_fp = ck.fingerprint();
    let mut decode_us = Vec::new();
    for &threads in &DECODE_THREADS {
        let m: Machine<ProfiledWorkload> =
            Machine::restore_with_threads(&ck, threads).expect("restore");
        assert_eq!(
            m.snapshot().fingerprint(),
            want_fp,
            "{threads}-thread decode changed the re-encoded payload"
        );
        drop(m);
        let wall = median((0..SAMPLES).map(|_| decode_sample(&ck, threads)).collect());
        let us = wall * 1e6 / DECODES_PER_SAMPLE as f64;
        println!("  decode @{threads} thread(s): {us:.1} us/template");
        decode_us.push((threads, us));
    }
    let us_at = |t: usize| decode_us.iter().find(|&&(n, _)| n == t).expect("swept").1;
    let decode_speedup_4 = us_at(1) / us_at(4);
    let speedup_enforced = host_parallelism >= 4;
    println!(
        "  decode speedup @4  : {decode_speedup_4:.2}x \
         ({host_parallelism} host core(s), floor {}enforced)",
        if speedup_enforced { "" } else { "not " }
    );
    if speedup_enforced {
        assert!(
            decode_speedup_4 >= REQUIRED_SPEEDUP,
            "4-thread template decode must be at least {REQUIRED_SPEEDUP}x \
             faster than 1-thread on a {host_parallelism}-core host \
             (measured {decode_speedup_4:.2}x)"
        );
    }
    let decode_rows = decode_us
        .iter()
        .map(|&(threads, us)| {
            format!(
                "      {{ \"decode_threads\": {threads}, \"microseconds_per_template\": \
                 {us:.1}, \"speedup_vs_1_thread\": {:.3} }}",
                us_at(1) / us
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let json = format!(
        "{{\n  \"workload\": \"16-CPU OLTP (hpca2003), checkpoint after {WARMUP_TXNS} warmup txns; {FORKS} forks per sample, median of {SAMPLES}\",\n  \"payload_bytes\": {},\n  \"sections\": {},\n  \"before\": {{\n    \"path\": \"full Machine::restore per fork\",\n    \"microseconds_per_fork\": {restore_us:.1}\n  }},\n  \"after\": {{\n    \"path\": \"decode one template, Machine::fork per run (Arc copy-on-write line arrays)\",\n    \"microseconds_per_fork\": {fork_us:.1}\n  }},\n  \"speedup\": {speedup:.2},\n  \"required_speedup\": {REQUIRED_SPEEDUP:.1},\n  \"statistics_identical\": true,\n  \"template_decode\": {{\n    \"path\": \"parallel sectioned decode: per-node sections across scoped workers, residency seeds merged sequentially\",\n    \"host_parallelism\": {host_parallelism},\n    \"threads\": [\n{decode_rows}\n    ],\n    \"speedup_at_4_threads\": {decode_speedup_4:.3},\n    \"required_speedup\": {REQUIRED_SPEEDUP:.1},\n    \"speedup_enforced\": {speedup_enforced},\n    \"bit_identical\": true\n  }}\n}}\n",
        ck.len(),
        ck.sections().len(),
    );
    std::fs::write("BENCH_snapshot.json", json).expect("write BENCH_snapshot.json");
    println!("wrote BENCH_snapshot.json");
}
