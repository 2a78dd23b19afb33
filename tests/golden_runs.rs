//! Golden-run regression harness: every benchmark is simulated under one
//! pinned configuration and its [`RunResult`] digest compared against
//! `tests/golden/benchmarks.txt`. Any unintended behaviour change anywhere
//! in the stack — workload generation, processor timing, coherence,
//! scheduling, perturbation — shifts at least one digest and fails here.
//!
//! The runs execute with invariant checking enabled, so this harness also
//! proves the coherence/inclusion/conservation invariants hold across every
//! benchmark's full warmup + measurement, and that enabling the (read-only)
//! monitor does not disturb the digests.
//!
//! Re-blessing after an *intended* change:
//!
//! ```text
//! MTVAR_BLESS=1 cargo test --test golden_runs
//! ```
//!
//! then review and commit the diff of `tests/golden/benchmarks.txt` together
//! with the change that caused it.
//!
//! Two literals ride alongside the file, both at the paper's 16 CPUs: the
//! kernel's reference interval, and the one pin of `Executor::run_space`
//! end to end.
//!
//! [`RunResult`]: mtvar::sim::stats::RunResult

use std::fs;
use std::path::PathBuf;

use mtvar::core::golden::{run_digest, GoldenFile};
use mtvar::core::runspace::{Executor, RunPlan};
use mtvar::sim::config::{FaultSpec, MachineConfig};
use mtvar::sim::hash::fold_digest;
use mtvar::sim::machine::Machine;
use mtvar::sim::mem::CoherenceState;
use mtvar::sim::proc::{OooConfig, ProcessorConfig};
use mtvar::workloads::Benchmark;

const CPUS: usize = 4;
const WORKLOAD_SEED: u64 = 42;
const PERTURBATION_SEED: u64 = 0x607D;
const NOISE_SEED: u64 = 0x5EED;
const WARMUP_TXNS: u64 = 10;
const MEASURE_TXNS: u64 = 40;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("benchmarks.txt")
}

fn golden_config() -> MachineConfig {
    MachineConfig::hpca2003()
        .with_cpus(CPUS)
        .with_perturbation(4, PERTURBATION_SEED)
        .with_invariant_checks()
}

/// The noise-enabled variant: the paper's E5000-like "real machine" with its
/// environmental-noise model seeded, pinned to the same CPU count and
/// perturbation as the clean configuration. Digesting the benchmarks under
/// it as well locks down the noise model's behaviour, which the clean
/// configuration never exercises.
fn e5000_config() -> MachineConfig {
    MachineConfig::e5000_like(NOISE_SEED)
        .with_cpus(CPUS)
        .with_perturbation(4, PERTURBATION_SEED)
        .with_invariant_checks()
}

/// The scaling configuration the paper never had: a 64-node machine under
/// directory coherence (same per-node hierarchy as the paper's target),
/// with the workload's threads spread across all 64 CPUs. Digesting every
/// benchmark under it locks down the directory transport's protocol
/// decisions, timing, and residency bookkeeping at a scale where the
/// snooping bus never operated.
const DIR64_CPUS: usize = 64;

fn dir64_config() -> MachineConfig {
    MachineConfig::hpca2003()
        .with_cpus(DIR64_CPUS)
        .with_directory_coherence()
        .with_perturbation(4, PERTURBATION_SEED)
        .with_invariant_checks()
}

/// Runs one benchmark under `config` (a `cpus`-thread workload on a `cpus`
/// machine) and returns its digest, asserting along the way that the
/// invariant monitor stayed clean.
fn digest_benchmark_under_cpus(config: MachineConfig, bench: Benchmark, cpus: usize) -> u64 {
    let mut m = Machine::new(config, bench.workload(cpus, WORKLOAD_SEED))
        .expect("golden config must build");
    m.run_transactions(WARMUP_TXNS).expect("warmup");
    let result = m.run_transactions(MEASURE_TXNS).expect("measurement");
    assert!(
        m.invariant_violations().is_empty(),
        "{}: invariant violations during golden run: {:?}",
        bench.name(),
        m.invariant_violations(),
    );
    run_digest(&result)
}

fn digest_benchmark_under(config: MachineConfig, bench: Benchmark) -> u64 {
    digest_benchmark_under_cpus(config, bench, CPUS)
}

fn digest_benchmark(bench: Benchmark) -> u64 {
    digest_benchmark_under(golden_config(), bench)
}

/// The out-of-order processor model under the clean configuration: same
/// CPUs, perturbation and monitoring, but TFsim-like OoO cores instead of
/// the in-order default. Digesting every benchmark under it locks down the
/// OoO pipeline's timing behaviour, which the other two variants never
/// exercise.
fn ooo_config() -> MachineConfig {
    golden_config().with_processor(ProcessorConfig::OutOfOrder(OooConfig::tfsim_default()))
}

#[test]
fn all_benchmarks_match_golden_digests() {
    let mut current = GoldenFile::new();
    for bench in Benchmark::ALL {
        current.set(bench.name(), digest_benchmark(bench));
        current.set(
            &format!("{}+e5000", bench.name()),
            digest_benchmark_under(e5000_config(), bench),
        );
        current.set(
            &format!("{}+ooo", bench.name()),
            digest_benchmark_under(ooo_config(), bench),
        );
        current.set(
            &format!("{}+dir64", bench.name()),
            digest_benchmark_under_cpus(dir64_config(), bench, DIR64_CPUS),
        );
    }

    let path = golden_path();
    if std::env::var_os("MTVAR_BLESS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        fs::write(&path, current.render()).expect("write golden file");
        eprintln!("blessed {} digests into {}", current.len(), path.display());
        return;
    }

    let text = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nrun `MTVAR_BLESS=1 cargo test --test golden_runs` to create it",
            path.display()
        )
    });
    let golden = GoldenFile::parse(&text).expect("golden file must parse");

    let mut mismatches = Vec::new();
    for (name, digest) in current.iter() {
        match golden.get(name) {
            Some(expected) if expected == digest => {}
            Some(expected) => mismatches.push(format!(
                "{name}: digest {digest:#018x} != golden {expected:#018x}"
            )),
            None => mismatches.push(format!("{name}: missing from golden file")),
        }
    }
    for (name, _) in golden.iter() {
        if current.get(name).is_none() {
            mismatches.push(format!("{name}: in golden file but no such benchmark"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden digests diverged:\n  {}\n\
         If the behaviour change is intended, re-bless with \
         `MTVAR_BLESS=1 cargo test --test golden_runs` and commit the diff.",
        mismatches.join("\n  "),
    );
}

#[test]
fn golden_digests_are_stable_across_repeat_runs() {
    // The digest itself must be a pure function of the pinned inputs;
    // otherwise the golden comparison would flake rather than gate.
    let bench = Benchmark::Barnes;
    assert_eq!(digest_benchmark(bench), digest_benchmark(bench));
}

/// The kernel's reference interval: 16-CPU OLTP on the paper's machine, 2000
/// measured transactions after 100 of warmup, perturbation (4 ns, seed 1).
/// A reordering of same-time events that only shows at full machine width,
/// which the 4-CPU file above can miss, fails here.
#[test]
fn sixteen_cpu_oltp_interval_matches_its_pinned_digest() {
    let config = MachineConfig::hpca2003().with_perturbation(4, 1);
    let mut m = Machine::new(config, Benchmark::Oltp.workload(16, WORKLOAD_SEED)).expect("machine");
    m.run_transactions(100).expect("warmup");
    let result = m.run_transactions(2000).expect("measurement");
    assert_eq!(run_digest(&result), 0x3169_0f97_be50_30cb);
}

/// Checkpoint fingerprints of four warmed machines: the 16-CPU OLTP machine
/// with in-order and with ROB-64 out-of-order cores, the 64-CPU directory
/// machine, and a monitored 4-CPU machine whose planted coherence fault has
/// been recorded. The fingerprint hashes the whole snapshot payload, so a
/// change to any type's encoding — a tag byte, a field order, a
/// length prefix — fails here. The `invariant-monitor` feature puts a
/// monitor into the three unmonitored machines, so each of them pins one
/// fingerprint per build.
#[test]
fn warmed_machines_match_their_pinned_checkpoint_fingerprints() {
    let per_build = |off: u64, on: u64| {
        if cfg!(feature = "invariant-monitor") {
            on
        } else {
            off
        }
    };
    let fingerprint = |config: MachineConfig, cpus: usize, warmup: u64| {
        let mut m =
            Machine::new(config, Benchmark::Oltp.workload(cpus, WORKLOAD_SEED)).expect("machine");
        m.run_transactions(warmup).expect("warmup");
        (m.snapshot().fingerprint(), m.invariant_violations().len())
    };
    let sixteen = MachineConfig::hpca2003().with_perturbation(4, 1);
    let faulted = golden_config().with_fault(FaultSpec::coherence(
        12,
        1,
        0xFA11,
        CoherenceState::Exclusive,
    ));
    let actual = [
        fingerprint(sixteen.clone(), 16, 100),
        fingerprint(
            sixteen.with_processor(ProcessorConfig::OutOfOrder(OooConfig::with_rob_size(64))),
            16,
            100,
        ),
        fingerprint(dir64_config(), DIR64_CPUS, 40),
        fingerprint(faulted, CPUS, 40),
    ];
    assert!(actual[3].1 > 0, "the planted fault must be recorded");
    let actual = actual.map(|(fp, _)| fp);
    let expected = [
        per_build(0x0575_b3ae_f912_b8bb, 0xf669_a32f_e8eb_822a),
        per_build(0x63fd_2636_c295_fc90, 0x842b_6d8e_489a_2604),
        0xe144_a9e5_345a_3511,
        0xaa26_6e4e_2b5c_0544,
    ];
    assert_eq!(actual, expected, "fingerprints {actual:#018x?}");
}

/// The executor's launch pipeline end to end — per-run seed derivation,
/// shared warmup, fork, perturbation armed at measurement start — on 16
/// perturbed runs of the ROB-32 machine, folded from zero like the daemon's
/// and `mtvar batch`'s sweep digests. A change to `derive_run_seed` or the
/// shared-warmup seed domain moves every run and fails here.
#[test]
fn sixteen_run_rob32_space_matches_its_pinned_digest() {
    let config = MachineConfig::hpca2003()
        .with_processor(ProcessorConfig::OutOfOrder(OooConfig::with_rob_size(32)))
        .with_perturbation(4, 0);
    let plan = RunPlan::new(50).with_runs(16).with_warmup(400);
    let space = Executor::sequential()
        .without_cache()
        .run_space(
            &config,
            || Benchmark::Oltp.workload(16, WORKLOAD_SEED),
            &plan,
        )
        .expect("run space");
    let digest = space
        .results()
        .iter()
        .fold(0, |acc, r| fold_digest(acc, run_digest(r)));
    assert_eq!(digest, 0xbe34_42eb_b53d_bdc1);
}
