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
//! end to end. Each is checked twice, monitor off and on, and must not move:
//! the monitor is read-only.
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
    for monitored in [false, true] {
        let config = MachineConfig {
            check_invariants: monitored,
            ..MachineConfig::hpca2003().with_perturbation(4, 1)
        };
        let mut m =
            Machine::new(config, Benchmark::Oltp.workload(16, WORKLOAD_SEED)).expect("machine");
        m.run_transactions(100).expect("warmup");
        let result = m.run_transactions(2000).expect("measurement");
        let outcome = (run_digest(&result), m.invariant_violations().len());
        assert_eq!(
            outcome,
            (0x3169_0f97_be50_30cb, 0),
            "monitored: {monitored}"
        );
    }
}

/// Checkpoint fingerprints of four warmed machines: the 16-CPU OLTP machine
/// with in-order and with ROB-64 out-of-order cores, the 64-CPU directory
/// machine, and a monitored 4-CPU machine whose planted coherence fault has
/// been recorded. The fingerprint hashes the whole snapshot payload, so a
/// change to any type's encoding — a tag byte, a field order, a
/// length prefix — fails here. The last two machines are monitored, so
/// they pin the monitor's encoding too.
///
/// The two 16-CPU machines are warmed again with the monitor on. A monitor
/// and its config flag ride in the snapshot, so that arm checks the warmup
/// interval's run digest instead: the monitored warmup must be clean and
/// identical to the pinned one.
#[test]
fn warmed_machines_match_their_pinned_checkpoint_fingerprints() {
    let warm = |config: MachineConfig, cpus: usize, warmup: u64| {
        let mut m =
            Machine::new(config, Benchmark::Oltp.workload(cpus, WORKLOAD_SEED)).expect("machine");
        let interval = m.run_transactions(warmup).expect("warmup");
        (
            m.snapshot().fingerprint(),
            run_digest(&interval),
            m.invariant_violations().len(),
        )
    };
    let sixteen = MachineConfig::hpca2003().with_perturbation(4, 1);
    let rob64 = sixteen
        .clone()
        .with_processor(ProcessorConfig::OutOfOrder(OooConfig::with_rob_size(64)));
    let faulted = golden_config().with_fault(FaultSpec::coherence(
        12,
        1,
        0xFA11,
        CoherenceState::Exclusive,
    ));
    let actual = [
        warm(sixteen.clone(), 16, 100),
        warm(rob64.clone(), 16, 100),
        warm(dir64_config(), DIR64_CPUS, 40),
        warm(faulted, CPUS, 40),
    ];
    assert!(actual[3].2 > 0, "the planted fault must be recorded");
    let fingerprints = actual.map(|(fp, ..)| fp);
    let expected = [
        0x0575_b3ae_f912_b8bb,
        0x63fd_2636_c295_fc90,
        0xe144_a9e5_345a_3511,
        0xaa26_6e4e_2b5c_0544,
    ];
    assert_eq!(fingerprints, expected, "fingerprints {fingerprints:#018x?}");

    for (i, config) in [sixteen, rob64].into_iter().enumerate() {
        let (_, interval, violations) = warm(config.with_invariant_checks(), 16, 100);
        assert_eq!(violations, 0, "machine {i}: monitored warmup");
        assert_eq!(interval, actual[i].1, "machine {i}: monitored warmup");
    }
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
    // The on arm is a strict executor: it monitors every run and fails on
    // any violation, but derives the same seeds from the caller's config.
    for strict in [false, true] {
        let mut executor = Executor::sequential().without_cache();
        if strict {
            executor = executor.with_invariant_checks();
        }
        let space = executor
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
        assert_eq!(digest, 0xbe34_42eb_b53d_bdc1, "strict: {strict}");
    }
}
