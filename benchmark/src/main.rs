//! `mtvar-benchmark`: the one seeded benchmark for mtvar.
//!
//! ```text
//! sh benchmark/run.sh                              # all workloads, untraced then traced
//! sh benchmark/run.sh --agree                      # two sets back to back, compared
//! sh benchmark/run.sh --workload W --trace 0|1     # one run, one JSON line last
//! ```
//!
//! An untraced run measures the end-to-end metrics in fresh child processes,
//! so that peak memory is the workload's own, set-up is paid and timed more
//! than once, and the thread-local decode arenas start as cold as a batch
//! user's. A traced run measures the per-layer metrics in one process. See
//! `README.md` beside this package for the tables.

mod layers;
mod metrics;
mod mix;
mod record;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use mtvar_core::golden::GoldenFile;

use metrics::{END_TO_END, PER_LAYER};
use record::{Agreement, Host, Record, WorkloadRecord};
use stats::{summarize, Summary};
use workloads::compare::Compare;
use workloads::kernel::Kernel;
use workloads::serve::Serve;
use workloads::timesample::Timesample;
use workloads::{Load, Outcome};

/// The package directory, relative to the repository root `run.sh` starts
/// the program in.
const DIR: &str = "benchmark";
/// Child processes per untraced run; each pays and times its own set-up.
const CHILDREN: u32 = 3;
/// Timed iterations a child makes however short its window is.
const MIN_ITERATIONS: usize = 2;
/// The seed `run.sh` uses when given none, and the hold-out seed to make
/// claims on; `golden.txt` has entries for both.
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 18.0;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    agree: bool,
    bless: bool,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        agree: false,
        bless: false,
        child: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(workloads::NAMES.into_iter().find(|n| *n == name).ok_or(
                    format!("unknown workload {name}; one of {:?}", workloads::NAMES),
                )?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--agree" => args.agree = true,
            "--bless" => args.bless = true,
            "--child" => args.child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("mtvar-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.child, args.workload) {
        (true, Some(workload)) => child(workload, &args, started),
        (true, None) => Err("--child needs --workload".into()),
        (false, Some(workload)) => single(workload, &args),
        (false, None) => suite(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("mtvar-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = Path::new(DIR).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A socket path private to this process, short enough for `sun_path`.
fn socket_path() -> Result<PathBuf, String> {
    Ok(out_dir()?.join(format!("s{}.sock", std::process::id())))
}

// ---------------------------------------------------------------------------
// The child: one process, one workload, untraced
// ---------------------------------------------------------------------------

enum AnyWorkload {
    Kernel(Kernel),
    Compare(Compare),
    Timesample(Timesample),
    Serve(Serve),
}

impl AnyWorkload {
    fn new(name: &str, seed: u64, load: Load) -> Result<Self, String> {
        Ok(match name {
            workloads::kernel::NAME => AnyWorkload::Kernel(Kernel::new(seed)),
            workloads::compare::NAME => AnyWorkload::Compare(Compare::new(seed)),
            workloads::timesample::NAME => AnyWorkload::Timesample(Timesample::new(seed)),
            _ => AnyWorkload::Serve(Serve::new(seed, load.clients, socket_path()?)),
        })
    }

    /// One untraced iteration and the seconds it measured.
    fn iterate(&self, threads: usize) -> (Outcome, f64) {
        let t0 = Instant::now();
        let outcome = match self {
            AnyWorkload::Kernel(w) => w.iterate(None).0,
            AnyWorkload::Compare(w) => w.iterate(threads, None),
            AnyWorkload::Timesample(w) => w.iterate(threads, None).0,
            AnyWorkload::Serve(w) => {
                // The closed loop alone: the daemon's start and drain are
                // not what a client waits for.
                let run = w.iterate(None);
                return (run.outcome, run.wall_s);
            }
        };
        (outcome, t0.elapsed().as_secs_f64())
    }
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM line in /proc/self/status".into())
}

/// Measures one workload in this process and prints the samples, one per
/// line, for the parent to pool.
fn child(workload: &str, args: &Args, started: Instant) -> Result<bool, String> {
    let load = Load::of_host();
    let fixture = AnyWorkload::new(workload, args.seed, load)?;
    // The warm-up iteration runs the sweeps on one thread: it fills caches
    // and arenas like any other, and its digest is the sequential reference
    // that every timed (parallel) iteration must reproduce.
    let (reference, _) = fixture.iterate(1);
    let mut attempted = reference.attempted;
    let mut failed = reference.failed;
    println!("setup_s {}", started.elapsed().as_secs_f64());

    let window = Duration::from_secs_f64(args.seconds);
    let begin = Instant::now();
    let mut iterations = 0;
    while iterations < MIN_ITERATIONS || begin.elapsed() < window {
        let (outcome, wall_s) = fixture.iterate(load.threads);
        attempted += outcome.attempted;
        failed += outcome.failed;
        if outcome.digest != reference.digest {
            failed += 1;
        }
        println!("iteration {wall_s} {}", outcome.work);
        iterations += 1;
    }
    println!("peak_rss_mb {}", peak_rss_mb()?);
    println!("digest {:#018x}", reference.digest);
    println!("attempted {attempted}");
    println!("failed {failed}");
    Ok(true)
}

// ---------------------------------------------------------------------------
// The parent: runs, checks, reports
// ---------------------------------------------------------------------------

/// What the children of one untraced run measured, pooled.
#[derive(Debug, Default)]
struct Pooled {
    setup_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    wall_s: Vec<f64>,
    work_per_s: Vec<f64>,
    digests: Vec<u64>,
    attempted: u64,
    failed: u64,
}

impl Pooled {
    fn absorb(&mut self, stdout: &str) -> Result<(), String> {
        for line in stdout.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let number = |i: usize| -> Result<f64, String> {
                fields
                    .get(i)
                    .and_then(|f| f.parse().ok())
                    .ok_or(format!("malformed child line: {line}"))
            };
            match fields.first().copied() {
                Some("setup_s") => self.setup_s.push(number(1)?),
                Some("peak_rss_mb") => self.peak_rss_mb.push(number(1)?),
                Some("iteration") => {
                    let (wall, work) = (number(1)?, number(2)?);
                    self.wall_s.push(wall);
                    self.work_per_s.push(work / wall);
                }
                Some("digest") => self.digests.push(
                    u64::from_str_radix(fields.get(1).unwrap_or(&"").trim_start_matches("0x"), 16)
                        .map_err(|_| format!("malformed child line: {line}"))?,
                ),
                Some("attempted") => self.attempted += number(1)? as u64,
                Some("failed") => self.failed += number(1)? as u64,
                _ => return Err(format!("unexpected child line: {line}")),
            }
        }
        Ok(())
    }

    fn samples(&self, metric: &str) -> &[f64] {
        match metric {
            "setup_s" => &self.setup_s,
            "wall_s" => &self.wall_s,
            "work_per_s" => &self.work_per_s,
            "peak_rss_mb" => &self.peak_rss_mb,
            other => unreachable!("no samples for {other}"),
        }
    }
}

/// Runs `workload` untraced: [`CHILDREN`] fresh processes one after another,
/// each measuring for its share of `seconds`.
fn run_untraced(workload: &'static str, args: &Args) -> Result<(Pooled, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut pooled = Pooled::default();
    for _ in 0..CHILDREN {
        let output = Command::new(&exe)
            .args(["--child", "--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &(args.seconds / f64::from(CHILDREN)).to_string(),
            ])
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("cannot start a child process: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "a {workload} child failed ({}):\n{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        pooled.absorb(&String::from_utf8_lossy(&output.stdout))?;
    }
    let digest = *pooled.digests.first().ok_or("a child printed no digest")?;
    if pooled.digests.iter().any(|d| *d != digest) {
        eprintln!(
            "{workload}: child processes disagree on the digest: {:x?}",
            pooled.digests
        );
        pooled.failed += 1;
    }
    Ok((pooled, digest))
}

fn golden_path() -> PathBuf {
    Path::new(DIR).join("golden.txt")
}

fn golden_name(workload: &str, seed: u64, load: Load) -> String {
    // Each client has its own job sequence, so the fold depends on how many
    // there are; the other workloads' results do not depend on the host.
    if workload == workloads::serve::NAME {
        format!("{workload}.c{}.seed{seed}", load.clients)
    } else {
        format!("{workload}.seed{seed}")
    }
}

fn read_golden() -> Result<GoldenFile, String> {
    let path = golden_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    GoldenFile::parse(&text).map_err(|e| e.to_string())
}

/// Holds `digests` against `golden.txt`, or with `--bless` writes them to
/// it. A seed without an entry cannot be checked this way; the digest's
/// agreement across iterations, thread counts and processes still is.
/// Returns the number of mismatches.
fn check_golden(digests: &[(&str, u64)], args: &Args, load: Load) -> Result<u64, String> {
    let mut golden = read_golden()?;
    let mut mismatches = 0;
    for &(workload, digest) in digests {
        let name = golden_name(workload, args.seed, load);
        if args.bless {
            golden.set(&name, digest);
        } else if let Some(expected) = golden.get(&name) {
            if expected != digest {
                eprintln!("{name}: digest {digest:#018x}, golden.txt has {expected:#018x}");
                mismatches += 1;
            }
        }
    }
    if args.bless {
        let mut text = String::from(
            "# Result digests of one iteration of each workload, per seed; `serve` also per\n\
             # client count. Rewritten only by `sh benchmark/run.sh --bless [--seed N]`.\n",
        );
        for (name, digest) in golden.iter() {
            text.push_str(&format!("{name} = {digest:#018x}\n"));
        }
        std::fs::write(golden_path(), text).map_err(|e| format!("cannot write golden.txt: {e}"))?;
    }
    Ok(mismatches)
}

/// The end-to-end results of one workload.
fn measure_end_to_end(workload: &'static str, args: &Args) -> Result<WorkloadRecord, String> {
    let (pooled, digest) = run_untraced(workload, args)?;
    let mismatches = check_golden(&[(workload, digest)], args, Load::of_host())?;
    Ok(WorkloadRecord {
        workload,
        end_to_end: END_TO_END
            .iter()
            .map(|m| (m.name, summarize(pooled.samples(m.name))))
            .collect(),
        per_layer: Vec::new(),
        attempted: pooled.attempted,
        failed: pooled.failed + mismatches,
    })
}

/// The per-layer results of the traced run naming `workload`; the spans go
/// to `out/trace-<workload>.json`.
fn measure_per_layer(workload: &'static str, args: &Args) -> Result<WorkloadRecord, String> {
    let load = Load::of_host();
    let report = layers::run(workload, args.seed, load, socket_path()?);
    let path = out_dir()?.join(format!("trace-{workload}.json"));
    std::fs::write(&path, trace::to_json(&report.spans))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let mismatches = check_golden(&report.digests, args, load)?;
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            let value = report.metrics.get(m.name).copied();
            value
                .map(|v| (m.name, v))
                .ok_or(format!("the traced run did not measure {}", m.name))
        })
        .collect::<Result<_, _>>()?;
    Ok(WorkloadRecord {
        workload,
        end_to_end: Vec::new(),
        per_layer,
        attempted: report.attempted,
        failed: report.failed + mismatches,
    })
}

/// One run for the driver: human-readable lines, then one JSON object.
fn single(workload: &'static str, args: &Args) -> Result<bool, String> {
    let record = if args.trace {
        measure_per_layer(workload, args)?
    } else {
        measure_end_to_end(workload, args)?
    };
    print_workload(&record);
    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .zip(&record.per_layer)
            .map(|(m, (name, value))| json_metric(name, *value, m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(&record.end_to_end)
            .map(|(m, (name, s))| json_metric(name, s.median, m.unit))
            .collect()
    };
    let correct = record.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        record.attempted,
        record.failed,
        metrics.join(", ")
    );
    Ok(correct)
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn print_workload(record: &WorkloadRecord) {
    let share = record.failed as f64 / record.attempted.max(1) as f64;
    println!(
        "== {}: {} attempted, {} failed, failed_share {share}",
        record.workload, record.attempted, record.failed
    );
    for (m, (name, s)) in END_TO_END.iter().zip(&record.end_to_end) {
        let Summary { median, q1, q3, n } = *s;
        println!(
            "  {name:<44} {median:>14.4} {:<8} [q1 {q1:.4}, q3 {q3:.4}, n {n}, spread {:.3}]",
            m.unit,
            s.spread()
        );
    }
    for (m, (name, value)) in PER_LAYER.iter().zip(&record.per_layer) {
        println!("  {name:<44} {value:>14.4} {}", m.unit);
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// One full set: every workload untraced, then traced.
fn one_set(args: &Args) -> Result<Record, String> {
    let host = Host {
        load: Load::of_host(),
        rustc: command_line("rustc", &["--version"]),
        commit: command_line("git", &["rev-parse", "HEAD"]),
        seed: args.seed,
    };
    let mut workloads = Vec::new();
    for workload in workloads::NAMES {
        let mut record = measure_end_to_end(workload, args)?;
        let traced = measure_per_layer(workload, args)?;
        record.per_layer = traced.per_layer;
        record.attempted += traced.attempted;
        record.failed += traced.failed;
        print_workload(&record);
        workloads.push(record);
    }
    Ok(Record { host, workloads })
}

fn write_record(record: &Record, name: &str) -> Result<(), String> {
    let path = out_dir()?.join(name);
    std::fs::write(&path, record.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Every workload, every metric; with `--agree`, twice and compared.
fn suite(args: &Args) -> Result<bool, String> {
    let load = Load::of_host();
    println!(
        "mtvar-benchmark: seed {}, nproc {}, T {}, C {}, {} s per untraced run in {CHILDREN} processes",
        args.seed, load.nproc, load.threads, load.clients, args.seconds
    );
    let first = one_set(args)?;
    write_record(&first, &format!("record-seed{}.json", args.seed))?;
    let mut ok = first.failed() == 0;
    if args.agree {
        let second = one_set(args)?;
        write_record(&second, &format!("record-seed{}-second.json", args.seed))?;
        ok &= second.failed() == 0;
        println!("== agreement of the two sets");
        for row in record::agree(&first, &second)? {
            println!(
                "  {:<11} {:<44} {:>14.4} {:>14.4}  {}",
                row.workload,
                row.metric,
                row.first,
                row.second,
                row.agreement.name()
            );
            ok &= row.agreement == Agreement::Agree;
        }
    }
    if !ok {
        println!("FAILED: see the failed operations and disagreements above");
    }
    Ok(ok)
}
