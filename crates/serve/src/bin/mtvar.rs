//! `mtvar` — the run-space service CLI.
//!
//! ```text
//! mtvar serve    --socket PATH [server flags]     start the daemon
//! mtvar submit   --socket PATH [sweep flags]      submit a sweep, stream results
//! mtvar status   --socket PATH --job ID           query a job
//! mtvar cancel   --socket PATH --job ID           cancel a job
//! mtvar stats    --socket PATH                    server statistics
//! mtvar shutdown --socket PATH                    graceful drain and exit
//! mtvar batch    [sweep flags]                    run the same sweep locally
//! ```
//!
//! `submit` and `batch` print an identical `digest: 0x...` line for the same
//! sweep — the served path is bit-identical to the batch path, and the
//! verify gate compares the two.

use std::path::PathBuf;
use std::process::ExitCode;

use mtvar_core::golden::run_digest;
use mtvar_core::runspace::Executor;
use mtvar_serve::client::{Client, SweepOutcome};
use mtvar_serve::protocol::{
    fold_digest, ConfigSpec, PlanSpec, Priority, Response, SweepSpec, WorkloadSpec,
};
use mtvar_serve::server::{ServeConfig, Server};

const USAGE: &str = "\
usage: mtvar <command> [flags]

commands:
  serve     start the daemon            --socket PATH [--dispatchers N]
                                        [--threads N] [--queue N]
                                        [--checkpoint-spill DIR]
                                        [--result-spill DIR] [--strict]
  submit    submit a sweep              --socket PATH [sweep flags] [--quiet]
  status    query a job                 --socket PATH --job ID
  cancel    cancel a job                --socket PATH --job ID
  stats     server statistics           --socket PATH
  shutdown  graceful drain and exit     --socket PATH
  batch     run a sweep locally         [sweep flags] [--threads N]

sweep flags:
  --cpus N           machine CPUs                  (default 4)
  --perturb NS       perturbation magnitude in ns  (default 4)
  --l2-assoc N       L2 associativity override
  --dram-ns N        DRAM latency override in ns
  --directory        directory coherence
  --runs N           perturbed runs                (default 8)
  --transactions N   measured transactions         (default 50)
  --warmup N         warmup transactions           (default 0)
  --seed N           base perturbation seed        (default 0)
  --no-shared-warmup per-run legacy warmup
  --priority P       high | normal | low           (default normal)
  --workload NAME    sharing | a profiled benchmark (default sharing)
  --wl-threads N     sharing: threads              (default 4)
  --wl-seed N        workload seed                 (default 42)
  --wl-ops N         sharing: ops per transaction  (default 40)
  --wl-footprint N   sharing: footprint blocks     (default 2048)
  --wl-lock-every N  sharing: lock every N ops     (default 10)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "serve" => cmd_serve(rest),
        "submit" => cmd_submit(rest),
        "status" => cmd_status(rest),
        "cancel" => cmd_cancel(rest),
        "stats" => cmd_stats(rest),
        "shutdown" => cmd_shutdown(rest),
        "batch" => cmd_batch(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other:?}; try `mtvar help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("mtvar: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal flag cursor: `--flag value` pairs and bare `--switch`es.
struct Flags<'a> {
    args: &'a [String],
    index: usize,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { args, index: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let arg = self.args.get(self.index)?;
        self.index += 1;
        Some(arg.as_str())
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        let value = self
            .args
            .get(self.index)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        self.index += 1;
        Ok(value.as_str())
    }

    fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
    }
}

struct SweepFlags {
    spec: SweepSpec,
    socket: Option<PathBuf>,
    job: Option<u64>,
    threads: usize,
    quiet: bool,
}

impl Default for SweepFlags {
    fn default() -> Self {
        SweepFlags {
            spec: SweepSpec {
                config: ConfigSpec {
                    cpus: 4,
                    perturbation_max_ns: 4,
                    l2_associativity: None,
                    dram_latency_ns: None,
                    directory: false,
                },
                workload: WorkloadSpec::Sharing {
                    threads: 4,
                    seed: 42,
                    ops_per_txn: 40,
                    footprint_blocks: 2048,
                    lock_every: 10,
                },
                plan: PlanSpec {
                    runs: 8,
                    transactions: 50,
                    warmup: 0,
                    base_seed: 0,
                    shared_warmup: true,
                },
                priority: Priority::Normal,
            },
            socket: None,
            job: None,
            threads: 2,
            quiet: false,
        }
    }
}

/// Parses the flags shared by `submit` and `batch` (plus `--job` for the
/// query commands). Workload parameters apply to whichever workload
/// `--workload` finally selects; a benchmark takes its CPU count from
/// `--cpus` and its seed from `--wl-seed`.
fn parse_sweep_flags(args: &[String]) -> Result<SweepFlags, String> {
    let mut out = SweepFlags::default();
    let mut workload_name = String::from("sharing");
    let mut wl = (4u64, 42u64, 40u64, 2048u64, 10u64);
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--socket" => out.socket = Some(PathBuf::from(flags.value(flag)?)),
            "--job" => out.job = Some(flags.parse(flag)?),
            "--threads" => out.threads = flags.parse(flag)?,
            "--quiet" => out.quiet = true,
            "--cpus" => out.spec.config.cpus = flags.parse(flag)?,
            "--perturb" => out.spec.config.perturbation_max_ns = flags.parse(flag)?,
            "--l2-assoc" => out.spec.config.l2_associativity = Some(flags.parse(flag)?),
            "--dram-ns" => out.spec.config.dram_latency_ns = Some(flags.parse(flag)?),
            "--directory" => out.spec.config.directory = true,
            "--runs" => out.spec.plan.runs = flags.parse(flag)?,
            "--transactions" => out.spec.plan.transactions = flags.parse(flag)?,
            "--warmup" => out.spec.plan.warmup = flags.parse(flag)?,
            "--seed" => out.spec.plan.base_seed = flags.parse(flag)?,
            "--no-shared-warmup" => out.spec.plan.shared_warmup = false,
            "--priority" => {
                out.spec.priority = match flags.value(flag)? {
                    "high" => Priority::High,
                    "normal" => Priority::Normal,
                    "low" => Priority::Low,
                    other => return Err(format!("--priority: unknown lane {other:?}")),
                };
            }
            "--workload" => workload_name = flags.value(flag)?.to_string(),
            "--wl-threads" => wl.0 = flags.parse(flag)?,
            "--wl-seed" => wl.1 = flags.parse(flag)?,
            "--wl-ops" => wl.2 = flags.parse(flag)?,
            "--wl-footprint" => wl.3 = flags.parse(flag)?,
            "--wl-lock-every" => wl.4 = flags.parse(flag)?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    out.spec.workload = if workload_name == "sharing" {
        WorkloadSpec::Sharing {
            threads: wl.0,
            seed: wl.1,
            ops_per_txn: wl.2,
            footprint_blocks: wl.3,
            lock_every: wl.4,
        }
    } else {
        WorkloadSpec::Benchmark {
            name: workload_name,
            cpus: out.spec.config.cpus,
            seed: wl.1,
        }
    };
    out.spec.validate()?;
    Ok(out)
}

fn need_socket(flags: &SweepFlags) -> Result<&PathBuf, String> {
    flags
        .socket
        .as_ref()
        .ok_or_else(|| "--socket is required".into())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut socket = None;
    let mut dispatchers = 2usize;
    let mut threads = 2usize;
    let mut queue = 64usize;
    let mut checkpoint_spill = None;
    let mut result_spill = None;
    let mut strict = false;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--socket" => socket = Some(PathBuf::from(flags.value(flag)?)),
            "--dispatchers" => dispatchers = flags.parse(flag)?,
            "--threads" => threads = flags.parse(flag)?,
            "--queue" => queue = flags.parse(flag)?,
            "--checkpoint-spill" => checkpoint_spill = Some(PathBuf::from(flags.value(flag)?)),
            "--result-spill" => result_spill = Some(PathBuf::from(flags.value(flag)?)),
            "--strict" => strict = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let socket = socket.ok_or("--socket is required")?;
    let config = ServeConfig {
        socket: socket.clone(),
        dispatchers,
        executor_threads: threads,
        queue_limit: queue,
        checkpoint_spill,
        result_spill,
        strict,
    };
    signal::install();
    let handle = Server::start(config).map_err(|e| e.to_string())?;
    eprintln!("[mtvar-serve] listening on {}", socket.display());
    // A signal becomes a `Shutdown` request, whose drain ends `join`. The
    // watcher stays detached: without a signal it never returns.
    std::thread::spawn(move || {
        while !signal::requested() {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        let _ = Client::new(socket).shutdown();
    });
    handle.join();
    Ok(())
}

/// SIGINT / SIGTERM for `mtvar serve`: the handler does the only
/// async-signal-safe thing — it stores to a static atomic — and
/// `cmd_serve`'s watcher thread turns the flag into a `Shutdown` request.
mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Installs the SIGINT/SIGTERM handlers that request a graceful drain.
    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `signal` with a function whose body only stores to a
        // static atomic is async-signal-safe; 2 and 15 are valid signal
        // numbers on every Unix this crate targets.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    /// Whether a handled signal has requested shutdown.
    pub fn requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    let flags = parse_sweep_flags(args)?;
    let socket = need_socket(&flags)?;
    let client = Client::new(socket);
    let quiet = flags.quiet;
    let outcome = client
        .submit(flags.spec, |event| {
            if quiet {
                return;
            }
            match event {
                Response::JobStarted { job } => eprintln!("job {job}: started"),
                Response::RunDone {
                    job,
                    run_index,
                    digest,
                    cached,
                    violations,
                } => {
                    let source = if *cached { "cache" } else { "simulated" };
                    eprintln!(
                        "job {job}: run {run_index} {source} digest 0x{digest:016x} \
                         violations {violations}"
                    );
                }
                _ => {}
            }
        })
        .map_err(|e| e.to_string())?;
    match outcome {
        SweepOutcome::Done(done) => {
            println!("job: {}", done.job);
            println!(
                "runs: {} ({} simulated, {} cached)",
                done.runs, done.completed, done.cached
            );
            println!("violations: {}", done.violations);
            println!("mean_cpt: {:.6}", done.mean_cpt);
            println!("digest: 0x{:016x}", done.digest);
            Ok(())
        }
        SweepOutcome::Cancelled { job } => Err(format!("job {job} was cancelled")),
    }
}

fn cmd_status(args: &[String]) -> Result<(), String> {
    let flags = parse_sweep_flags(args)?;
    let socket = need_socket(&flags)?;
    let job = flags.job.ok_or("--job is required")?;
    let report = Client::new(socket).status(job).map_err(|e| e.to_string())?;
    println!(
        "job {}: {:?}, {}/{} runs",
        report.job, report.state, report.runs_done, report.runs_total
    );
    if let Some(digest) = report.digest {
        println!("digest: 0x{digest:016x}");
    }
    Ok(())
}

fn cmd_cancel(args: &[String]) -> Result<(), String> {
    let flags = parse_sweep_flags(args)?;
    let socket = need_socket(&flags)?;
    let job = flags.job.ok_or("--job is required")?;
    let cancelled = Client::new(socket).cancel(job).map_err(|e| e.to_string())?;
    if cancelled {
        println!("job {job}: cancellation requested");
    } else {
        println!("job {job}: already terminal");
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = parse_sweep_flags(args)?;
    let socket = need_socket(&flags)?;
    let s = Client::new(socket).stats().map_err(|e| e.to_string())?;
    println!(
        "jobs: {} submitted, {} completed, {} failed, {} cancelled, {} rejected, {} queued",
        s.submitted, s.completed, s.failed, s.cancelled, s.rejected, s.queue_depth
    );
    println!(
        "runs: {} started, {} completed, {} cached, {} violations",
        s.runs_started, s.runs_completed, s.runs_cached, s.run_violations
    );
    println!(
        "coalescing: {} leaders, {} followers",
        s.coalesce_leaders, s.coalesce_followers
    );
    println!(
        "stores: {} checkpoints in memory, {} results on disk",
        s.checkpoints_in_memory, s.results_on_disk
    );
    println!("draining: {}", s.draining);
    for warning in &s.warnings {
        println!("warning: {warning}");
    }
    Ok(())
}

fn cmd_shutdown(args: &[String]) -> Result<(), String> {
    let flags = parse_sweep_flags(args)?;
    let socket = need_socket(&flags)?;
    Client::new(socket).shutdown().map_err(|e| e.to_string())?;
    println!("server draining");
    Ok(())
}

/// Runs the sweep locally through the batch executor and prints the same
/// summary lines as `submit` — the digest line must match byte-for-byte.
fn cmd_batch(args: &[String]) -> Result<(), String> {
    let flags = parse_sweep_flags(args)?;
    let space = flags
        .spec
        .run(&Executor::with_threads(flags.threads.max(1)))
        .map_err(|e| e.to_string())?;
    let digest = space
        .results()
        .iter()
        .fold(0u64, |acc, r| fold_digest(acc, run_digest(r)));
    let runtimes = space.runtimes();
    let mean_cpt = runtimes.iter().sum::<f64>() / runtimes.len() as f64;
    println!(
        "runs: {} ({} simulated, 0 cached)",
        space.len(),
        space.len()
    );
    println!("violations: {}", space.total_violations());
    println!("mean_cpt: {mean_cpt:.6}");
    println!("digest: 0x{digest:016x}");
    Ok(())
}
