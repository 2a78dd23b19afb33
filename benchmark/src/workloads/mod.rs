//! The four benchmark workloads. Each does a fixed amount of work per
//! iteration, generated from the benchmark seed, and folds every result it
//! produces into one digest so that a wrong result cannot go unnoticed.

pub mod compare;
pub mod kernel;
pub mod serve;
pub mod timesample;

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mtvar_core::golden::run_digest;
use mtvar_core::runspace::RunProgress;
use mtvar_sim::stats::RunResult;

use crate::trace::{SpanId, Tracer};

/// Workload names, in the order the suite runs them. Later issues refer to
/// these names.
pub const NAMES: [&str; 4] = ["kernel", "compare", "timesample", "serve"];

/// How much of the host a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Load {
    /// Logical CPUs the host reports.
    pub nproc: usize,
    /// Executor threads, `T`.
    pub threads: usize,
    /// Client connections of the `serve` closed loop, `C`.
    pub clients: usize,
}

impl Load {
    /// `T = C = clamp(available_parallelism, 1, 4)`.
    pub fn of_host() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let threads = nproc.clamp(1, 4);
        Load {
            nproc,
            threads,
            clients: threads,
        }
    }
}

/// What one iteration did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Work units completed: simulated events (`kernel`), perturbed runs
    /// (`compare`, `timesample`) or jobs (`serve`).
    pub work: u64,
    /// Simulated cycles of every measured interval.
    pub sim_cycles: u64,
    /// Fold of every result the iteration produced.
    pub digest: u64,
    /// Operations attempted and failed inside the iteration.
    pub attempted: u64,
    pub failed: u64,
}

/// Where a traced iteration records its spans.
#[derive(Debug, Clone, Copy)]
pub struct TraceCtx<'a> {
    pub tracer: &'a Arc<Tracer>,
    pub iteration: u32,
}

/// Mixes a run's index into its digest so that an unordered sum still
/// notices two runs swapping results.
fn mix(run_index: usize, digest: u64) -> u64 {
    (digest ^ (run_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

const NO_SPAN: u32 = u32::MAX;

/// The executor observer both sweep workloads attach: it sums every run's
/// digest and measured cycles (in any order, since callbacks come from
/// worker threads) and, when tracing, turns each run into a span under the
/// sweep that launched it.
#[derive(Debug)]
pub struct RunFold {
    digest_sum: AtomicU64,
    cycles: AtomicU64,
    runs: AtomicU64,
    spans: Option<RunSpans>,
}

#[derive(Debug)]
struct RunSpans {
    tracer: Arc<Tracer>,
    workload: &'static str,
    iteration: u32,
    parent: AtomicU32,
    first_start_ns: AtomicU64,
}

impl RunFold {
    pub fn new(workload: &'static str, trace: Option<TraceCtx<'_>>) -> Arc<Self> {
        Arc::new(RunFold {
            digest_sum: AtomicU64::new(0),
            cycles: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            spans: trace.map(|ctx| RunSpans {
                tracer: Arc::clone(ctx.tracer),
                workload,
                iteration: ctx.iteration,
                parent: AtomicU32::new(NO_SPAN),
                first_start_ns: AtomicU64::new(u64::MAX),
            }),
        })
    }

    /// Names the sweep span that the next runs belong to.
    pub fn enter_sweep(&self, sweep: SpanId) {
        if let Some(spans) = &self.spans {
            spans.parent.store(sweep, Ordering::SeqCst);
            spans.first_start_ns.store(u64::MAX, Ordering::SeqCst);
        }
    }

    /// When the current sweep's first run began, if any has finished.
    pub fn first_run_start_ns(&self) -> Option<u64> {
        let start = self.spans.as_ref()?.first_start_ns.load(Ordering::SeqCst);
        (start != u64::MAX).then_some(start)
    }

    pub fn digest_sum(&self) -> u64 {
        self.digest_sum.load(Ordering::SeqCst)
    }

    pub fn cycles(&self) -> u64 {
        self.cycles.load(Ordering::SeqCst)
    }

    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::SeqCst)
    }
}

impl RunProgress for RunFold {
    fn run_completed(&self, _run_index: usize, wall: Duration) {
        if let Some(spans) = &self.spans {
            let end = spans.tracer.now_ns();
            let start = end.saturating_sub(wall.as_nanos() as u64);
            let parent = spans.parent.load(Ordering::SeqCst);
            spans.first_start_ns.fetch_min(start, Ordering::SeqCst);
            spans.tracer.record(
                "runspace.run",
                spans.workload,
                spans.iteration,
                (parent != NO_SPAN).then_some(parent),
                start,
                end,
            );
        }
    }

    fn run_result(&self, run_index: usize, result: &RunResult) {
        self.digest_sum
            .fetch_add(mix(run_index, run_digest(result)), Ordering::SeqCst);
        self.cycles.fetch_add(result.elapsed(), Ordering::SeqCst);
        self.runs.fetch_add(1, Ordering::SeqCst);
    }
}

/// Folds a sequence of `f64` results bit for bit.
pub fn fold_f64s(acc: u64, values: &[f64]) -> u64 {
    values.iter().fold(acc, |acc, v| {
        mtvar_serve::protocol::fold_digest(acc, v.to_bits())
    })
}
