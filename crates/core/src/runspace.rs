//! Executing the *space of runs* for one configuration (§3.3), sequentially
//! or in parallel.
//!
//! The paper's mechanism: start every run from the same initial conditions
//! (fresh machine or snapshot), give each a unique perturbation seed, and
//! collect the resulting cycles-per-transaction sample. "We use the mean of
//! these runs as our performance metric."
//!
//! # Parallel execution
//!
//! Every run in a space is independent — the ensemble is embarrassingly
//! parallel — so an [`Executor`] of `T >= 2` threads fans runs out across
//! `T` persistent worker threads (std only, no external crates) that claim
//! run indices from one shared atomic counter. The workers start with the
//! first sweep that needs them, park between sweeps, are shared by the
//! executor's clones, and are joined when the last clone drops. A
//! [`timesample`](crate::timesample) checkpoint sweep adds one more thread,
//! which warms the next starting point while the workers run the forks of
//! the current one. An [`Experiment`](crate::experiment::Experiment) hands
//! all its arms to the workers as one batch: every arm's shared warmup and
//! template decode at once, one job per arm, then every arm's runs in one
//! fan-out. A lone sweep is the same batch with one arm, whose warmup and
//! template stay on the calling thread. Which thread drops a template does
//! not matter: the simulator's decode arena is one pool for the process, so
//! the arrays a template retires on the caller serve the next decode or
//! fork on any worker. An executor of one thread is strictly
//! single-threaded: every warmup and every run happens on the calling
//! thread. Three properties make the parallel path safe to adopt
//! everywhere:
//!
//! 1. **Deterministic seeding.** Each run's perturbation seed is derived by
//!    [`derive_run_seed`], a SplitMix64-style mix of `(config_id, base_seed,
//!    run_index)`. Seeds are a pure function of the plan, never of thread
//!    count or scheduling order, and results are written into their run-index
//!    slot — so a space is **bit-identical** for 1, 2 or N threads, and
//!    identical to the sequential path.
//! 2. **Result caching.** Completed runs are memoized under
//!    `(config_fingerprint, workload_fingerprint, seed, warmup,
//!    transactions)`. Overlapping experiments — WCR sweeps, sample-size
//!    walks, ANOVA time-sampling — re-use runs instead of re-simulating
//!    them.
//! 3. **Observability.** A [`RunProgress`] observer receives
//!    started/completed/cached callbacks (with per-run wall time), which the
//!    examples and benches use for live reporting.
//!
//! ```no_run
//! # fn main() -> Result<(), mtvar_core::CoreError> {
//! use mtvar_core::runspace::{Executor, RunPlan};
//! use mtvar_sim::config::MachineConfig;
//! use mtvar_sim::workload::SharingWorkload;
//!
//! let config = MachineConfig::hpca2003().with_perturbation(4, 0);
//! let plan = RunPlan::new(200).with_runs(30);
//! let executor = Executor::new(); // one worker per core
//! let space = executor.run_space(&config, || SharingWorkload::new(16, 7, 50, 4096, 10), &plan)?;
//! assert_eq!(space.len(), 30);
//! # Ok(())
//! # }
//! ```

use std::collections::hash_map::{Entry, HashMap};
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mtvar_sim::checkpoint::{Checkpoint, Snap};
use mtvar_sim::config::MachineConfig;
use mtvar_sim::hash::{finalize64, Fnv1a, GOLDEN_GAMMA};
use mtvar_sim::ids::Nanos;
use mtvar_sim::machine::Machine;
use mtvar_sim::stats::RunResult;
use mtvar_sim::workload::Workload;
use mtvar_stats::describe::Summary;

pub use mtvar_sim::check::{InvariantKind, Violation};

use crate::checkpoint::{CheckpointKey, CheckpointStore};
use crate::pool::Pool;
use crate::resultcache::{ResultStore, RunKey, RunRecord};
use crate::{CoreError, Result};

/// Design of a multi-run experiment on one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPlan {
    /// Number of perturbed runs (the paper's experiments use 20).
    pub runs: usize,
    /// Transactions measured per run.
    pub transactions: u64,
    /// Transactions executed before measurement starts (cache and lock-state
    /// warmup; the paper warms its database for 10,000 transactions).
    pub warmup_transactions: u64,
    /// Base perturbation seed; run `i` uses
    /// [`derive_run_seed`]`(source_id, base_seed, i)`.
    pub base_seed: u64,
    /// Whether a sweep with warmup simulates it **once**, snapshots, and
    /// forks every perturbed run from the restored snapshot (default), or
    /// re-simulates warmup per run with the perturbation active from cycle
    /// zero (the legacy path, [`RunPlan::with_shared_warmup`]`(false)`).
    ///
    /// Shared warmup is the paper's §3.2.2 protocol: all runs start from one
    /// warmed checkpoint and the per-run perturbation seed takes effect at
    /// measurement start. It also amortizes warmup — a sweep pays it once
    /// instead of `runs` times. The two paths explore different (equally
    /// valid) run spaces, so their results differ; seeds and cache keys are
    /// domain-separated and the legacy path's outputs are unchanged.
    pub shared_warmup: bool,
}

impl RunPlan {
    /// A plan with the paper's default of 20 runs.
    pub fn new(transactions: u64) -> Self {
        RunPlan {
            runs: 20,
            transactions,
            warmup_transactions: 0,
            base_seed: 0,
            shared_warmup: true,
        }
    }

    /// Sets the number of runs.
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the warmup length.
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup_transactions = warmup;
        self
    }

    /// Sets the base perturbation seed.
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Selects between shared-warmup (true, the default) and legacy
    /// per-run-warmup execution — see [`RunPlan::shared_warmup`].
    pub fn with_shared_warmup(mut self, shared: bool) -> Self {
        self.shared_warmup = shared;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.runs == 0 || self.transactions == 0 {
            return Err(CoreError::InvalidExperiment {
                what: "a run plan needs runs >= 1 and transactions >= 1".into(),
            });
        }
        if self
            .warmup_transactions
            .checked_add(self.transactions)
            .is_none()
        {
            return Err(CoreError::InvalidExperiment {
                what: "warmup_transactions + transactions overflows u64".into(),
            });
        }
        Ok(())
    }
}

/// Invariant violations recorded by one run of a space, as reported through
/// the executor's violations channel.
#[derive(Debug, Clone, PartialEq)]
pub struct RunViolations {
    /// Run index (seed order) within the space.
    pub run: usize,
    /// Uncapped violation count from the run's monitor.
    pub total: u64,
    /// The stored violation reports (the monitor caps these, so
    /// `violations.len()` can be smaller than `total`).
    pub violations: Vec<Violation>,
}

/// The collected space of runs for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpace {
    results: Vec<RunResult>,
    /// Violation records of the runs that recorded any, ascending by run
    /// index; empty when monitoring was off or every run was clean.
    violations: Vec<RunViolations>,
}

impl RunSpace {
    /// Wraps already-collected results.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidExperiment`] if `results` is empty.
    pub fn from_results(results: Vec<RunResult>) -> Result<Self> {
        if results.is_empty() {
            return Err(CoreError::InvalidExperiment {
                what: "a run space needs at least one result".into(),
            });
        }
        Ok(RunSpace {
            results,
            violations: Vec::new(),
        })
    }

    /// The individual run results.
    pub fn results(&self) -> &[RunResult] {
        &self.results
    }

    /// Cycles-per-transaction of every run, in seed order.
    pub fn runtimes(&self) -> Vec<f64> {
        self.results
            .iter()
            .map(RunResult::cycles_per_transaction)
            .collect()
    }

    /// Summary statistics (mean/sd/min/max) of the runtimes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stats`] if a runtime is non-finite.
    pub fn summary(&self) -> Result<Summary> {
        Ok(Summary::from_slice(&self.runtimes())?)
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the space holds no runs (never true for a constructed space).
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Per-run invariant-violation records, ascending by run index. Empty
    /// when monitoring was off — use an executor in strict mode, or a
    /// monitored configuration, to make "empty" mean "verified clean".
    pub fn violations(&self) -> &[RunViolations] {
        &self.violations
    }

    /// Whether no run recorded an invariant violation. `true` is only as
    /// strong as the monitoring that produced this space: an unmonitored
    /// sweep is vacuously clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total invariant violations across all runs (uncapped counts).
    pub fn total_violations(&self) -> u64 {
        self.violations.iter().map(|v| v.total).sum()
    }
}

// ---------------------------------------------------------------------------
// Deterministic seed derivation and fingerprinting
// ---------------------------------------------------------------------------

/// Derives the perturbation seed of run `run_index` by SplitMix64-style
/// mixing of `(source_id, base_seed, run_index)`.
///
/// `source_id` is a [`config_fingerprint`] (fresh-machine spaces) or a
/// [`Checkpoint::fingerprint`] (snapshot spaces). The derivation is a pure
/// function of its arguments: it does not depend on thread count, scheduling
/// order, or any global state, which is what makes parallel run spaces
/// bit-identical to sequential ones. Mixing the source identity in also
/// decorrelates the seed streams of different experiment arms (or different
/// snapshots) that share a `base_seed`.
pub fn derive_run_seed(source_id: u64, base_seed: u64, run_index: u64) -> u64 {
    let a = finalize64(source_id ^ 0x6A09_E667_F3BC_C909);
    let b = finalize64(base_seed ^ 0xBB67_AE85_84CA_A73B);
    finalize64(a ^ b.rotate_left(32) ^ run_index.wrapping_mul(GOLDEN_GAMMA))
}

/// Domain separator XORed into a configuration fingerprint to form the
/// `source_id` of a shared-warmup sweep. Shared-warmup runs explore a
/// different space than legacy perturb-from-zero runs of the same plan
/// (perturbation starts at measurement, not cycle zero), so their seed
/// streams and cache keys must not collide — and deriving from the *config*
/// rather than the snapshot keeps seeds independent of snapshot payload
/// details (such as whether a strict executor's warmup carried a monitor).
const SHARED_WARMUP_DOMAIN: u64 = 0x5EED_C4EC_4901_4B75;

/// A stable-within-process fingerprint of a machine configuration, used both
/// as the `source_id` for [`derive_run_seed`] and as part of the result-cache
/// key.
///
/// Computed over the configuration's complete `Debug` representation, so any
/// field difference (cache geometry, processor model, noise, perturbation
/// magnitude, ...) yields a different fingerprint.
pub fn config_fingerprint(config: &MachineConfig) -> u64 {
    let mut w = Fnv1a::new();
    let _ = write!(w, "{config:?}");
    w.finish()
}

/// Fingerprints a workload *factory* by probing one fresh instance: its
/// name, thread count, and a prefix of every thread's op stream. This
/// distinguishes workloads that share a name but differ in internal seed or
/// sizing, which must not collide in the result cache. Probing consumes
/// ops, so pass a throwaway instance, never one that will be simulated.
pub fn workload_fingerprint<W: Workload>(probe: &mut W) -> u64 {
    let mut w = Fnv1a::new();
    let _ = write!(w, "{}/{}", probe.name(), probe.thread_count());
    let threads = probe.thread_count();
    for t in 0..threads.min(8) {
        for _ in 0..8 {
            let op = probe.next_op(mtvar_sim::ids::ThreadId(t as u32));
            let _ = write!(w, "{op:?}");
        }
    }
    w.finish()
}

// ---------------------------------------------------------------------------
// Progress observation
// ---------------------------------------------------------------------------

/// Observer of run-space execution, for live progress reporting.
///
/// All methods have empty defaults; implementations must be cheap and
/// thread-safe — callbacks arrive concurrently from worker threads.
///
/// A `run_index` is always the run's index within its own space. The arms
/// of an [`Experiment`](crate::experiment::Experiment) run as one batch, so
/// their callbacks interleave, and several arms report the same indices:
/// an observer that must tell the arms apart needs one executor per arm.
pub trait RunProgress: Send + Sync {
    /// A run left the queue and began simulating.
    fn run_started(&self, run_index: usize) {
        let _ = run_index;
    }

    /// A run finished simulating after `wall` of wall-clock time.
    fn run_completed(&self, run_index: usize, wall: Duration) {
        let _ = (run_index, wall);
    }

    /// A run's measurement is available — called once per run per sweep,
    /// for simulated completions *and* cache hits alike, with the result
    /// that will occupy the run's slot in the returned [`RunSpace`].
    /// Observers that stream per-run data (digests, summaries) hook this;
    /// counters usually don't need it.
    fn run_result(&self, run_index: usize, result: &RunResult) {
        let _ = (run_index, result);
    }

    /// A run was satisfied from the result cache without simulating.
    fn run_cached(&self, run_index: usize) {
        let _ = run_index;
    }

    /// Invariant violations were recorded for a run. Called at most once per
    /// run per sweep, only with a non-empty slice (the monitor caps stored
    /// reports, so the slice length is a lower bound on the run's true
    /// count). Cache hits replay the violations recorded when the run was
    /// first simulated, so a polluted run is reported every time it is
    /// used — never only the first time.
    fn run_violations(&self, run_index: usize, violations: &[Violation]) {
        let _ = (run_index, violations);
    }
}

/// A [`RunProgress`] implementation that counts events and accumulates
/// simulated wall time — the observer used by the examples and benches.
#[derive(Debug, Default)]
pub struct ProgressCounters {
    started: AtomicUsize,
    completed: AtomicUsize,
    cached: AtomicUsize,
    wall_ns: AtomicU64,
    violations: AtomicU64,
    violating_runs: AtomicUsize,
}

impl ProgressCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs that began simulating.
    pub fn started(&self) -> usize {
        self.started.load(Ordering::Relaxed)
    }

    /// Runs that finished simulating.
    pub fn completed(&self) -> usize {
        self.completed.load(Ordering::Relaxed)
    }

    /// Runs satisfied from the cache.
    pub fn cached(&self) -> usize {
        self.cached.load(Ordering::Relaxed)
    }

    /// Total wall time spent simulating, summed over workers (exceeds
    /// elapsed time when runs execute concurrently).
    pub fn total_wall(&self) -> Duration {
        Duration::from_nanos(self.wall_ns.load(Ordering::Relaxed))
    }

    /// Invariant-violation reports observed, summed over runs (counts the
    /// stored reports delivered to [`RunProgress::run_violations`], so this
    /// is a lower bound when a run's monitor capped its storage).
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// Runs for which at least one violation was reported.
    pub fn violating_runs(&self) -> usize {
        self.violating_runs.load(Ordering::Relaxed)
    }
}

impl RunProgress for ProgressCounters {
    fn run_started(&self, _run_index: usize) {
        self.started.fetch_add(1, Ordering::Relaxed);
    }

    fn run_completed(&self, _run_index: usize, wall: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.wall_ns
            .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
    }

    fn run_cached(&self, _run_index: usize) {
        self.cached.fetch_add(1, Ordering::Relaxed);
    }

    fn run_violations(&self, _run_index: usize, violations: &[Violation]) {
        self.violations
            .fetch_add(violations.len() as u64, Ordering::Relaxed);
        self.violating_runs.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

// [`RunKey`] and [`RunRecord`] — the cache's key and cacheable unit — live
// in [`crate::resultcache`] alongside their disk encoding.

/// In-memory run-result memo with an optional write-through [`ResultStore`]
/// disk layer: memory misses fall back to disk, inserts go to both, so a
/// restarted process keeps its warm results.
#[derive(Debug, Default)]
struct ResultCache {
    map: Mutex<HashMap<RunKey, RunRecord>>,
    store: Option<Arc<ResultStore>>,
}

impl ResultCache {
    fn with_store(store: Arc<ResultStore>) -> Self {
        ResultCache {
            map: Mutex::new(HashMap::new()),
            store: Some(store),
        }
    }

    fn get(&self, key: &RunKey) -> Option<RunRecord> {
        if let Some(hit) = self.map.lock().expect("cache poisoned").get(key).cloned() {
            return Some(hit);
        }
        let record = self.store.as_ref()?.get(key)?;
        // Promote the disk hit so repeat lookups stay in memory.
        self.map
            .lock()
            .expect("cache poisoned")
            .insert(*key, record.clone());
        Some(record)
    }

    fn insert(&self, key: RunKey, record: RunRecord) {
        if let Some(store) = &self.store {
            store.insert(&key, &record);
        }
        self.map.lock().expect("cache poisoned").insert(key, record);
    }

    fn len(&self) -> usize {
        self.map.lock().expect("cache poisoned").len()
    }

    fn clear(&self) {
        self.map.lock().expect("cache poisoned").clear();
    }
}

// ---------------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------------

/// Deterministic parallel run-space executor.
///
/// Fans the perturbed runs of a [`RunPlan`] out across OS threads, memoizes
/// completed runs, and reports progress — see the [module docs](self) for
/// the determinism contract. Construction is cheap: the worker threads
/// start with the first sweep that fans out, and then live — like the cache
/// — for the executor's lifetime, shared by clones of the executor and
/// joined when the last clone drops. A run that panics takes no worker with
/// it: the panic resurfaces, payload intact, from the call that launched
/// the sweep, and the executor stays usable.
#[derive(Clone)]
pub struct Executor {
    pool: Arc<Pool>,
    cache: Option<Arc<ResultCache>>,
    checkpoint_store: Option<Arc<CheckpointStore>>,
    progress: Option<Arc<dyn RunProgress>>,
    strict_invariants: bool,
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads())
            .field("cached_runs", &self.cache_len())
            .field("has_checkpoint_store", &self.checkpoint_store.is_some())
            .field("has_progress", &self.progress.is_some())
            .field("strict_invariants", &self.strict_invariants)
            .finish()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new()
    }
}

impl Executor {
    /// An executor with one worker per available core and caching enabled.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        Executor::with_threads(threads)
    }

    /// A single-threaded executor (the reference sequential path) with
    /// caching enabled.
    pub fn sequential() -> Self {
        Executor::with_threads(1)
    }

    /// An executor with exactly `threads` workers (clamped to >= 1) and
    /// caching enabled.
    pub fn with_threads(threads: usize) -> Self {
        Executor {
            pool: Arc::new(Pool::new(threads)),
            cache: Some(Arc::new(ResultCache::default())),
            checkpoint_store: None,
            progress: None,
            strict_invariants: false,
        }
    }

    /// Number of worker threads this executor uses.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Attaches a progress observer (shared with clones of the executor).
    #[must_use]
    pub fn with_progress(mut self, progress: Arc<dyn RunProgress>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Disables the result cache: every run simulates, every time.
    #[must_use]
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Enables disk spill for the result cache under `dir`: every completed
    /// run is written through to a [`ResultStore`] (crash-safe temp-file +
    /// `fsync` + rename), and in-memory misses fall back to disk — so a
    /// fresh executor pointed at the same directory replays earlier runs,
    /// violations included, instead of re-simulating them. Replaces the
    /// current cache (memoized entries from before this call are dropped).
    #[must_use]
    pub fn with_result_spill(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache = Some(Arc::new(ResultCache::with_store(Arc::new(
            ResultStore::new(dir),
        ))));
        self
    }

    /// The result cache's disk store, if spill is enabled — exposed so
    /// callers (the serve daemon's stats) can drain its warnings and count
    /// spilled entries.
    pub fn result_store(&self) -> Option<&Arc<ResultStore>> {
        self.cache.as_ref().and_then(|c| c.store.as_ref())
    }

    /// Attaches a [`CheckpointStore`] (shared with clones of the executor).
    /// Shared-warmup sweeps then memoize their warmed snapshots — across
    /// sweeps, across thread counts, and (with disk spill) across processes —
    /// and extend the longest stored prefix instead of re-warming from cycle
    /// zero. Without a store, each shared-warmup sweep still warms only once
    /// but the snapshot is dropped when the sweep ends.
    #[must_use]
    pub fn with_checkpoint_store(mut self, store: Arc<CheckpointStore>) -> Self {
        self.checkpoint_store = Some(store);
        self
    }

    /// The attached checkpoint store, if any.
    pub fn checkpoint_store(&self) -> Option<&Arc<CheckpointStore>> {
        self.checkpoint_store.as_ref()
    }

    /// Turns on strict invariant mode: every run is simulated with the
    /// invariant monitor enabled (whatever the configuration says), and any
    /// violation anywhere in a sweep fails the whole sweep with
    /// [`CoreError::InvariantViolation`] instead of returning a polluted
    /// [`RunSpace`]. Cached results from *unmonitored* runs are treated as
    /// misses and re-simulated; monitored cache entries are trusted,
    /// including their recorded violations.
    ///
    /// The monitor is enabled on the per-run clone only, after seed
    /// derivation, so strict sweeps of a clean configuration are
    /// bit-identical to non-strict ones (the monitor is read-only and the
    /// configuration fingerprint — hence every derived seed — is unchanged).
    #[must_use]
    pub fn with_invariant_checks(mut self) -> Self {
        self.strict_invariants = true;
        self
    }

    /// Whether strict invariant mode is on.
    pub fn strict_invariants(&self) -> bool {
        self.strict_invariants
    }

    /// Number of run results currently memoized.
    pub fn cache_len(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.len())
    }

    /// Drops all memoized run results.
    pub fn clear_cache(&self) {
        if let Some(c) = &self.cache {
            c.clear();
        }
    }

    /// Runs `plan` for one configuration. With the default
    /// [`RunPlan::shared_warmup`], warmup is simulated once (unperturbed),
    /// snapshotted, and every perturbed run forks from the restored
    /// snapshot, its perturbation stream starting at measurement start;
    /// with [`RunPlan::with_shared_warmup`]`(false)`, every run builds a
    /// fresh machine and perturbs from cycle zero (the legacy path, whose
    /// seeds and digests are unchanged). Parallel, cached, and bit-identical
    /// to [`run_space`] for any thread count.
    ///
    /// # Errors
    ///
    /// Propagates configuration and deadlock errors from the simulator; in
    /// strict mode, also [`CoreError::InvariantViolation`]. When several
    /// runs fail, the error of the lowest run index is returned
    /// (deterministically, regardless of scheduling); a warmup error comes
    /// before every run error.
    pub fn run_space<W, F>(
        &self,
        config: &MachineConfig,
        make_workload: F,
        plan: &RunPlan,
    ) -> Result<RunSpace>
    where
        W: Workload + Snap + Clone + Send + Sync,
        F: Fn() -> W + Sync,
    {
        let mut spaces = self.run_spaces(&[config], make_workload, plan)?;
        Ok(spaces.pop().expect("one space per configuration"))
    }

    /// Runs `plan` for every configuration of `configs` as one batch: the
    /// body of [`Executor::run_space`] (one configuration) and of
    /// [`Experiment::run_with`](crate::experiment::Experiment::run_with)
    /// (one per arm). Every configuration's space is the one `run_space`
    /// would return for it alone; only the scheduling differs — all shared
    /// warmups at once, then all runs in one fan-out.
    ///
    /// # Errors
    ///
    /// The first error of the sequential reading: configuration by
    /// configuration, its warmup before its runs, the lowest run index
    /// first.
    pub(crate) fn run_spaces<W, F>(
        &self,
        configs: &[&MachineConfig],
        make_workload: F,
        plan: &RunPlan,
    ) -> Result<Vec<RunSpace>>
    where
        W: Workload + Snap + Clone + Send + Sync,
        F: Fn() -> W + Sync,
    {
        plan.validate()?;
        let workload_id = workload_fingerprint(&mut make_workload());
        let make: &(dyn Fn() -> W + Sync) = &make_workload;
        let shared = plan.shared_warmup && plan.warmup_transactions > 0;
        let starts: Vec<Start<'_, W>> = configs
            .iter()
            .map(|&config| {
                if shared {
                    Start::Warmed(config, make)
                } else {
                    Start::Cold(config, make)
                }
            })
            .collect();
        self.launch_arms(plan, workload_id, &starts)
    }

    /// Produces the warmed snapshot for `(config, workload, base_seed,
    /// warmup)` — the one way to warm a machine. Warmup always runs
    /// **unperturbed** — the §3.3 timing perturbation belongs to the
    /// measured region, and neutralizing it here lets one snapshot serve
    /// every perturbation magnitude and seed — and the store key uses that
    /// neutralized configuration's fingerprint.
    ///
    /// With a [`CheckpointStore`] attached the warmup is single-flight
    /// ([`CheckpointStore::get_or_warm`]): a stored snapshot is returned as
    /// is, and of any callers asking for the same key at once — on this
    /// executor or any other sharing the store — one simulates while the
    /// rest wait for its snapshot.
    ///
    /// The caller that simulates extends the deepest stored shorter-warmup
    /// snapshot of the same `(config, workload, base_seed)` instead of
    /// warming from cycle zero; extension is bit-identical to a straight
    /// warmup because warmup-region state carries no measurement counters.
    /// The caller may pass its own `(warmed_transactions, checkpoint)`
    /// candidate in `from` (how [`timesample`](crate::timesample) chains
    /// sweep positions without a store); whichever prefix is deepest wins.
    /// The result is inserted back into the store, and returned behind an
    /// `Arc` so a store hit shares the cached allocation instead of copying
    /// the payload.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from warmup and
    /// [`CoreError::Sim`]-wrapped decode failures from a `from` candidate
    /// (store-resident snapshots are validated — and corrupt entries
    /// evicted — by the store itself).
    pub fn warm_checkpoint<W, F>(
        &self,
        config: &MachineConfig,
        make_workload: &F,
        base_seed: u64,
        warmup: u64,
        from: Option<(u64, &Checkpoint)>,
    ) -> Result<Arc<Checkpoint>>
    where
        W: Workload + Snap,
        F: Fn() -> W,
    {
        WarmChain::new(self, config, make_workload, base_seed).advance(warmup, from)
    }

    /// Runs `plan` with every run forked from `snapshot`: restore, switch
    /// the perturbation on (`perturbation_max_ns`, derived seed), then
    /// measure — the paper's space-variability protocol (§2.1, §3.3): runs
    /// from identical initial conditions that differ only in perturbation
    /// seed. This is the fork step of the shared-warmup protocol, exposed
    /// for callers that manage snapshots themselves (the
    /// [`timesample`](crate::timesample) sweeps, or `machine.snapshot()` of
    /// a machine the caller warmed by hand); [`Executor::run_space`]
    /// composes it with [`Executor::warm_checkpoint`] automatically.
    ///
    /// Seeds derive from the snapshot's content fingerprint, so different
    /// snapshots get decorrelated seed streams and distinct cache entries,
    /// while a machine, its restored copy and its fork — one architectural
    /// state, byte-identical snapshots — launch one and the same run space.
    /// Any `plan.warmup_transactions` run unperturbed *after* the restore
    /// and before measurement (extra per-run settling on top of whatever
    /// warmup the snapshot already embodies).
    ///
    /// # Errors
    ///
    /// Propagates decode and simulator errors (lowest failing run index
    /// wins); in strict mode, also [`CoreError::InvariantViolation`].
    pub fn run_space_from_snapshot<W>(
        &self,
        snapshot: &Checkpoint,
        perturbation_max_ns: Nanos,
        plan: &RunPlan,
    ) -> Result<RunSpace>
    where
        W: Workload + Snap + Clone + Send + Sync,
    {
        self.run_space_from_template::<W>(snapshot, None, perturbation_max_ns, plan)
    }

    /// [`Executor::run_space_from_snapshot`] with the template supplied:
    /// when the caller holds a machine in the very state `snapshot` was
    /// taken of (a [`WarmChain`]'s live machine, shared and forked), every
    /// run forks from it and nothing is decoded. Runs, seeds and results are
    /// those of the decoded template — a machine, its restore and its fork
    /// launch one run space.
    pub(crate) fn run_space_from_template<W>(
        &self,
        snapshot: &Checkpoint,
        template: Option<&Machine<W>>,
        perturbation_max_ns: Nanos,
        plan: &RunPlan,
    ) -> Result<RunSpace>
    where
        W: Workload + Snap + Clone + Send + Sync,
    {
        plan.validate()?;
        let start = Start::Snapshot(snapshot, perturbation_max_ns, template);
        let mut spaces = self.launch_arms(plan, 0, &[start])?;
        Ok(spaces.pop().expect("one space per snapshot"))
    }

    /// The launch body of every sweep. The runs' keys come first: they
    /// depend on the arms' configurations and snapshots, not on any
    /// template, so the result cache is consulted before anything is warmed
    /// or decoded. Then two pool batches: the template of each arm that
    /// still has a run to simulate is warmed (or fetched from the store)
    /// and decoded, one job per arm, so the arms' warmups run side by side
    /// and equal warmups meet in the store's single-flight; and every arm's
    /// runs fan out together, so the tail of one arm never idles a worker
    /// the next could use. An arm whose runs are all cache hits is neither
    /// warmed nor decoded. The templates drop on the calling thread when
    /// the batch is done; their arrays retire into the process's decode
    /// arena, where the next decode or fork takes them on whichever thread
    /// it runs. A batch of one job, and every batch at T = 1, runs on the
    /// calling thread. An arm whose caller supplies its template is not
    /// decoded: the caller keeps it. Decoding is `Machine::restore`, called
    /// only here and in [`WarmChain`]'s restores; a decoded machine holds
    /// its cache arrays in shareable form, so each fork is a pointer copy
    /// per array that copies only the chunks its run writes.
    ///
    /// Returns one space per arm, or the first error of the sequential
    /// reading: arm by arm, its warmup before its runs.
    #[expect(clippy::disallowed_methods, reason = "templates are decoded here")]
    fn launch_arms<W>(
        &self,
        plan: &RunPlan,
        workload_id: u64,
        starts: &[Start<'_, W>],
    ) -> Result<Vec<RunSpace>>
    where
        W: Workload + Snap + Clone + Send + Sync,
    {
        let source_ids: Vec<u64> = starts.iter().map(Start::source_id).collect();
        let batch = self.look_up(plan, workload_id, &source_ids);
        let mut simulates = vec![false; starts.len()];
        for &slot in &batch.misses {
            simulates[slot / plan.runs] = true;
        }
        let simulating: Vec<usize> = (0..starts.len()).filter(|&arm| simulates[arm]).collect();
        let decoded = self.pool.run(&simulating, |arm| {
            let warmed;
            let snapshot = match starts[arm] {
                Start::Cold(..) => return Ok(None),
                Start::Warmed(config, make_workload) => {
                    warmed = self.warm_checkpoint(
                        config,
                        &make_workload,
                        plan.base_seed,
                        plan.warmup_transactions,
                        None,
                    )?;
                    &*warmed
                }
                Start::Snapshot(_, _, Some(_)) => return Ok(None),
                Start::Snapshot(snapshot, _, None) => snapshot,
            };
            Ok(Some(Machine::restore(snapshot)?))
        });
        // Read in sequence, the first failed warmup ends the batch: the
        // arms before it launch, the ones after it never would.
        let mut templates: Vec<Option<Machine<W>>> = starts.iter().map(|_| None).collect();
        let mut launched = starts.len();
        let mut warm_error = None;
        for (&arm, decoded) in simulating.iter().zip(decoded) {
            match decoded {
                Ok(template) => templates[arm] = template,
                Err(e) => {
                    warm_error = Some(e);
                    launched = arm;
                    break;
                }
            }
        }
        let arms: Vec<(u64, Option<Source<'_, W>>)> = starts[..launched]
            .iter()
            .zip(&templates)
            .map(|(start, template)| start.source(plan, template.as_ref()))
            .collect();
        let mut spaces = self.execute(plan, batch, &arms);
        spaces.extend(warm_error.map(Err));
        spaces.into_iter().collect()
    }

    /// One perturbed run, from machine acquisition to cacheable record:
    /// acquire from `source`, turn the monitor on if strict, settle for
    /// `settle` transactions, measure `transactions`, and package the
    /// measurement with the invariant findings made while producing it.
    fn launch<W: Workload + Clone>(
        &self,
        source: &Source<'_, W>,
        seed: u64,
        settle: u64,
        transactions: u64,
    ) -> Result<RunRecord> {
        let mut machine = match *source {
            Source::Cold(config, make_workload) => {
                let max = config.perturbation_max_ns;
                Machine::new(config.clone().with_perturbation(max, seed), make_workload())?
            }
            Source::Snapshot(template, _) => template.fork(),
        };
        if self.strict_invariants {
            machine.enable_invariant_checks();
        }
        if settle > 0 {
            machine.run_transactions(settle)?;
        }
        if let Source::Snapshot(_, perturbation_max) = *source {
            machine.set_perturbation(perturbation_max, seed);
        }
        let result = machine.run_transactions(transactions)?;
        let monitor = machine.invariant_monitor();
        Ok(RunRecord {
            result,
            monitored: monitor.is_some(),
            total_violations: monitor.map_or(0, |m| m.total_violations()),
            violations: machine.take_invariant_violations(),
        })
    }

    /// Derives every run's key for arms of these source ids and looks each
    /// up in the result cache, reporting nothing yet. With a cache, a run
    /// key that several arms share (equal configurations under different
    /// names) is simulated once and its repeats are served as the cache
    /// hits they would have been, arm after arm; without one, every arm
    /// simulates its own runs.
    fn look_up(&self, plan: &RunPlan, workload_id: u64, source_ids: &[u64]) -> Batch {
        let runs = plan.runs;
        let keys: Vec<RunKey> = source_ids
            .iter()
            .flat_map(|&source_id| {
                (0..runs).map(move |i| RunKey {
                    source: source_id,
                    workload: workload_id,
                    seed: derive_run_seed(source_id, plan.base_seed, i as u64),
                    warmup: plan.warmup_transactions,
                    transactions: plan.transactions,
                })
            })
            .collect();

        let mut slots: Vec<Option<Result<RunRecord>>> = keys.iter().map(|_| None).collect();
        let mut misses: Vec<usize> = Vec::with_capacity(keys.len());
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        let mut first_miss: HashMap<RunKey, usize> = HashMap::new();
        for (slot, key) in keys.iter().enumerate() {
            match self.cache.as_ref().and_then(|c| c.get(key)) {
                // A strict executor cannot vouch for a run that was cached
                // without a monitor watching it; treat it as a miss.
                Some(hit) if !self.strict_invariants || hit.monitored => {
                    slots[slot] = Some(Ok(hit));
                }
                _ if self.cache.is_some() => match first_miss.entry(*key) {
                    Entry::Occupied(miss) => repeats.push((slot, *miss.get())),
                    Entry::Vacant(miss) => {
                        miss.insert(misses.len());
                        misses.push(slot);
                    }
                },
                _ => misses.push(slot),
            }
        }
        Batch {
            keys,
            slots,
            misses,
            repeats,
        }
    }

    /// Shared execution core for a looked-up batch of arms, each `(settle,
    /// source)`: report the cache's hits (replaying their recorded
    /// violations), fan every arm's misses out over the pool as one batch,
    /// reassemble in run-index order, then resolve each arm's errors and
    /// violations with the lowest run index winning. `arms` may stop short
    /// of the batch (a failed warmup ended it): the runs of the arms past
    /// it are neither reported nor simulated. An arm's source is `None`
    /// only when it has no run to simulate.
    fn execute<W>(
        &self,
        plan: &RunPlan,
        batch: Batch,
        arms: &[(u64, Option<Source<'_, W>>)],
    ) -> Vec<Result<RunSpace>>
    where
        W: Workload + Clone + Send + Sync,
    {
        let runs = plan.runs;
        let Batch {
            keys,
            mut slots,
            mut misses,
            mut repeats,
        } = batch;
        // Misses ascend and repeats name earlier misses, so the runs of the
        // launched arms keep a prefix of the misses and their own repeats.
        let end = arms.len() * runs;
        slots.truncate(end);
        misses.retain(|&slot| slot < end);
        repeats.retain(|&(slot, _)| slot < end);
        for (slot, hit) in slots.iter().enumerate() {
            if let Some(Ok(hit)) = hit {
                self.report_cached(slot % runs, hit);
            }
        }

        let outcomes = self.pool.run(&misses, |slot| {
            let run_index = slot % runs;
            let (settle, source) = &arms[slot / runs];
            let source = source
                .as_ref()
                .expect("an arm with a run to simulate has a source");
            if let Some(p) = &self.progress {
                p.run_started(run_index);
            }
            let t0 = Instant::now();
            let outcome = self.launch(source, keys[slot].seed, *settle, plan.transactions);
            if let (Ok(record), Some(p)) = (&outcome, &self.progress) {
                p.run_completed(run_index, t0.elapsed());
                if !record.violations.is_empty() {
                    p.run_violations(run_index, &record.violations);
                }
                p.run_result(run_index, &record.result);
            }
            outcome
        });

        for (slot, miss) in repeats {
            let outcome = &outcomes[miss];
            if let Ok(record) = outcome {
                self.report_cached(slot % runs, record);
            }
            slots[slot] = Some(outcome.clone());
        }
        for (&slot, outcome) in misses.iter().zip(outcomes) {
            if let (Ok(record), Some(c)) = (&outcome, &self.cache) {
                c.insert(keys[slot], record.clone());
            }
            slots[slot] = Some(outcome);
        }

        let mut slots = slots.into_iter();
        arms.iter()
            .map(|_| self.resolve(slots.by_ref().take(runs)))
            .collect()
    }

    /// Reports a run served from the cache, replaying the violations
    /// recorded when it was simulated.
    fn report_cached(&self, run_index: usize, hit: &RunRecord) {
        if let Some(p) = &self.progress {
            p.run_cached(run_index);
            if !hit.violations.is_empty() {
                p.run_violations(run_index, &hit.violations);
            }
            p.run_result(run_index, &hit.result);
        }
    }

    /// Assembles one arm's space from its slots in run-index order. A
    /// single ascending pass, so the winning error — sim failure or strict
    /// violation alike — is the one of the lowest run index, no matter how
    /// the pool scheduled the work.
    fn resolve(&self, slots: impl Iterator<Item = Option<Result<RunRecord>>>) -> Result<RunSpace> {
        let mut results = Vec::with_capacity(slots.size_hint().0);
        let mut violations = Vec::new();
        for (i, slot) in slots.enumerate() {
            let record = slot.expect("slot filled")?;
            if record.total_violations > 0 {
                if self.strict_invariants {
                    return Err(CoreError::InvariantViolation {
                        run: i,
                        report: record.violations,
                    });
                }
                violations.push(RunViolations {
                    run: i,
                    total: record.total_violations,
                    violations: record.violations,
                });
            }
            results.push(record.result);
        }
        let mut space = RunSpace::from_results(results)?;
        space.violations = violations;
        Ok(space)
    }
}

/// Where a perturbed run's machine comes from — the only thing the two
/// launch protocols differ in besides *when* the perturbation is armed.
enum Source<'a, W> {
    /// A fresh machine per run from `(config, workload factory)`, perturbed
    /// from cycle zero: the legacy per-run-warmup protocol.
    Cold(&'a MachineConfig, &'a (dyn Fn() -> W + Sync)),
    /// A copy-on-write fork of a decoded snapshot. The fork settles
    /// unperturbed; the perturbation (this magnitude, the run's seed) is
    /// armed at measurement start.
    Snapshot(&'a Machine<W>, Nanos),
}

/// Where an arm of a batch starts, before anything is simulated or
/// decoded: what the launch body turns into the arm's [`Source`].
enum Start<'a, W> {
    /// Fresh machines per run, perturbed from cycle zero: the legacy
    /// protocol, and every plan without warmup.
    Cold(&'a MachineConfig, &'a (dyn Fn() -> W + Sync)),
    /// The configuration's shared warmup, warmed once and decoded once.
    Warmed(&'a MachineConfig, &'a (dyn Fn() -> W + Sync)),
    /// A caller-held snapshot, perturbed at this magnitude: decoded once,
    /// or not at all when the caller also holds a machine in its state.
    Snapshot(&'a Checkpoint, Nanos, Option<&'a Machine<W>>),
}

impl<'a, W> Start<'a, W> {
    /// The id the arm's run seeds and cache keys derive from, known before
    /// anything is warmed or decoded.
    fn source_id(&self) -> u64 {
        // The fingerprint (and hence every derived seed) comes from the
        // caller's configuration; strict mode flips check_invariants on the
        // per-run clone only, so it can never change the seeds.
        match *self {
            Start::Cold(config, _) => config_fingerprint(config),
            // Seeds stay a pure function of the *caller's* configuration —
            // not of the snapshot bytes, which differ between strict and
            // observing warmups — so strict sweeps keep the observing seeds.
            // The domain constant keeps them decorrelated from (and the
            // cache disjoint with) the legacy path's seed stream.
            Start::Warmed(config, _) => config_fingerprint(config) ^ SHARED_WARMUP_DOMAIN,
            Start::Snapshot(snapshot, ..) => snapshot.fingerprint(),
        }
    }

    /// The arm's `(settle, source)`, its runs forking from `template`
    /// unless they start cold; no source when the arm needs a template and
    /// has none (it simulates no run).
    fn source<'t>(
        &self,
        plan: &RunPlan,
        template: Option<&'t Machine<W>>,
    ) -> (u64, Option<Source<'t, W>>)
    where
        'a: 't,
    {
        match *self {
            Start::Cold(config, make_workload) => (
                plan.warmup_transactions,
                Some(Source::Cold(config, make_workload)),
            ),
            // The snapshot already embodies the plan's warmup: no settling.
            Start::Warmed(config, _) => (
                0,
                template.map(|t| Source::Snapshot(t, config.perturbation_max_ns)),
            ),
            Start::Snapshot(_, perturbation_max_ns, given) => (
                plan.warmup_transactions,
                given
                    .or(template)
                    .map(|t| Source::Snapshot(t, perturbation_max_ns)),
            ),
        }
    }
}

/// A batch's runs after the result-cache lookup, before anything is
/// simulated. Slot `arm * runs + i` is run `i` of `arm`.
struct Batch {
    keys: Vec<RunKey>,
    /// The cache's hits; every other slot is filled by the launch.
    slots: Vec<Option<Result<RunRecord>>>,
    /// The slots to simulate, ascending.
    misses: Vec<usize>,
    /// Slots whose key an earlier miss of this batch simulates, with the
    /// position of that miss in `misses`.
    repeats: Vec<(usize, usize)>,
}

/// One warmup that advances from starting point to starting point: the
/// body of [`Executor::warm_checkpoint`], which advances a fresh chain once,
/// and of a [`timesample`](crate::timesample) sweep, which advances one
/// chain through every position. The chain keeps the machine it warmed
/// alive, so the next position simulates only the transactions in between
/// instead of decoding the snapshot the same machine has just encoded, and
/// hands out forks of that live machine ([`WarmChain::template`]) as the
/// template of every position it simulated, so the sweep does not decode
/// them either. This is the one place a live machine is
/// [`share`](Machine::share)d.
pub(crate) struct WarmChain<'a, W, F> {
    executor: &'a Executor,
    warm_cfg: MachineConfig,
    make_workload: &'a F,
    /// The chain's `(config, workload, base_seed)` space; `warmup` is set
    /// per advance.
    key: CheckpointKey,
    /// The machine the last simulated advance left behind, and how many
    /// transactions it has warmed. `None` before the first one, and after an
    /// advance that failed part-way (its machine cannot be trusted).
    live: Option<(u64, Machine<W>)>,
}

impl<'a, W, F> WarmChain<'a, W, F>
where
    W: Workload + Snap,
    F: Fn() -> W,
{
    pub(crate) fn new(
        executor: &'a Executor,
        config: &MachineConfig,
        make_workload: &'a F,
        base_seed: u64,
    ) -> Self {
        let mut warm_cfg = config.clone().with_perturbation(0, 0);
        if executor.strict_invariants {
            // Strict warmup still watches for violations; the monitored
            // configuration fingerprints differently, so monitored and
            // unmonitored snapshots never alias in the store.
            warm_cfg = warm_cfg.with_invariant_checks();
        }
        let key = CheckpointKey {
            config: config_fingerprint(&warm_cfg),
            workload: workload_fingerprint(&mut make_workload()),
            base_seed,
            warmup: 0,
        };
        WarmChain {
            executor,
            warm_cfg,
            make_workload,
            key,
            live: None,
        }
    }

    /// The snapshot after `warmup` transactions, through the store's
    /// single-flight when the executor has a store: a stored snapshot is
    /// returned as is and the live machine stays where it was.
    pub(crate) fn advance(
        &mut self,
        warmup: u64,
        from: Option<(u64, &Checkpoint)>,
    ) -> Result<Arc<Checkpoint>> {
        let key = CheckpointKey { warmup, ..self.key };
        let executor = self.executor;
        match executor.checkpoint_store.as_deref() {
            Some(store) => store.get_or_warm(key, || self.warm(&key, from)),
            None => self.warm(&key, from),
        }
    }

    /// A fork of the live machine, if the last advance simulated `warmup`
    /// (a store hit leaves the live machine where it was, and gets `None`):
    /// the template a sweep forks that position's runs from instead of
    /// decoding the snapshot just encoded. The live machine is shared first,
    /// so the template and the runs forked from it copy pointers, not
    /// arrays. Callers drop the previous template before asking for the next
    /// one: with no other holder, the share folds the chunks the chain wrote
    /// since back into the arrays in place instead of copying them whole.
    #[expect(clippy::disallowed_methods, reason = "the one live-machine share")]
    pub(crate) fn template(&mut self, warmup: u64) -> Option<Machine<W>>
    where
        W: Clone,
    {
        let (done, machine) = self.live.as_mut()?;
        if *done != warmup {
            return None;
        }
        machine.share();
        Some(machine.fork())
    }

    fn warm(
        &mut self,
        key: &CheckpointKey,
        from: Option<(u64, &Checkpoint)>,
    ) -> Result<Arc<Checkpoint>> {
        let warmup = key.warmup;
        // Deepest usable snapshot: the store's longest shorter-warmup entry
        // vs. the caller-supplied candidate (the store wins a tie).
        let store = self.executor.checkpoint_store.as_deref();
        let stored = store.and_then(|s| s.longest_prefix(key));
        let snapshot = [
            from.filter(|(done, _)| *done <= warmup),
            stored.as_ref().map(|(done, ck)| (*done, ck.as_ref())),
        ]
        .into_iter()
        .flatten()
        .max_by_key(|(done, _)| *done);
        let mut live = self.live.take().filter(|(done, _)| *done <= warmup);
        match snapshot {
            // Only the caller's candidate can sit at `warmup` itself: the
            // one arm that hands a copy of it back.
            Some((done, ck)) if done == warmup => return Ok(Arc::new(ck.clone())),
            // Restore only what is deeper than the machine already in hand.
            Some((done, ck)) if live.as_ref().is_none_or(|(at, _)| done > *at) => {
                #[expect(clippy::disallowed_methods, reason = "chain restores decode here")]
                let restored = Machine::restore(ck)?;
                live = Some((done, restored));
            }
            _ => {}
        }
        let (done, mut machine) = match live {
            Some(live) => live,
            None => (
                0,
                Machine::new(self.warm_cfg.clone(), (self.make_workload)())?,
            ),
        };
        machine.run_transactions(warmup - done)?;
        // Counters are normalized before snapshotting so the bytes — and
        // the fingerprint that seeds `run_space_from_snapshot` — depend
        // only on the warmed architectural state, never on whether it was
        // reached in one warmup call, by extending a restored prefix, or by
        // a machine that has been snapshotted before and kept running.
        #[expect(clippy::disallowed_methods, reason = "the one warmup body")]
        machine.normalize_measurement();
        let snapshot = Arc::new(machine.snapshot());
        self.live = Some((warmup, machine));
        Ok(snapshot)
    }
}

/// Runs `plan` on a fresh machine per run, sequentially: build with the
/// derived perturbation seed, warm up, measure.
///
/// This is the reference single-threaded path; [`Executor::run_space`]
/// produces bit-identical results on any thread count and adds caching and
/// progress reporting. Prefer the executor for multi-run work — this free
/// function remains for small spaces and as the determinism baseline.
///
/// # Errors
///
/// Propagates configuration and deadlock errors from the simulator.
#[expect(clippy::disallowed_methods, reason = "the single-space entry point")]
pub fn run_space<W, F>(config: &MachineConfig, make_workload: F, plan: &RunPlan) -> Result<RunSpace>
where
    W: Workload + Snap + Clone + Send + Sync,
    F: Fn() -> W + Sync,
{
    Executor::sequential()
        .without_cache()
        .run_space(config, make_workload, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtvar_sim::workload::SharingWorkload;
    use std::collections::HashSet;

    /// [`Executor::run_space`]: the one call of it in these tests, so the
    /// crate's clippy rule still holds for the rest of the module.
    trait Sweep {
        fn sweep<W, F>(&self, config: &MachineConfig, make: F, plan: &RunPlan) -> Result<RunSpace>
        where
            W: Workload + Snap + Clone + Send + Sync,
            F: Fn() -> W + Sync;
    }

    impl Sweep for Executor {
        #[expect(clippy::disallowed_methods, reason = "the executor's own tests")]
        fn sweep<W, F>(&self, config: &MachineConfig, make: F, plan: &RunPlan) -> Result<RunSpace>
        where
            W: Workload + Snap + Clone + Send + Sync,
            F: Fn() -> W + Sync,
        {
            self.run_space(config, make, plan)
        }
    }

    fn small_config() -> MachineConfig {
        MachineConfig::hpca2003()
            .with_cpus(4)
            .with_perturbation(4, 0)
    }

    fn small_workload() -> SharingWorkload {
        SharingWorkload::new(8, 42, 40, 4096, 10)
    }

    #[test]
    fn run_space_collects_all_runs() {
        let plan = RunPlan::new(30).with_runs(5);
        let space = run_space(&small_config(), small_workload, &plan).unwrap();
        assert_eq!(space.len(), 5);
        let rt = space.runtimes();
        assert!(rt.iter().all(|&r| r > 0.0));
        let s = space.summary().unwrap();
        assert_eq!(s.n(), 5);
    }

    #[test]
    fn perturbed_runs_differ() {
        let plan = RunPlan::new(40).with_runs(6).with_warmup(10);
        let space = run_space(&small_config(), small_workload, &plan).unwrap();
        let rt = space.runtimes();
        assert!(
            rt.iter().any(|&r| (r - rt[0]).abs() > 1e-9),
            "perturbed runs should differ: {rt:?}"
        );
    }

    #[test]
    fn same_plan_reproduces_exactly() {
        let plan = RunPlan::new(25).with_runs(3);
        let a = run_space(&small_config(), small_workload, &plan).unwrap();
        let b = run_space(&small_config(), small_workload, &plan).unwrap();
        assert_eq!(a.runtimes(), b.runtimes());
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let plan = RunPlan::new(30).with_runs(6);
        let seq = run_space(&small_config(), small_workload, &plan).unwrap();
        for threads in [1, 2, 3, 8] {
            let par = Executor::with_threads(threads)
                .sweep(&small_config(), small_workload, &plan)
                .unwrap();
            assert_eq!(seq, par, "thread count {threads} changed results");
        }
    }

    #[test]
    fn cache_satisfies_repeat_invocations() {
        let progress = Arc::new(ProgressCounters::new());
        let exec = Executor::with_threads(2).with_progress(progress.clone());
        let plan = RunPlan::new(20).with_runs(4);
        let a = exec.sweep(&small_config(), small_workload, &plan).unwrap();
        assert_eq!(progress.completed(), 4);
        assert_eq!(progress.cached(), 0);
        assert_eq!(exec.cache_len(), 4);

        let b = exec.sweep(&small_config(), small_workload, &plan).unwrap();
        assert_eq!(a, b, "cached results must be identical");
        assert_eq!(progress.completed(), 4, "no re-simulation on second call");
        assert_eq!(progress.cached(), 4);

        // A longer plan re-uses nothing (transactions are part of the key)...
        let longer = RunPlan::new(21).with_runs(4);
        let _ = exec
            .sweep(&small_config(), small_workload, &longer)
            .unwrap();
        assert_eq!(progress.completed(), 8);

        // ...and an extended run count re-uses the shared prefix.
        let extended = plan.with_runs(6);
        let c = exec
            .sweep(&small_config(), small_workload, &extended)
            .unwrap();
        assert_eq!(progress.cached(), 8, "first 4 runs of the extension hit");
        assert_eq!(&c.runtimes()[..4], &a.runtimes()[..], "prefix must match");

        exec.clear_cache();
        assert_eq!(exec.cache_len(), 0);
    }

    #[test]
    fn cache_distinguishes_workload_parameters() {
        let progress = Arc::new(ProgressCounters::new());
        let exec = Executor::sequential().with_progress(progress.clone());
        let plan = RunPlan::new(15).with_runs(2);
        let a = exec
            .sweep(
                &small_config(),
                || SharingWorkload::new(8, 1, 40, 4096, 10),
                &plan,
            )
            .unwrap();
        let b = exec
            .sweep(
                &small_config(),
                || SharingWorkload::new(8, 2, 40, 4096, 10),
                &plan,
            )
            .unwrap();
        assert_eq!(
            progress.cached(),
            0,
            "different workload seeds must not collide"
        );
        assert_ne!(a, b);
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let id = config_fingerprint(&small_config());
        let seeds: Vec<u64> = (0..64).map(|i| derive_run_seed(id, 0, i)).collect();
        let distinct: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(distinct.len(), seeds.len(), "seed collisions within a plan");
        assert_eq!(
            seeds,
            (0..64)
                .map(|i| derive_run_seed(id, 0, i))
                .collect::<Vec<_>>()
        );
        // Different arms (config ids) get decorrelated streams.
        let other = config_fingerprint(&small_config().with_cpus(8));
        assert_ne!(derive_run_seed(other, 0, 0), seeds[0]);
    }

    /// Every spilled result's file name and every stored checkpoint's key
    /// embeds these values: they must never move.
    #[test]
    fn seed_and_fingerprint_known_answers() {
        assert_eq!(derive_run_seed(1, 2, 3), 0xDDFC_8682_F836_1AAF);
        assert_eq!(
            config_fingerprint(&MachineConfig::hpca2003()),
            0x7102_4520_6328_D876
        );
        assert_eq!(
            workload_fingerprint(&mut small_workload()),
            0x082E_CDBB_486C_708B
        );
    }

    /// The paper's space-variability protocol from a caller-held machine:
    /// snapshot it, fork every run from the snapshot.
    fn snapshot_space(
        exec: Executor,
        m: &Machine<SharingWorkload>,
        plan: &RunPlan,
    ) -> Result<RunSpace> {
        let max_ns = m.config().perturbation_max_ns;
        exec.run_space_from_snapshot::<SharingWorkload>(&m.snapshot(), max_ns, plan)
    }

    #[test]
    fn snapshot_space_starts_from_identical_state() {
        let mut m = Machine::new(small_config(), small_workload()).unwrap();
        m.run_transactions(20).unwrap();
        let plan = RunPlan::new(30).with_runs(4);
        let sequential = || Executor::sequential().without_cache();
        let a = snapshot_space(sequential(), &m, &plan).unwrap();
        let b = snapshot_space(sequential(), &m, &plan).unwrap();
        assert_eq!(a.runtimes(), b.runtimes());
        assert_eq!(a.len(), 4);
        // The parallel executor agrees bit-for-bit.
        let c = snapshot_space(Executor::with_threads(4), &m, &plan).unwrap();
        assert_eq!(a.runtimes(), c.runtimes());
    }

    #[test]
    fn snapshots_at_different_positions_decorrelate() {
        let mut m = Machine::new(small_config(), small_workload()).unwrap();
        m.run_transactions(10).unwrap();
        let early = m.snapshot().fingerprint();
        m.run_transactions(10).unwrap();
        let late = m.snapshot().fingerprint();
        assert_ne!(
            early, late,
            "advancing the machine must change its fingerprint"
        );
        assert_ne!(derive_run_seed(early, 0, 0), derive_run_seed(late, 0, 0));
    }

    #[test]
    fn plan_validation() {
        let bad = RunPlan::new(10).with_runs(0);
        assert!(run_space(&small_config(), small_workload, &bad).is_err());
        let bad2 = RunPlan::new(0);
        assert!(run_space(&small_config(), small_workload, &bad2).is_err());
        // warmup + transactions must not wrap.
        let bad3 = RunPlan::new(u64::MAX).with_warmup(1);
        let err = run_space(&small_config(), small_workload, &bad3).unwrap_err();
        assert!(err.to_string().contains("overflows"), "got {err}");
        assert!(RunSpace::from_results(vec![]).is_err());
    }

    /// A faulted configuration: the monitor is on and an illegal Exclusive
    /// state (under MOSI) is planted after the 12th commit of every run, so
    /// every run of a space records at least one violation.
    fn faulted_config() -> MachineConfig {
        use mtvar_sim::config::FaultSpec;
        use mtvar_sim::mem::CoherenceState;
        small_config()
            .with_invariant_checks()
            .with_fault(FaultSpec::coherence(
                12,
                1,
                0xFA11,
                CoherenceState::Exclusive,
            ))
    }

    #[test]
    fn observing_mode_reports_violations_and_marks_space() {
        let progress = Arc::new(ProgressCounters::new());
        let exec = Executor::with_threads(2)
            .without_cache()
            .with_progress(progress.clone());
        let plan = RunPlan::new(30).with_runs(3);
        let space = exec
            .sweep(&faulted_config(), small_workload, &plan)
            .unwrap();
        assert!(!space.is_clean());
        assert!(space.total_violations() > 0);
        assert_eq!(space.violations().len(), 3, "every run hits the fault");
        assert!(space.violations().windows(2).all(|w| w[0].run < w[1].run));
        assert_eq!(progress.violating_runs(), 3);
        assert!(progress.violations() >= 3);
    }

    #[test]
    fn cache_hits_replay_violations() {
        let progress = Arc::new(ProgressCounters::new());
        let exec = Executor::with_threads(2).with_progress(progress.clone());
        let plan = RunPlan::new(30).with_runs(3);
        let a = exec
            .sweep(&faulted_config(), small_workload, &plan)
            .unwrap();
        assert_eq!(progress.violating_runs(), 3);
        let b = exec
            .sweep(&faulted_config(), small_workload, &plan)
            .unwrap();
        assert_eq!(progress.cached(), 3, "second sweep is all cache hits");
        assert_eq!(
            progress.violating_runs(),
            6,
            "cache hits must replay violations, not drop them"
        );
        assert_eq!(a.violations(), b.violations());
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_space_reports_violations_in_both_modes() {
        use mtvar_sim::config::FaultSpec;
        use mtvar_sim::mem::CoherenceState;
        let mut m = Machine::new(faulted_config(), small_workload()).unwrap();
        // Snapshot before the fault's trigger commit so it fires inside
        // each run of the space, not before it.
        m.run_transactions(5).unwrap();
        assert!(m.invariant_violations().is_empty());
        let plan = RunPlan::new(30).with_runs(2);

        let observing = Executor::with_threads(2).without_cache();
        let space = snapshot_space(observing, &m, &plan).unwrap();
        assert_eq!(space.violations().len(), 2);

        let strict = || Executor::with_threads(2).with_invariant_checks();
        let err = snapshot_space(strict(), &m, &plan).unwrap_err();
        assert!(matches!(err, CoreError::InvariantViolation { run: 0, .. }));

        // Strict also monitors snapshots taken without a monitor.
        let cfg = small_config().with_fault(FaultSpec::coherence(
            12,
            1,
            0xFA11,
            CoherenceState::Exclusive,
        ));
        let mut unmonitored = Machine::new(cfg, small_workload()).unwrap();
        unmonitored.run_transactions(5).unwrap();
        let err = snapshot_space(strict(), &unmonitored, &plan).unwrap_err();
        assert!(matches!(err, CoreError::InvariantViolation { run: 0, .. }));
    }

    /// The pool as `execute` drives it, on a pool of its own.
    fn run_on_pool<T, J>(threads: usize, items: &[usize], job: J) -> Vec<T>
    where
        T: Send + Sync,
        J: Fn(usize) -> T + Sync,
    {
        Pool::new(threads).run(items, job)
    }

    #[test]
    fn pool_runs_every_item_once_and_preserves_input_order() {
        for threads in [1, 2, 4, 16] {
            // 97 items, then fewer items than threads, then none.
            for len in [97, 3, 0] {
                let items: Vec<usize> = (0..len).rev().collect();
                let executed: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let out = run_on_pool(threads, &items, |i| {
                    executed[i].fetch_add(1, Ordering::Relaxed);
                    i * 3
                });
                assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
                assert!(
                    executed.iter().all(|n| n.load(Ordering::Relaxed) == 1),
                    "{threads} threads, {len} items: every item runs exactly once"
                );
            }
        }
    }

    /// Records which threads run the runs, and counts those threads' exits:
    /// the first run on a thread parks a guard in a thread-local, whose
    /// destructor runs when the thread ends — before a `join` of it returns.
    #[derive(Default)]
    struct WorkerWatch {
        seen: Mutex<HashSet<std::thread::ThreadId>>,
        exited: Arc<AtomicUsize>,
    }

    struct ExitGuard(Arc<AtomicUsize>);

    impl Drop for ExitGuard {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    thread_local! {
        static EXIT_GUARD: std::cell::RefCell<Option<ExitGuard>> =
            const { std::cell::RefCell::new(None) };
    }

    impl WorkerWatch {
        /// The threads seen since the last call.
        fn take_threads(&self) -> HashSet<std::thread::ThreadId> {
            std::mem::take(&mut *self.seen.lock().unwrap())
        }
    }

    impl RunProgress for WorkerWatch {
        fn run_started(&self, _run_index: usize) {
            self.seen
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            EXIT_GUARD.with(|guard| {
                guard
                    .borrow_mut()
                    .get_or_insert_with(|| ExitGuard(Arc::clone(&self.exited)));
            });
        }
    }

    #[test]
    fn workers_persist_across_sweeps_are_shared_by_clones_and_exit_with_the_last() {
        let watch = Arc::new(WorkerWatch::default());
        let exec = Executor::with_threads(2)
            .without_cache()
            .with_progress(watch.clone() as Arc<dyn RunProgress>);
        let plan = RunPlan::new(20).with_runs(8);
        let sweep = |exec: &Executor| exec.sweep(&small_config(), small_workload, &plan).unwrap();
        let reference = sweep(&exec);
        let first = watch.take_threads();
        assert!(
            !first.is_empty() && first.len() <= 2,
            "two workers at most: {first:?}"
        );
        assert!(
            !first.contains(&std::thread::current().id()),
            "at T = 2 the submitting thread runs nothing"
        );
        // Until both workers have been seen, a later sweep may still add one.
        let mut workers = first;
        for _ in 0..3 {
            assert_eq!(sweep(&exec), reference);
            workers.extend(watch.take_threads());
            assert!(workers.len() <= 2, "a sweep ran on a fresh thread");
        }
        // A clone — differently configured, even — submits to the same pool.
        let clone = exec.clone().with_invariant_checks();
        assert_eq!(sweep(&clone).results(), reference.results());
        assert!(watch.take_threads().is_subset(&workers));
        drop(exec);
        assert_eq!(
            watch.exited.load(Ordering::SeqCst),
            0,
            "workers outlive all but the last clone"
        );
        assert_eq!(sweep(&clone).results(), reference.results());
        assert!(watch.take_threads().is_subset(&workers));
        drop(clone);
        assert_eq!(
            watch.exited.load(Ordering::SeqCst),
            workers.len(),
            "dropping the last clone joins every worker"
        );

        // One thread is no pool at all: the caller runs everything.
        let solo = Executor::sequential()
            .without_cache()
            .with_progress(watch.clone() as Arc<dyn RunProgress>);
        assert_eq!(sweep(&solo), reference);
        assert_eq!(
            watch.take_threads(),
            HashSet::from([std::thread::current().id()])
        );
    }

    #[test]
    fn a_panicking_run_resurfaces_on_the_caller_and_leaves_the_executor_usable() {
        /// Panics at the start of run 2 while armed.
        struct Tripwire(std::sync::atomic::AtomicBool);
        impl RunProgress for Tripwire {
            fn run_started(&self, run_index: usize) {
                if run_index == 2 && self.0.load(Ordering::SeqCst) {
                    panic!("run 2 tripped");
                }
            }
        }
        let tripwire = Arc::new(Tripwire(true.into()));
        let exec = Executor::with_threads(2)
            .without_cache()
            .with_progress(tripwire.clone() as Arc<dyn RunProgress>);
        let plan = RunPlan::new(20).with_runs(6);
        let sweep = |exec: &Executor| exec.sweep(&small_config(), small_workload, &plan);
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sweep(&exec))).unwrap_err();
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"run 2 tripped"),
            "the run's own panic, not a pool's summary of it"
        );
        tripwire.0.store(false, Ordering::SeqCst);
        let after = sweep(&exec).unwrap();
        let fresh = sweep(&Executor::with_threads(2).without_cache()).unwrap();
        assert_eq!(after, fresh, "results, hence digests, of an untouched pool");
    }

    #[test]
    fn shared_warmup_is_bit_identical_across_thread_counts() {
        let plan = RunPlan::new(25).with_runs(6).with_warmup(15);
        assert!(plan.shared_warmup, "shared warmup is the default");
        let seq = Executor::sequential()
            .without_cache()
            .sweep(&small_config(), small_workload, &plan)
            .unwrap();
        for threads in [2, 4, 8] {
            let par = Executor::with_threads(threads)
                .without_cache()
                .sweep(&small_config(), small_workload, &plan)
                .unwrap();
            assert_eq!(seq, par, "thread count {threads} changed results");
        }
    }

    #[test]
    fn shared_warmup_differs_from_legacy_but_both_reproduce() {
        let shared = RunPlan::new(25).with_runs(5).with_warmup(15);
        let legacy = shared.with_shared_warmup(false);
        let exec = Executor::sequential().without_cache();
        let a = exec
            .sweep(&small_config(), small_workload, &shared)
            .unwrap();
        let b = exec
            .sweep(&small_config(), small_workload, &legacy)
            .unwrap();
        // Different protocols (perturbed vs unperturbed warmup, disjoint seed
        // domains) — but each is individually reproducible.
        assert_ne!(a.runtimes(), b.runtimes());
        let a2 = exec
            .sweep(&small_config(), small_workload, &shared)
            .unwrap();
        let b2 = exec
            .sweep(&small_config(), small_workload, &legacy)
            .unwrap();
        assert_eq!(a, a2);
        assert_eq!(b, b2);
    }

    #[test]
    fn legacy_path_matches_manual_per_run_simulation() {
        let plan = RunPlan::new(20)
            .with_runs(4)
            .with_warmup(10)
            .with_shared_warmup(false);
        let space = Executor::sequential()
            .without_cache()
            .sweep(&small_config(), small_workload, &plan)
            .unwrap();
        let config_id = config_fingerprint(&small_config());
        for (i, &rt) in space.runtimes().iter().enumerate() {
            let seed = derive_run_seed(config_id, plan.base_seed, i as u64);
            let cfg = small_config().with_perturbation(4, seed);
            let mut m = Machine::new(cfg, small_workload()).unwrap();
            m.run_transactions(10).unwrap();
            let result = m.run_transactions(20).unwrap();
            assert_eq!(result.cycles_per_transaction(), rt, "run {i} diverged");
        }
    }

    #[test]
    fn checkpoint_store_does_not_change_results() {
        let plan = RunPlan::new(25).with_runs(5).with_warmup(20);
        let bare = Executor::sequential()
            .without_cache()
            .sweep(&small_config(), small_workload, &plan)
            .unwrap();
        let store = Arc::new(CheckpointStore::new());
        let stored_exec = Executor::with_threads(4)
            .without_cache()
            .with_checkpoint_store(store.clone());
        let stored = stored_exec
            .sweep(&small_config(), small_workload, &plan)
            .unwrap();
        assert_eq!(bare, stored, "the store must be invisible to statistics");
        assert_eq!(store.len(), 1, "one warmed snapshot memoized");
        // Second sweep hits the stored snapshot; results stay identical.
        let again = stored_exec
            .sweep(&small_config(), small_workload, &plan)
            .unwrap();
        assert_eq!(bare, again);
        assert_eq!(store.len(), 1);
    }

    /// A repeat sweep that the result cache answers whole warms, fetches
    /// and decodes nothing: the store counts no warmup, shared or
    /// simulated, and this thread, which runs everything at T = 1, takes no
    /// buffer from the decode arena.
    #[test]
    fn a_fully_cached_sweep_decodes_nothing() {
        let store = Arc::new(CheckpointStore::new());
        let exec = Executor::sequential().with_checkpoint_store(store.clone());
        let plan = RunPlan::new(20).with_runs(4).with_warmup(20);
        let first = exec.sweep(&small_config(), small_workload, &plan).unwrap();
        let warmups = (store.warmups_simulated(), store.warmups_shared());
        let takes = mtvar_sim::mem::arena::stats().takes;
        let again = exec.sweep(&small_config(), small_workload, &plan).unwrap();
        assert_eq!(again, first);
        assert_eq!(
            (store.warmups_simulated(), store.warmups_shared()),
            warmups,
            "the repeat consulted the store"
        );
        assert_eq!(
            mtvar_sim::mem::arena::stats().takes,
            takes,
            "the repeat decoded a template"
        );
    }

    #[test]
    fn warm_checkpoint_prefix_extension_is_bit_identical() {
        let store = Arc::new(CheckpointStore::new());
        let exec = Executor::sequential().with_checkpoint_store(store.clone());
        // Deep warmup computed from scratch by a storeless executor...
        let direct = Executor::sequential()
            .warm_checkpoint(&small_config(), &small_workload, 0, 30, None)
            .unwrap();
        // ...vs seeded store: warm 10 first, then extend 10 -> 30.
        let shallow = exec
            .warm_checkpoint(&small_config(), &small_workload, 0, 10, None)
            .unwrap();
        let extended = exec
            .warm_checkpoint(&small_config(), &small_workload, 0, 30, None)
            .unwrap();
        assert_ne!(shallow.fingerprint(), extended.fingerprint());
        assert_eq!(
            direct.fingerprint(),
            extended.fingerprint(),
            "extending a shorter warmup must be bit-identical to a straight warmup"
        );
        assert_eq!(store.len(), 2);
        // The caller-supplied `from` candidate chains without a store.
        let chained = Executor::sequential()
            .warm_checkpoint(
                &small_config(),
                &small_workload,
                0,
                30,
                Some((10, shallow.as_ref())),
            )
            .unwrap();
        assert_eq!(chained.fingerprint(), direct.fingerprint());
    }

    #[test]
    fn strict_clean_shared_warmup_matches_observing() {
        let plan = RunPlan::new(25).with_runs(4).with_warmup(15);
        let observing = Executor::sequential()
            .without_cache()
            .sweep(&small_config(), small_workload, &plan)
            .unwrap();
        let strict = Executor::sequential()
            .without_cache()
            .with_invariant_checks()
            .sweep(&small_config(), small_workload, &plan)
            .unwrap();
        assert_eq!(observing, strict, "the monitor must be read-only");
    }

    #[test]
    fn result_spill_survives_a_fresh_executor() {
        let dir = crate::spill::temp_dir("runspace-spill");
        let plan = RunPlan::new(20).with_runs(4).with_warmup(5);
        let baseline = Executor::sequential()
            .without_cache()
            .sweep(&small_config(), small_workload, &plan)
            .unwrap();
        {
            let progress = Arc::new(ProgressCounters::new());
            let exec = Executor::with_threads(2)
                .with_result_spill(&dir)
                .with_progress(progress.clone());
            assert!(exec.result_store().is_some());
            let first = exec.sweep(&small_config(), small_workload, &plan).unwrap();
            assert_eq!(first, baseline);
            assert_eq!(progress.completed(), 4);
            assert_eq!(exec.result_store().unwrap().len_on_disk(), 4);
        }
        // A fresh executor (fresh process, in spirit) replays from disk.
        let progress = Arc::new(ProgressCounters::new());
        let fresh = Executor::with_threads(2)
            .with_result_spill(&dir)
            .with_progress(progress.clone());
        let replayed = fresh.sweep(&small_config(), small_workload, &plan).unwrap();
        assert_eq!(replayed, baseline, "spilled results must be bit-identical");
        assert_eq!(progress.completed(), 0, "nothing re-simulates");
        assert_eq!(progress.cached(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_spill_replays_violations() {
        let dir = crate::spill::temp_dir("runspace-spill-viol");
        let plan = RunPlan::new(30).with_runs(2);
        let first = Executor::sequential()
            .with_result_spill(&dir)
            .sweep(&faulted_config(), small_workload, &plan)
            .unwrap();
        assert!(!first.is_clean());
        let progress = Arc::new(ProgressCounters::new());
        let fresh = Executor::sequential()
            .with_result_spill(&dir)
            .with_progress(progress.clone());
        let replayed = fresh
            .sweep(&faulted_config(), small_workload, &plan)
            .unwrap();
        assert_eq!(progress.cached(), 2);
        assert_eq!(
            first.violations(),
            replayed.violations(),
            "disk hits must replay violations, not drop them"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_result_fires_for_completions_and_cache_hits() {
        use std::sync::Mutex as StdMutex;
        #[derive(Default)]
        struct Digests(StdMutex<Vec<(usize, u64)>>);
        impl RunProgress for Digests {
            fn run_result(&self, run_index: usize, result: &RunResult) {
                self.0
                    .lock()
                    .unwrap()
                    .push((run_index, crate::golden::run_digest(result)));
            }
        }
        let observer = Arc::new(Digests::default());
        let exec =
            Executor::with_threads(2).with_progress(observer.clone() as Arc<dyn RunProgress>);
        let plan = RunPlan::new(20).with_runs(3);
        let space = exec.sweep(&small_config(), small_workload, &plan).unwrap();
        let expected: Vec<(usize, u64)> = space
            .results()
            .iter()
            .enumerate()
            .map(|(i, r)| (i, crate::golden::run_digest(r)))
            .collect();
        let mut seen = observer.0.lock().unwrap().clone();
        seen.sort_unstable();
        assert_eq!(seen, expected, "simulated completions stream results");
        observer.0.lock().unwrap().clear();
        // Second sweep: all cache hits, same digests.
        let _ = exec.sweep(&small_config(), small_workload, &plan).unwrap();
        let mut seen = observer.0.lock().unwrap().clone();
        seen.sort_unstable();
        assert_eq!(seen, expected, "cache hits stream identical results");
    }

    #[test]
    fn shared_warmup_surfaces_warmup_faults_in_strict_mode() {
        // The fault fires at commit 12, inside the 15-transaction shared
        // warmup; a strict sweep must still catch it even though the
        // violation happens before any run's measurement starts.
        let plan = RunPlan::new(20).with_runs(3).with_warmup(15);
        let err = Executor::sequential()
            .with_invariant_checks()
            .sweep(&faulted_config(), small_workload, &plan)
            .unwrap_err();
        assert!(
            matches!(err, CoreError::InvariantViolation { run: 0, .. }),
            "expected a strict violation failure, got {err:?}"
        );
    }
}
