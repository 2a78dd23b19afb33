//! End-to-end trustworthiness of the served path.
//!
//! The service's core claim: a sweep submitted over the socket yields
//! **bit-identical** statistics digests to the same sweep run through the
//! batch [`Executor`] — and N concurrent clients asking the same question
//! share one simulation, with the other N−1 sweeps replayed from the shared
//! cache. Graceful shutdown drains in-flight jobs while rejecting new
//! submissions with a typed `Draining` error, and disk spill carries both
//! warmed checkpoints and run results across a full server restart.
//!
//! The digest tests also run on a strict server (`mtvar serve --strict`)
//! against a strict batch executor, so every served run is monitored.
//!
//! [`Executor`]: mtvar_core::runspace::Executor

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use mtvar_core::golden::run_digest;
use mtvar_core::runspace::Executor;
use mtvar_serve::client::{Client, JobOutcome, SweepOutcome};
use mtvar_serve::protocol::{
    fold_digest, ConfigSpec, ErrorCode, PlanSpec, Priority, Response, SweepSpec, WorkloadSpec,
};
use mtvar_serve::server::{ServeConfig, Server};
use mtvar_serve::ServeError;
use mtvar_sim::workload::SharingWorkload;

/// A socket path short enough for `sockaddr_un` everywhere.
fn socket_path(tag: &str) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let n = NONCE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("mtv-{}-{tag}-{n}.sock", std::process::id()))
}

fn sweep() -> SweepSpec {
    SweepSpec {
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
            runs: 5,
            transactions: 40,
            warmup: 25,
            base_seed: 0,
            shared_warmup: true,
        },
        priority: Priority::Normal,
    }
}

fn batch_digest(spec: &SweepSpec, strict: bool) -> u64 {
    let config = spec.config.build();
    let plan = spec.plan.build();
    let WorkloadSpec::Sharing {
        threads,
        seed,
        ops_per_txn,
        footprint_blocks,
        lock_every,
    } = spec.workload.clone()
    else {
        panic!("test sweep is a sharing workload");
    };
    let mut executor = Executor::with_threads(2);
    if strict {
        executor = executor.with_invariant_checks();
    }
    let space = executor
        .run_space(
            &config,
            move || {
                SharingWorkload::new(
                    threads as usize,
                    seed,
                    ops_per_txn as u32,
                    footprint_blocks,
                    lock_every as u32,
                )
            },
            &plan,
        )
        .expect("batch sweep");
    space
        .results()
        .iter()
        .fold(0u64, |acc, r| fold_digest(acc, run_digest(r)))
}

/// N concurrent clients submitting one sweep: every client gets the same
/// digest and violation summary, the digest equals the batch executor's,
/// exactly one sweep simulates, and the per-run digest streams agree run
/// for run.
#[test]
fn concurrent_clients_get_identical_digests_and_share_one_simulation() {
    for strict in [false, true] {
        const CLIENTS: usize = 3;
        let socket = socket_path("det");
        // One dispatcher serializes the identical jobs, so the first simulates
        // and the rest replay from the shared result cache.
        let handle = Server::start(ServeConfig {
            dispatchers: 1,
            executor_threads: 2,
            strict,
            ..ServeConfig::new(&socket)
        })
        .expect("start server");

        let spec = sweep();
        let outcomes: Vec<(JobOutcome, BTreeMap<u64, u64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let spec = spec.clone();
                    let socket = socket.clone();
                    scope.spawn(move || {
                        let per_run = Mutex::new(BTreeMap::new());
                        let outcome = Client::new(&socket)
                            .submit(spec, |event| {
                                if let Response::RunDone {
                                    run_index, digest, ..
                                } = event
                                {
                                    per_run.lock().unwrap().insert(*run_index, *digest);
                                }
                            })
                            .expect("submit");
                        let SweepOutcome::Done(done) = outcome else {
                            panic!("sweep did not complete: {outcome:?}");
                        };
                        (done, per_run.into_inner().unwrap())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let runs = spec.plan.runs;
        let reference = batch_digest(&spec, strict);
        for (done, per_run) in &outcomes {
            assert_eq!(
                done.digest, reference,
                "served digest differs from the batch executor's"
            );
            assert_eq!(done.runs, runs);
            assert_eq!(done.violations, outcomes[0].0.violations);
            assert_eq!(
                per_run.len(),
                runs as usize,
                "every run streamed a RunDone frame"
            );
            assert_eq!(
                per_run, &outcomes[0].1,
                "per-run digest streams disagree between clients"
            );
        }
        // Exactly one sweep simulated; the other N-1 replayed from the cache.
        let simulated: u64 = outcomes.iter().map(|(d, _)| d.completed).sum();
        let cached: u64 = outcomes.iter().map(|(d, _)| d.cached).sum();
        assert_eq!(simulated, runs, "exactly one sweep's runs simulated");
        assert_eq!(cached, (CLIENTS as u64 - 1) * runs, "N-1 sweeps cache-hit");

        let client = Client::new(&socket);
        let stats = client.stats().expect("stats");
        assert_eq!(stats.submitted, CLIENTS as u64);
        assert_eq!(stats.completed, CLIENTS as u64);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.runs_completed, runs);
        assert_eq!(stats.runs_cached, (CLIENTS as u64 - 1) * runs);
        assert!(
            stats.checkpoints_in_memory >= 1,
            "the shared warmup snapshot is resident"
        );

        client.shutdown().expect("shutdown");
        handle.join();
        assert!(!socket.exists(), "socket file removed after drain");
    }
}

/// Two concurrent sweeps that differ only in perturbation magnitude need the
/// same (unperturbed) warmup: exactly one of them simulates it — whether the
/// other waits on it or finds it stored — and both still match batch.
#[test]
fn sweeps_differing_only_in_perturbation_simulate_one_warmup() {
    for strict in [false, true] {
        let socket = socket_path("warm");
        let handle = Server::start(ServeConfig {
            dispatchers: 2,
            executor_threads: 1,
            strict,
            ..ServeConfig::new(&socket)
        })
        .expect("start server");

        let specs = [2u64, 8].map(|magnitude| {
            let mut spec = sweep();
            spec.config.perturbation_max_ns = magnitude;
            spec
        });
        std::thread::scope(|scope| {
            for spec in &specs {
                let socket = &socket;
                scope.spawn(move || {
                    let outcome = Client::new(socket).submit(spec.clone(), |_| {});
                    let SweepOutcome::Done(done) = outcome.expect("submit") else {
                        panic!("sweep did not complete");
                    };
                    assert_eq!(done.digest, batch_digest(spec, strict));
                });
            }
        });

        let client = Client::new(&socket);
        let stats = client.stats().expect("stats");
        assert_eq!(stats.coalesce_leaders, 1, "one warmup simulated");
        assert_eq!(stats.coalesce_followers, 1, "the other sweep shared it");
        client.shutdown().expect("shutdown");
        handle.join();
    }
}

/// Unknown jobs and malformed submissions earn typed errors, and `status` /
/// `cancel` reflect a completed job's terminal state.
#[test]
fn queries_and_rejections_are_typed() {
    let socket = socket_path("query");
    let handle = Server::start(ServeConfig {
        dispatchers: 1,
        ..ServeConfig::new(&socket)
    })
    .expect("start server");
    let client = Client::new(&socket);

    match client.status(999) {
        Err(ServeError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::UnknownJob),
        other => panic!("expected UnknownJob, got {other:?}"),
    }
    let mut bad = sweep();
    bad.workload = WorkloadSpec::Benchmark {
        name: "no-such-benchmark".into(),
        cpus: 4,
        seed: 1,
    };
    match client.submit(bad, |_| {}) {
        Err(ServeError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    let mut zero_runs = sweep();
    zero_runs.plan.runs = 0;
    match client.submit(zero_runs, |_| {}) {
        Err(ServeError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }

    let mut quick = sweep();
    quick.plan.warmup = 0;
    quick.plan.runs = 2;
    quick.plan.transactions = 15;
    let SweepOutcome::Done(done) = client.submit(quick, |_| {}).expect("submit") else {
        panic!("sweep did not complete");
    };
    let report = client.status(done.job).expect("status");
    assert_eq!(report.runs_done, done.runs);
    assert_eq!(report.digest, Some(done.digest));
    // Cancelling a terminal job reports no effect.
    assert!(!client.cancel(done.job).expect("cancel"));

    client.shutdown().expect("shutdown");
    handle.join();
}

/// A hostile `Submit` cannot wedge the daemon. A workload count beyond the
/// simulator's `u32` is a typed `BadRequest` (it once wrapped to 0 and
/// panicked the dispatcher), and so is a CPU count past the 64-node cap,
/// in the machine or in a benchmark workload (either once sized an
/// allocation straight from the wire); a sweep that panics anyway ends as `JobFailed`
/// with the dispatcher still serving; `stats` counts the failure and the
/// drain completes. Every call runs on a helper thread under a deadline, so
/// a wedged server fails the test instead of hanging it.
#[test]
fn a_hostile_submit_is_rejected_or_failed_never_wedged() {
    fn within_deadline<T: Send + 'static>(
        what: &str,
        call: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (done, answer) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let _ = done.send(call());
        });
        // Past the deadline the helper stays blocked on the wedged server
        // and is left behind; the test fails either way.
        let value = answer
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("{what}: no answer within 30 s, the daemon is wedged"));
        helper.join().expect("helper thread");
        value
    }
    let socket = socket_path("hostile");
    let handle = Server::start(ServeConfig {
        dispatchers: 1,
        ..ServeConfig::new(&socket)
    })
    .expect("start server");
    let submit = |spec: SweepSpec| {
        let socket = socket.clone();
        within_deadline("submit", move || Client::new(&socket).submit(spec, |_| {}))
    };
    let sharing = |threads, ops_per_txn, lock_every| SweepSpec {
        workload: WorkloadSpec::Sharing {
            threads,
            seed: 42,
            ops_per_txn,
            footprint_blocks: 2048,
            lock_every,
        },
        ..sweep()
    };

    let cpus = |machine: u64, workload: u64| SweepSpec {
        config: ConfigSpec {
            cpus: machine,
            ..sweep().config
        },
        workload: WorkloadSpec::Benchmark {
            name: "oltp".into(),
            cpus: workload,
            seed: 42,
        },
        ..sweep()
    };

    for spec in [
        sharing(4, 1 << 32, 10),
        sharing(4, 40, 1 << 32),
        cpus(65, 4),
        cpus(u64::MAX, 4),
        cpus(4, 65),
        cpus(4, u64::MAX),
    ] {
        match submit(spec) {
            Err(ServeError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }
    match submit(sharing(u64::MAX, 40, 10)) {
        Err(ServeError::JobFailed { message, .. }) => {
            assert!(message.contains("panicked"), "{message}");
        }
        other => panic!("expected JobFailed, got {other:?}"),
    }
    // The dispatcher survived: the next sweep still completes.
    let mut quick = sweep();
    quick.plan.runs = 2;
    assert!(matches!(submit(quick), Ok(SweepOutcome::Done(_))));

    let client = Client::new(&socket);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
    client.shutdown().expect("shutdown");
    within_deadline("drain", move || handle.join());
    assert!(!socket.exists(), "socket file removed after drain");
}

/// Graceful shutdown: a drain requested while a job is running lets that
/// job finish (its terminal frame still arrives) but rejects the next
/// submission with a typed `Draining` error frame.
#[test]
fn drain_finishes_inflight_jobs_and_rejects_new_ones() {
    let socket = socket_path("drain");
    let handle = Server::start(ServeConfig {
        dispatchers: 1,
        executor_threads: 2,
        ..ServeConfig::new(&socket)
    })
    .expect("start server");
    let client = Client::new(&socket);

    // Make the in-flight job chunky enough that the drain + probe complete
    // while it runs; correctness does not depend on the timing, only the
    // rejection's determinism does (drain is set before ShuttingDown is
    // acked, and the probe submits after the ack).
    let mut spec = sweep();
    spec.plan.runs = 6;
    spec.plan.transactions = 150;
    let probed = Mutex::new(None);
    let outcome = client
        .submit(spec, |event| {
            if matches!(event, Response::JobStarted { .. }) {
                // The dispatcher is now mid-job, so the server cannot reach
                // idle-and-drained before our probe lands.
                let shutdown_client = Client::new(&socket);
                shutdown_client.shutdown().expect("shutdown request");
                let probe = shutdown_client.submit(sweep(), |_| {});
                *probed.lock().unwrap() = Some(probe);
            }
        })
        .expect("in-flight job survives the drain");
    assert!(matches!(outcome, SweepOutcome::Done(_)));
    match probed.into_inner().unwrap().expect("probe ran") {
        Err(ServeError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::Draining),
        other => panic!("expected Draining rejection, got {other:?}"),
    }
    handle.join();
    assert!(!socket.exists(), "socket file removed after drain");
}

/// Queued-job cancellation: with the single dispatcher busy, a queued job
/// cancelled before dispatch terminates as `Cancelled` — and its submitter
/// receives the terminal frame.
#[test]
fn cancelling_a_queued_job_streams_a_terminal_frame() {
    let socket = socket_path("cancel");
    let handle = Server::start(ServeConfig {
        dispatchers: 1,
        executor_threads: 2,
        ..ServeConfig::new(&socket)
    })
    .expect("start server");
    let client = Client::new(&socket);

    let mut blocker = sweep();
    blocker.plan.runs = 4;
    blocker.plan.transactions = 150;
    let victim_outcome = Arc::new(Mutex::new(None));
    let outcome = std::thread::scope(|scope| {
        let victim_outcome = Arc::clone(&victim_outcome);
        let socket_for_victim = socket.clone();
        client.submit(blocker, move |event| {
            if !matches!(event, Response::JobStarted { .. }) {
                return;
            }
            // Dispatcher is busy with the blocker: submit a victim (it
            // queues), cancel it by id, and collect its terminal frame.
            let victim_outcome = Arc::clone(&victim_outcome);
            let victim_socket = socket_for_victim.clone();
            scope.spawn(move || {
                let c = Client::new(&victim_socket);
                let seen_id = Mutex::new(None);
                // A different seed keys a different job (no cache overlap
                // needed -- the point is queue-side cancellation).
                let mut victim = sweep();
                victim.plan.base_seed = 77;
                let result = c.submit(victim, |event| {
                    if let Response::Submitted { job } = event {
                        *seen_id.lock().unwrap() = Some(*job);
                    }
                });
                *victim_outcome.lock().unwrap() = Some(result);
            });
            // Wait for the victim to be queued, then cancel it.
            let c = Client::new(&socket_for_victim);
            loop {
                let stats = c.stats().expect("stats");
                if stats.queue_depth >= 1 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            // The victim is the most recent submission: id 2 (the blocker
            // is 1); ids ascend from 1 per server lifetime.
            assert!(c.cancel(2).expect("cancel"), "victim was not terminal");
        })
    })
    .expect("blocker completes");
    assert!(matches!(outcome, SweepOutcome::Done(_)));
    match victim_outcome.lock().unwrap().take().expect("victim ran") {
        Ok(SweepOutcome::Cancelled { job }) => assert_eq!(job, 2),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    let stats = Client::new(&socket).stats().expect("stats");
    assert_eq!(stats.cancelled, 1);
    Client::new(&socket).shutdown().expect("shutdown");
    handle.join();
}

/// The acceptor blocks in `accept` instead of polling, so a one-connection
/// request costs a round trip, not a poll interval: 50 sequential `stats`
/// calls stay well under 150 ms (a 5 ms poll alone would take 250 ms).
#[test]
fn sequential_requests_are_not_paced_by_the_acceptor() {
    let socket = socket_path("rtt");
    let handle = Server::start(ServeConfig::new(&socket)).expect("start server");
    let client = Client::new(&socket);
    client.stats().expect("warm-up request");
    let start = std::time::Instant::now();
    for _ in 0..50 {
        client.stats().expect("stats");
    }
    let elapsed = start.elapsed();
    client.shutdown().expect("shutdown");
    handle.join();
    assert!(
        elapsed < std::time::Duration::from_millis(150),
        "50 sequential stats requests took {elapsed:?}"
    );
}

/// Disk spill: a second server started on the same spill directories
/// replays the whole sweep from disk — same digest, all runs cached.
#[test]
fn spill_replays_results_across_a_server_restart() {
    for strict in [false, true] {
        let base = std::env::temp_dir().join(format!("mtv-spill-{}", std::process::id()));
        let ck_dir = base.join("ck");
        let rr_dir = base.join("rr");
        let _ = std::fs::remove_dir_all(&base);

        let config_for = |socket: &PathBuf| ServeConfig {
            dispatchers: 1,
            executor_threads: 2,
            strict,
            checkpoint_spill: Some(ck_dir.clone()),
            result_spill: Some(rr_dir.clone()),
            ..ServeConfig::new(socket)
        };

        let socket = socket_path("spill1");
        let handle = Server::start(config_for(&socket)).expect("start server");
        let client = Client::new(&socket);
        let SweepOutcome::Done(first) = client.submit(sweep(), |_| {}).expect("submit") else {
            panic!("sweep did not complete");
        };
        assert_eq!(first.cached, 0);
        assert_eq!(first.digest, batch_digest(&sweep(), strict));
        let stats = client.stats().expect("stats");
        assert_eq!(stats.results_on_disk, sweep().plan.runs);
        client.shutdown().expect("shutdown");
        handle.join();

        // A fresh server process-equivalent: new executor, new caches, same
        // spill directories.
        let socket = socket_path("spill2");
        let handle = Server::start(config_for(&socket)).expect("restart server");
        let client = Client::new(&socket);
        let SweepOutcome::Done(second) = client.submit(sweep(), |_| {}).expect("submit") else {
            panic!("sweep did not complete");
        };
        assert_eq!(second.digest, first.digest, "digest survives the restart");
        assert_eq!(
            second.cached,
            sweep().plan.runs,
            "every run replayed from the disk spill"
        );
        assert_eq!(second.completed, 0);
        client.shutdown().expect("shutdown");
        handle.join();
        let _ = std::fs::remove_dir_all(&base);
    }
}
