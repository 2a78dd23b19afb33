#!/usr/bin/env sh
# Tier-1 verification gate: everything a change must pass before merging.
# Runs fully offline (the workspace has no registry dependencies).
#
#   sh scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."

# One-home guard: the hash and mixer constants live in mtvar_sim::hash (the
# dependency-free stats crate keeps its own SplitMix64), the serde feature is
# gone, snapshots are the only checkpoint, and warm_checkpoint over the
# store's single-flight is the only warmup (so nothing outside mtvar-core
# rebuilds a CheckpointKey). Evidence has one home per kind too: timings in
# benchmark/ (BENCHMARK.json metric names), identities in tests/, paper and
# methodology tables in crates/bench/benches/ — so no BENCH_*.json record or
# examples/bench_* stopwatch comes back — and snapshot decode is
# single-threaded (restore_with_threads is a forward kept in machine.rs for
# the frozen benchmark/ alone). Copy-on-write has one home as well:
# mem::cow's chunk map (found by its sentinel constant) is the only way an
# array is shared, so whole-array Arc::make_mut and the CowLines seeded clone
# stay gone. Threads have one home each in mtvar-core: the executor's
# persistent workers are started in pool.rs and a sweep's warm-ahead chain
# thread in timesample.rs, so no other non-test code there spawns or scopes
# a thread; and the warmup body — run to the position, normalize_measurement,
# snapshot — is WarmChain::warm in runspace.rs, once, shared by
# warm_checkpoint and the sweep. Templates have one home too: the launch
# body (Executor::launch_arms) decodes a sweep's templates and WarmChain::warm
# a chain's restores, and nothing else calls restore_template; the one
# template that is not decoded is the warm chain's live machine, shared and
# forked, so outside the simulator crate no non-test code but WarmChain's
# impl calls Machine::share; an
# experiment's arms launch as one batch, so non-test experiment.rs never
# calls run_space per arm. Snapshots have one frame and one decode path: the
# sectioned format (its section types, sectioned encode/decode, the
# MachineParts split, the fused update_both hash) stays gone. There is one
# frame, on disk and on the wire: checkpoint::frame / unframe write and read
# checkpoint files, result records and serve messages alike, so no magic is
# framed by hand and no frame/unframe is defined outside
# crates/sim/src/checkpoint.rs, and the wire's own frame (its kind byte,
# frame sink, split checksum, vectored write, read_frame/write_frame) stays
# gone. Tagged encodings have one home:
# impl_snap! derives every enum and newtype codec, so `fn encode_snap` is
# written out only in checkpoint.rs and the four types with real format
# logic (CacheArray, MemorySystem, InvariantMonitor, Counter2); and the
# daemon's acceptor blocks in accept, woken by the drain, with signal
# handling in the mtvar binary, so non-test server.rs neither sleeps nor
# holds a signal module. A second copy or a revived entry point anywhere
# else fails here, before any build.
echo "==> one-home guard: hash constants, serde feature, launch pipeline entry points, evidence, copy-on-write, threads, warmup body, templates, live template sharing, experiment batch, one frame, tagged encodings, blocking accept"
stray=$(
    grep -rlni --include='*.rs' -e '0xBF58_476D_1CE4_E5B9' crates src tests examples |
        grep -v -x -e 'crates/sim/src/hash.rs' -e 'crates/stats/src/sampling/mod.rs' || true
    grep -rlni --include='*.rs' -e '0xCBF2_9CE4_8422_2325' crates src tests examples |
        grep -v -x -e 'crates/sim/src/hash.rs' || true
    grep -rln -e 'feature = "serde"' crates src tests examples Cargo.toml || true
    grep -rln -e 'machine_fingerprint' -e 'run_space_from_checkpoint' -e 'sweep_checkpoints' \
        -e 'with_perturbation_seed' -e 'WarmupCoalescer' -e 'no-coalesce' \
        crates src tests examples || true
    grep -rlnF -e 'CheckpointKey {' crates src tests examples | grep -v '^crates/core/' || true
    grep -rln -e 'restore_with_threads' -e 'note_region_fill' -e 'ResidencySeed' \
        crates src tests examples | grep -v -x -e 'crates/sim/src/machine.rs' || true
    ls BENCH_*.json examples/bench_* 2>/dev/null || true
    grep -rln -e 'make_mut' -e 'CowLines' crates/sim/src || true
    grep -rln -e 'CHUNK_UNMAPPED' crates src tests examples |
        grep -v -x -e 'crates/sim/src/mem/cow.rs' || true
    for f in crates/core/src/*.rs; do
        # Non-test code only: everything above the file's test module.
        sed '/^#\[cfg(test)\]/,$d' "$f" |
            grep -q -e 'thread::scope' -e 'thread::spawn' -e 'thread::Builder' &&
            echo "$f"
    done | grep -v -x -e 'crates/core/src/pool.rs' -e 'crates/core/src/timesample.rs' || true
    grep -rln -e 'normalize_measurement' crates src tests examples |
        grep -v -x -e 'crates/sim/src/machine.rs' -e 'crates/core/src/runspace.rs' || true
    [ "$(grep -c -e 'normalize_measurement()' crates/core/src/runspace.rs)" -eq 1 ] ||
        echo "crates/core/src/runspace.rs: the warmup body must appear exactly once"
    grep -rln -e 'restore_template' crates src tests examples |
        grep -v -x -e 'crates/core/src/runspace.rs' || true
    # The functions calling restore_template( in non-test runspace.rs.
    callers=$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/runspace.rs |
        awk '/^[[:space:]]*(pub(\(crate\))?[[:space:]]+)?fn [a-z_]+/ {
                 match($0, /fn [a-z_]+/); f = substr($0, RSTART + 3, RLENGTH - 3)
             }
             /restore_template\(/ { print f }' | sort | tr '\n' ' ')
    [ "$callers" = "launch_arms warm " ] ||
        echo "crates/core/src/runspace.rs: restore_template( called from: $callers(want the launch body and WarmChain::warm)"
    # Non-test code calling .share() outside crates/sim, with the impl
    # block it sits in: every one must be WarmChain's.
    for f in $(grep -rl --include='*.rs' -e '\.share()' crates src examples |
        grep -v -e '^crates/sim/' -e '/tests/' -e '/benches/'); do
        sed '/^#\[cfg(test)\]/,$d' "$f" |
            awk -v f="$f" '/^impl/ { block = $0 }
                /\.share\(\)/ && block !~ /WarmChain/ {
                    print f ": Machine::share called outside WarmChain: " $0
                }'
    done
    if sed '/^#\[cfg(test)\]/,$d' crates/core/src/experiment.rs | grep -q -e 'run_space('; then
        echo "crates/core/src/experiment.rs: an experiment's arms launch as one batch, not one run_space per arm"
    fi
    grep -rln -e 'SectionKind' -e 'SectionEncoder' -e 'SectionReader' -e 'decode_sectioned' \
        -e 'encode_snap_sectioned' -e 'MachineParts' -e 'update_both' \
        crates src tests examples || true
    grep -rlnE -e 'extend_from_slice\(.*(RESULT|CHECKPOINT|REQUEST|RESPONSE)_MAGIC' \
        crates src tests examples | grep -v -x -e 'crates/sim/src/checkpoint.rs' || true
    grep -rln -e 'FrameKind' -e 'FrameSink' -e 'checksum_parts' -e 'write_vectored' \
        -e 'fn read_frame' -e 'fn write_frame' crates src tests examples || true
    # Free functions only: `SamplingStudy::frame(&self)` names something else.
    grep -rlnE -e 'fn (un)?frame\([^&)]' crates src tests examples |
        grep -v -x -e 'crates/sim/src/checkpoint.rs' || true
    grep -rln -e 'fn encode_snap' crates src tests examples |
        grep -v -x -e 'crates/sim/src/checkpoint.rs' -e 'crates/sim/src/mem/cache.rs' \
            -e 'crates/sim/src/mem/system.rs' -e 'crates/sim/src/check/mod.rs' \
            -e 'crates/sim/src/proc/predictor/mod.rs' || true
    if sed '/^#\[cfg(test)\]/,$d' crates/serve/src/server.rs |
        grep -q -e 'thread::sleep' -e 'mod signal'; then
        echo "crates/serve/src/server.rs: the acceptor blocks in accept and signal handling lives in the mtvar binary"
    fi
)
if [ -n "$stray" ]; then
    echo "hash constant, serde feature, superseded entry point, retired bench record, copy-on-write mechanism, thread, warmup body, template decode, per-arm launch, second frame, hand-written codec or accept-path code outside its one home:" >&2
    echo "$stray" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release --offline

# Every test target of every crate, root package included, in debug: the
# one debug run of each suite named below (oracle, proptests, statistical
# self-checks, fuzz suites, checkpoint identity, executor violations, served
# determinism, ...). Suites that must also hold with the invariant monitor
# on check both arms in one process (MachineConfig::with_invariant_checks,
# or a strict executor). The gates after it add only release builds and the
# end-to-end service smoke.
echo "==> cargo test -q --workspace"
cargo test -q --workspace --offline

# Scaling gate (workspace run): snooping-vs-directory in lockstep, the
# directory-vs-oracle diff under the invariant monitor (coherence_diff), and
# the snoop filter against a naive residency model at 8/17/64/128 nodes
# (proptests); the golden (+dir64) and checkpoint suites pin 64-CPU
# directory machines there and in release below.
#
# Kernel-parity gate: the optimized event queue, snoop filter, and
# directory transport must reproduce every golden digest and checkpoint
# fingerprint in release mode, where the filter's and directory's debug
# differentials against full broadcast are compiled out and the filtered
# paths run alone. The workspace run covered the same suites (including
# the +dir64 digests and the 64-CPU directory checkpoint case) with the
# differential asserts active.
echo "==> kernel parity: golden digests, release (pure filtered snoop path)"
cargo test -q --offline --release --test golden_runs

echo "==> kernel parity: checkpoint bit-identity, release"
cargo test -q --offline --release --test checkpoint_identity

# Snapshot gate: the checkpoint frame and copy-on-write fork path. Decode
# fuzz (workspace run, plain and monitored frames) proves every frame
# mutation is an error, never a panic; the bounded-retry suite
# (mtvar-core's checkpoint:: tests, workspace run) pins the corrupt-spill
# fallback (including stale version-2 files) in the checkpoint store; the
# alloc-budget suite (release, so capacity seeds face real payload sizes)
# pins encode-fits-seed and fork-vs-restore cost.
echo "==> snapshot gate: restore/fork allocation budget, release"
cargo test -q --offline --release --test alloc_steady_state

# Pipeline gate: a checkpoint sweep warms on a chain thread one position
# ahead of the forks and keeps its warmed machine live between positions;
# studies and stored snapshots must not depend on thread count, on what the
# store already held, or on whether a position was reached live or by
# restore, and a failure must return the earliest position's error with the
# chain thread gone. Release, so the 16-CPU and 64-CPU chains run at size.
echo "==> pipeline gate: sweep thread-count/store invariance, failure order, release"
cargo test -q --offline --release --test sweep_pipeline

# Batch gate: an experiment's arms warm side by side and fan out as one
# batch; the report must equal the arm-by-arm one at every thread count,
# with and without a store, equal arms must simulate once on a cached
# executor, and the error returned must be the one the arm-by-arm reading
# meets first.
echo "==> batch gate: experiment arms as one batch, release"
cargo test -q --offline --release --test experiment_batch

# Service gate: the run-space daemon. Frame fuzz (workspace run) proves
# every mutated or hostile request/response frame errors without panicking
# or allocating attacker-sized buffers; the determinism suite (workspace
# run, relaxed and strict servers) proves N concurrent clients get
# bit-identical digests with N-1 sweeps cache-hit, drains reject new
# submissions with typed errors, a hostile submit is rejected or failed but
# never wedges the daemon, and disk spill replays across a restart; the
# smoke run pins the headline claim end to end — a digest streamed through
# the socket equals the batch executor's for the same sweep.
echo "==> service gate: daemon + CLI smoke (served digest == batch digest)"
cargo build -q --release --offline -p mtvar-serve --bin mtvar
MTVAR_BIN=target/release/mtvar
SOCK="${TMPDIR:-/tmp}/mtvar-verify-$$.sock"
SWEEP="--cpus 4 --runs 4 --transactions 30 --warmup 20 --wl-threads 4"
"$MTVAR_BIN" serve --socket "$SOCK" --dispatchers 2 --threads 2 &
SERVE_PID=$!
i=0
while [ ! -S "$SOCK" ] && [ "$i" -lt 100 ]; do sleep 0.05; i=$((i + 1)); done
SERVED=$("$MTVAR_BIN" submit --socket "$SOCK" --quiet $SWEEP | grep '^digest:')
BATCH=$("$MTVAR_BIN" batch $SWEEP | grep '^digest:')
if [ "$SERVED" != "$BATCH" ]; then
    echo "served $SERVED does not match batch $BATCH" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
"$MTVAR_BIN" stats --socket "$SOCK" > /dev/null
"$MTVAR_BIN" shutdown --socket "$SOCK" > /dev/null
wait "$SERVE_PID"
echo "    served $SERVED == batch digest"

# The sampling study's asserts (every estimator's 95% CI contains the
# full-run mean at <= 25% of its cost) only execute when the bench runs.
echo "==> sampling estimators: full-size study vs ground truth (bench asserts)"
cargo bench --offline -p mtvar-bench --bench sampling_estimators

# The stand-alone benchmark package builds against the library crates by
# path: a library API change that breaks it must fail here, not in the
# pipeline that runs it. Building may not touch its lock file or sources.
echo "==> stand-alone benchmark: build, unit tests, tree untouched"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml
git diff --exit-code -- benchmark BENCHMARK.json

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc --no-deps (rustdoc must be warning-free)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --quiet

echo "==> verify OK"
