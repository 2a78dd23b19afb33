#!/usr/bin/env sh
# Tier-1 verification gate: everything a change must pass before merging.
# Runs fully offline (the workspace has no registry dependencies).
#
#   sh scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."

# One-home guard: the text rules of DESIGN.md §5 "One home each". Rules on
# who may call a method are clippy disallowed-methods (the clippy.toml files),
# checked right after it.
echo "==> one-home guard"
stray=$(
    # Hash constants live in mtvar_sim::hash (stats keeps its own SplitMix64).
    grep -rlni --include='*.rs' -e '0xBF58_476D_1CE4_E5B9' crates src tests examples |
        grep -v -x -e 'crates/sim/src/hash.rs' -e 'crates/stats/src/sampling/mod.rs' || true
    grep -rlni --include='*.rs' -e '0xCBF2_9CE4_8422_2325' crates src tests examples |
        grep -v -x -e 'crates/sim/src/hash.rs' || true
    grep -rln -e 'feature = "serde"' crates src tests examples Cargo.toml || true
    # Superseded entry points, copy-on-write schemes, snapshot formats and frames.
    grep -rln -e 'machine_fingerprint' -e 'run_space_from_checkpoint' -e 'sweep_checkpoints' \
        -e 'with_perturbation_seed' -e 'WarmupCoalescer' -e 'no-coalesce' -e 'CowLines' \
        -e 'SectionKind' -e 'SectionEncoder' -e 'SectionReader' -e 'decode_sectioned' \
        -e 'encode_snap_sectioned' -e 'MachineParts' -e 'update_both' \
        -e 'FrameKind' -e 'FrameSink' -e 'checksum_parts' -e 'write_vectored' \
        -e 'fn read_frame' -e 'fn write_frame' crates src tests examples || true
    # Only mtvar-core builds a CheckpointKey (benchmark/ does too: fields stay public).
    grep -rlnF -e 'CheckpointKey {' crates src tests examples | grep -v '^crates/core/' || true
    # restore_with_threads is a forward kept for benchmark/ alone.
    grep -rln -e 'restore_with_threads' -e 'note_region_fill' -e 'ResidencySeed' \
        crates src tests examples | grep -v -x -e 'crates/sim/src/machine.rs' || true
    # Timings live in benchmark/.
    ls BENCH_*.json examples/bench_* 2>/dev/null || true
    grep -rln -e 'CHUNK_UNMAPPED' crates src tests examples |
        grep -v -x -e 'crates/sim/src/mem/cow.rs' || true
    grep -rlnE -e 'extend_from_slice\(.*(RESULT|CHECKPOINT|REQUEST|RESPONSE)_MAGIC' \
        -e 'fn (un)?frame\([^&)]' crates src tests examples |
        grep -v -x -e 'crates/sim/src/checkpoint.rs' || true
    # impl_snap! writes the rest.
    grep -rln -e 'fn encode_snap' crates src tests examples |
        grep -v -x -e 'crates/sim/src/checkpoint.rs' -e 'crates/sim/src/mem/cache.rs' \
            -e 'crates/sim/src/mem/system.rs' -e 'crates/sim/src/check/mod.rs' \
            -e 'crates/sim/src/proc/predictor/mod.rs' || true
    # One exact sharer table tracks L2 residency for every protocol.
    grep -rlnw -e 'SnoopFilter' -e 'words_for' -e 'ScanScratch' -e 'BuildMix64' \
        -e 'Mix64Hasher' crates src tests examples || true
    # Lazily zeroed memory is the decode arena's miss path.
    grep -rln -e 'alloc_zeroed' crates | grep -v -x -e 'crates/sim/src/mem/arena.rs' || true
    grep -rlnw -e 'fn zeroed_lines' crates src tests examples |
        grep -v -x -e 'crates/sim/src/mem/arena.rs' || true
    # The acceptor blocks in accept; signals belong to the mtvar binary.
    grep -ln -e 'thread::sleep' -e 'mod signal' crates/serve/src/server.rs || true
)
if [ -n "$stray" ]; then
    echo "outside its one home (DESIGN.md §5):" >&2
    echo "$stray" >&2
    exit 1
fi

# clippy resolves a disallowed-methods path only within crates it knows, so
# a misspelled crate segment switches a rule off without a word; and a
# crate's own clippy.toml replaces the root one, so mtvar-core's must repeat
# every root rule. Check both on the text of the files.
echo "==> clippy.toml rules: known crates, root rules repeated in core"
crates=" std $(cargo metadata --offline --no-deps --format-version 1 |
    grep -o '"kind":\["lib"\][^}]*"name":"[^"]*"' | sed 's/.*"name":"//; s/"$//' | tr '\n' ' ')"
rule_paths() { sed -n 's/.*path = "\([^"]*\)".*/\1/p' "$1"; }
for toml in clippy.toml crates/*/clippy.toml; do
    for path in $(rule_paths "$toml"); do
        case "$crates" in *" ${path%%::*} "*) ;; *)
            echo "$toml: $path names neither std nor a workspace library" >&2
            exit 1
            ;;
        esac
    done
done
for path in $(rule_paths clippy.toml); do
    if ! rule_paths crates/core/clippy.toml | grep -qxF "$path"; then
        echo "crates/core/clippy.toml replaces the root file but lacks $path" >&2
        exit 1
    fi
done

echo "==> cargo fmt --check"
cargo fmt --all --check

# A disallowed-methods path that does not resolve only warns: fail on it,
# so a rename cannot switch a rule off.
echo "==> cargo clippy -- -D warnings"
clippy=$(cargo clippy --workspace --all-targets --offline -- -D warnings 2>&1) && ok=1 || ok=0
printf '%s\n' "$clippy"
case "$clippy" in *'does not refer to a reachable function'*)
    echo "a clippy.toml path does not resolve, so its rule is off" >&2
    exit 1
    ;;
esac
[ "$ok" = 1 ]

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

# Scaling gate (workspace run): snooping-vs-directory in lockstep, probe
# counts included, the directory-vs-oracle diff under the invariant monitor
# (coherence_diff), and the sharer table against an exact model at 1/17/64
# nodes (proptests); the golden (+dir64) and checkpoint suites pin 64-CPU
# directory machines there and in release below.
#
# Kernel-parity gate: the optimized event queue, sharer table and
# directory transport must reproduce every golden digest and checkpoint
# fingerprint in release mode, where the sharer scan's debug differential
# against full broadcast is compiled out and the sharer scan runs alone.
# The workspace run covered the same suites (including the +dir64 digests
# and the 64-CPU directory checkpoint case) with the differential asserts
# active.
echo "==> kernel parity: golden digests, release (sharer scan alone)"
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

echo "==> cargo doc --no-deps (rustdoc must be warning-free)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --quiet

echo "==> verify OK"
