#!/bin/sh
# Builds the benchmark offline and runs it from the repository root.
#
#   sh benchmark/run.sh [--seed N]             all workloads, untraced then traced
#   sh benchmark/run.sh --agree [--seed N]     two sets back to back, compared
#   sh benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                              one run; its last line is one JSON object
set -eu
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
# A relative CARGO_TARGET_DIR is relative to where cargo is started: here.
target=${CARGO_TARGET_DIR:-benchmark/target}
cargo build --release --offline --quiet --manifest-path "$manifest"
exec "$target/release/mtvar-benchmark" "$@"
