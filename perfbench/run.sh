#!/usr/bin/env bash
# Builds the program under test (the `pv3t1d` binary) and the benchmark
# from source, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. Build output goes to stderr; the last
# stdout line is the result JSON.
set -euo pipefail
export CARGO_NET_OFFLINE=true
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p pv3t1d-serve --bin pv3t1d >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --pv3t1d "$CARGO_TARGET_DIR/release/pv3t1d" "$@"
