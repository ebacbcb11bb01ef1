#!/usr/bin/env bash
# Builds the served program and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash wirebench/run.sh --workload read|ingest|mixed|mine --seed N \
#       --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); results,
# spans and scratch inputs go to .bench_out. Build logs go to stderr; the
# last line of stdout is the result object.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/server || ! -f wirebench/Cargo.toml ]]; then
    echo "wirebench: run from the repository root (no Cargo workspace with crates/server here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin eba >&2
cargo build --release --offline --quiet --manifest-path wirebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/wirebench" --eba "$CARGO_TARGET_DIR/release/eba" --out .bench_out "$@"
