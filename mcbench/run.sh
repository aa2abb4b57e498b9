#!/usr/bin/env bash
# Builds the server under test and the benchmark, then runs one workload:
#
#   bash mcbench/run.sh --workload get-zipf --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Both builds share CARGO_TARGET_DIR
# (default: the repository's `target/`).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p bench --bin mcached
cargo build --release --offline --quiet --manifest-path mcbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/mcbench" "$@"
