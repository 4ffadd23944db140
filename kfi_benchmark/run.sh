#!/usr/bin/env bash
# Builds the benchmark and the `repro_all` worker binary into one target
# directory, then runs the benchmark with the given arguments.
#
#   bash kfi_benchmark/run.sh --workload paper_cpu1 --seed 2003 --seconds 20 --trace 0
#
# Run from the repository root. The target directory is
# $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "kfi_benchmark/run.sh: run from the repository root (no Cargo.toml and crates/ here)" >&2
    exit 2
fi
# Build output goes to stderr so the result stays the last line of stdout.
cargo build --release --offline --quiet -p kfi-bench --bin repro_all 1>&2
cargo build --release --offline --quiet --manifest-path kfi_benchmark/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/kfi_benchmark" "$@"
