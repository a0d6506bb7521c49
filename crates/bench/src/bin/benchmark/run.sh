#!/usr/bin/env bash
# Build the benchmark and the `repro` and `serve` binaries it drives, then
# run it with the given flags. Run from the repository root:
#
#   bash crates/bench/src/bin/benchmark/run.sh --workload repro_cold --seed 1
#
# Builds go to $CARGO_TARGET_DIR (default .bench_build), shared by both
# workspaces so the benchmark finds the binaries beside itself.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p bench --bin repro --bin serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
