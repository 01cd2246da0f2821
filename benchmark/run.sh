#!/usr/bin/env bash
# Builds the `rvz` release binary and the benchmark program from source,
# then runs one benchmark workload.
#
#   bash benchmark/run.sh --workload serve_hot_orbits --seed 1 --seconds 20 --trace 0
#
# Workloads: serve_hot_orbits, serve_cold_misses, sweep_boundary_twins.
# The last stdout line is the JSON result; build output goes to stderr.
# Both builds share CARGO_TARGET_DIR (default: .bench_build at the root).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --bin rvz >&2
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml >&2
RVZ_BIN="$CARGO_TARGET_DIR/release/rvz" exec "$CARGO_TARGET_DIR/release/rvz-e2e-bench" "$@"
