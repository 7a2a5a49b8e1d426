#!/usr/bin/env bash
# Builds padsimd and padbench from source, then runs padbench with the
# given arguments. Run from the repository root:
#
#   bash padbench/run.sh --workload sim-sweep --seed 42 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line on stdout is padbench's
# JSON result. Without the repository's crates next to this directory
# the build fails and the script exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-padbench/target}"
cargo build --release --offline --quiet -p pad-daemon --bin padsimd >&2
cargo build --release --offline --quiet --manifest-path padbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/padbench" "$@"
