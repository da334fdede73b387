#!/usr/bin/env bash
# Pre-merge gate for this repository (see ROADMAP.md). Runs the tier-1
# release build, then the full `cargo xtask ci` chain:
#   fmt --check -> clippy (-D warnings, unwrap/expect stay advisory)
#   -> xtask lint (panic-path / lock-discipline / error-hygiene rules on
#      the token stream analyze also reads)
#   -> xtask analyze (lock-order graph + instrumentation coverage)
#   -> cargo test --workspace -> fault enumeration -> chaos soak
#   -> obskit snapshot + lockcheck witness validation
#   -> bench-gate perf baselines (checked-in twins, fast live subset,
#      streaming-series invariants)
# Machine-readable lint/analyze/bench-gate reports are archived under
# target/ci-artifacts/ regardless of pass/fail, so a red run still
# leaves its findings behind for tooling.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release

mkdir -p target/ci-artifacts
cargo xtask lint --json > target/ci-artifacts/lint.json || true
cargo xtask analyze --json > target/ci-artifacts/analyze.json || true
cargo xtask bench-gate --json > target/ci-artifacts/bench-gate.json || true

cargo xtask ci
