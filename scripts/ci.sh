#!/usr/bin/env bash
# Pre-merge gate for this repository (see ROADMAP.md). Runs the tier-1
# release build, then the full `cargo xtask ci` chain:
#   fmt --check -> clippy (-D warnings, unwrap/expect stay advisory)
#   -> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)
#   -> xtask lint (panic-path / lock-discipline / error-hygiene rules on
#      the token stream analyze also reads)
#   -> xtask analyze (lock-order graph + instrumentation coverage)
#   -> cargo test --workspace, then again with RUST_TEST_THREADS=1 (each
#      test's outcome must agree) -> fault enumeration -> chaos soak
#   -> obskit snapshot + lockcheck witness validation
#   -> bench-gate perf baselines (fast live subset re-measured into
#      target/ci-bench-results against bench_baselines/ci,
#      streaming-series invariants)
# bench_results/*.json are local run output, not tracked: the blessed
# copies live only under bench_baselines/.
# Machine-readable lint/analyze/bench-gate reports are archived under
# target/ci-artifacts/ regardless of pass/fail, so a red run still
# leaves its findings behind for tooling; the bench-gate report is
# taken after the gate, over the fast subset it just measured.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release

mkdir -p target/ci-artifacts
cargo xtask lint --json > target/ci-artifacts/lint.json || true
cargo xtask analyze --json > target/ci-artifacts/analyze.json || true

status=0
cargo xtask ci || status=$?
cargo xtask bench-gate --json --results target/ci-bench-results \
    --baselines bench_baselines/ci > target/ci-artifacts/bench-gate.json || true
exit "$status"
