#!/usr/bin/env bash
# Perf regression gate: measure the given suite (default: smoke) with
# the tclose-perf harness and compare it against the committed baseline
# under benchmarks/. Exits nonzero when any case regresses beyond the
# noise-aware threshold (1.25x on median, confirmed on min-of-runs) or
# disappears from the suite.
#
# Writes BENCH_<suite>.json and PERF_GATE_<suite>.txt to the repository
# root (CI uploads both as artifacts). After an intentional perf change,
# refresh the baseline with:
#
#   cargo run --release -p tclose-perf -- bless --suite smoke
#
# Usage: scripts/perf_gate.sh [suite]   (from the repository root)
set -euo pipefail

suite="${1:-smoke}"
baseline="benchmarks/baseline_${suite}.json"
bin="target/release/tclose-perf"

if [ ! -x "$bin" ]; then
    cargo build --release -p tclose-perf
fi

if [ ! -f "$baseline" ]; then
    echo "missing committed baseline $baseline" >&2
    echo "create one with: $bin bless --suite $suite" >&2
    exit 1
fi

"$bin" gate --suite "$suite" --baseline "$baseline"
