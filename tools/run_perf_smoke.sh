#!/usr/bin/env bash
# Perf smoke test: build Release, run the four perf benches, and hold each
# fresh report to its committed baseline (BENCH_*.json at the repo root)
# with tools/bench_gate. Every rule lives in the baselines, declared per
# point by the bench that measures it (schema: src/common/json_writer.h):
# a 20% band on every throughput point, exact equality on the fleet's
# deterministic outcome points, and the limits on the overhead ratios
# (disabled observability < 2%, sensing < 10%, learned governors < 10%)
# and the absolute floors (managed loop >= 3.2M epochs/s at 4 apps,
# what-if snapshot speedup >= 10x).
#
# bench_sim_throughput runs twice — plain and with --fault-injector (a
# FaultInjector attached with no points armed) — and both runs are gated
# against the same baseline, pinning the fault substrate's
# compiled-in-but-disabled cost at ~zero. Its --scalar-check mode
# (vectorized vs scalar vs incremental kernels, bitwise) runs first: a
# divergence there is a correctness bug, and perf numbers from a wrong
# kernel are meaningless. bench_fleet exits non-zero when the canonical
# fleet scenario breaks job conservation, for the same reason.
#
# Usage: tools/run_perf_smoke.sh [build-dir]
#
# The band is deliberately loose — CI machines are noisy — so a failure
# here means a real algorithmic regression (e.g. reintroducing per-epoch
# allocations or exact solves on the hot path), not jitter. Refresh a
# baseline by running its bench from the repo root on a quiet machine,
# e.g. ./<build-dir>/bench/bench_serve --min-seconds=1. If the machine
# shows run-to-run swings approaching the band (the exact-MRC points are
# the most boost-state-sensitive), run the bench a few times and commit
# the per-point MINIMUM as the baseline — a conservative baseline still
# catches algorithmic regressions, while a lucky fast run would turn the
# gate into a frequency-governor test.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-perf}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" --target bench_sim_throughput bench_serve \
  bench_governor bench_fleet bench_gate -j "$(nproc)"

FRESH="$(mktemp -d /tmp/run_perf_smoke.XXXXXX)"
trap 'rm -rf "$FRESH"' EXIT
BENCH="$BUILD_DIR/bench"
"$BENCH/bench_sim_throughput" --scalar-check
"$BENCH/bench_sim_throughput" --json="$FRESH/sim_plain.json" --min-seconds=0.5
"$BENCH/bench_sim_throughput" --json="$FRESH/sim_injector.json" \
  --min-seconds=0.5 --fault-injector
"$BENCH/bench_serve" --json="$FRESH/serve.json" --min-seconds=0.5
"$BENCH/bench_governor" --json="$FRESH/governor.json" --min-seconds=0.5
"$BENCH/bench_fleet" --json="$FRESH/fleet.json" --min-seconds=0.5

fail=0
gate() {  # gate BASELINE FRESH
  echo "run_perf_smoke: $1 vs $(basename "$2")"
  "$BUILD_DIR/tools/bench_gate" "$1" "$2" || fail=1
}
gate BENCH_sim_throughput.json "$FRESH/sim_plain.json"
gate BENCH_sim_throughput.json "$FRESH/sim_injector.json"
gate BENCH_serve.json "$FRESH/serve.json"
gate BENCH_governor.json "$FRESH/governor.json"
gate BENCH_fleet.json "$FRESH/fleet.json"

if [[ "$fail" != 0 ]]; then
  echo "run_perf_smoke: REGRESSION DETECTED"
  exit 1
fi
echo "run_perf_smoke: every point passes its gate"
