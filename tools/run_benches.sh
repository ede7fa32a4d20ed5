#!/usr/bin/env sh
# Regenerates the two bench JSON artifacts (schema atm.bench.v1):
#   BENCH_kernels.json — google-benchmark microbench suite (bench_perf_micro)
#   BENCH_fleet.json   — fleet-executor scaling rows (bench_fleet_scaling)
#
# Usage: tools/run_benches.sh [build-dir] [out-dir]
#   build-dir  defaults to ./build (must already be configured; a Release
#              build gives the numbers quoted in README/DESIGN)
#   out-dir    defaults to the current directory
#
# Knobs (forwarded to the benches):
#   ATM_BENCH_MIN_TIME  --benchmark_min_time value (default 0.05; newer
#                       google-benchmark also accepts suffixed forms
#                       like 0.01s)
#   ATM_BOXES / ATM_MAX_JOBS / ATM_SEED  fleet-scaling scale knobs
#   ATM_PAPER_SCALE=1   also time the paper-scale fleet (6000 boxes /
#                       ~80K VMs / 7 days, jobs 1 and one per hardware
#                       thread) and record the rows under "paper" in
#                       BENCH_fleet.json — minutes of work, so off by
#                       default; without it the "paper" section already
#                       in out-dir/BENCH_fleet.json is kept unchanged
#   ATM_PAPER_BOXES     paper-scale box count override
#   ATM_BENCH_MIN_SPEEDUP  override the scaling-assertion floor (0 = off)
set -eu

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"
MIN_TIME="${ATM_BENCH_MIN_TIME:-0.05}"
mkdir -p "$OUT_DIR"

cmake --build "$BUILD_DIR" --target bench_perf_micro bench_fleet_scaling

# Our own build type (google-benchmark's "library_build_type" describes
# the benchmark library, not this code).
BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$BUILD_DIR/CMakeCache.txt")

"$BUILD_DIR/bench/bench_perf_micro" \
    --benchmark_context="atm_build_type=${BUILD_TYPE:-unset}" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_out="$OUT_DIR/BENCH_kernels.json" \
    --benchmark_out_format=json

ATM_BENCH_JSON="$OUT_DIR/BENCH_fleet.json" "$BUILD_DIR/bench/bench_fleet_scaling"

echo "bench artifacts:"
ls -l "$OUT_DIR/BENCH_kernels.json" "$OUT_DIR/BENCH_fleet.json"
