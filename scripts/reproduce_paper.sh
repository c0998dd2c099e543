#!/usr/bin/env bash
# Full-fidelity reproduction of the paper's evaluation: Table I scale
# (97/54 nodes, 300/200 h) with 50 runs per data point, as in Section V.
# This is hours of CPU; the default bench invocation (scale 0.3, 3 runs)
# reproduces the same shapes in minutes.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD:-build}
OUT=${OUT:-paper_repro_$(date +%Y%m%d_%H%M%S)}
mkdir -p "$OUT"

cmake -B "$BUILD" -G Ninja
cmake --build "$BUILD"

export PHOTODTN_BENCH_SCALE=1.0
export PHOTODTN_BENCH_RUNS=${PHOTODTN_BENCH_RUNS:-50}
export PHOTODTN_BENCH_CSV="$OUT"

# The figure benches and the ablation; bench_micro is not a paper figure.
for b in "$BUILD"/bench/bench_fig* "$BUILD"/bench/bench_ablation; do
  name=$(basename "$b")
  echo "=== $name (scale=1.0, runs=$PHOTODTN_BENCH_RUNS) ==="
  "$b" | tee "$OUT/$name.txt"
done

echo "All outputs and CSVs in $OUT/"
