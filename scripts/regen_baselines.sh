#!/usr/bin/env bash
# Runs every gated bench and writes its run report, by default into the
# committed baselines in bench/baselines/.
#
# This script holds the one list of gated benches and their arguments.
# CI's perf-smoke job runs it into a scratch directory and diffs each
# report it wrote against bench/baselines/, so adding a bench here gates
# it (commit its baseline alongside). Trial and thread counts are part
# of the workload: the gate compares per-rep counter deltas. Counters are
# seed-deterministic, so two runs of this script on any machine produce
# identical tracked metrics (wall-time fields differ; gridsec-benchdiff
# never gates on them).
#
# Run it with the default OUT_DIR after a change that intentionally moves
# gated counters (pivot counts, allocation totals, B&B nodes, ...), then
# review the diff and commit bench/baselines/.
#
# Usage: scripts/regen_baselines.sh [BUILD_DIR] [OUT_DIR]
#        (defaults: build, bench/baselines)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench/baselines}"

if [ ! -d "${BUILD_DIR}/bench" ]; then
  echo "regen_baselines: '${BUILD_DIR}/bench' not found — build first:" >&2
  echo "  cmake -B ${BUILD_DIR} && cmake --build ${BUILD_DIR}" >&2
  exit 2
fi
mkdir -p "${OUT_DIR}"

run() {
  local tool="$1"
  shift
  echo "regen_baselines: ${tool} $*"
  "${BUILD_DIR}/bench/${tool}" "$@" \
    --json="${OUT_DIR}/BENCH_${tool}.json" > /dev/null
  # Every report must parse as a valid harness-v2 report before it is
  # kept or gated.
  "${BUILD_DIR}/tools/gridsec-benchdiff" --validate \
    "${OUT_DIR}/BENCH_${tool}.json"
}

# --threads=2 pins the thread-dependent counters of the sim benches.
run micro_solvers --trials=5
run fig2_interdependent --trials=5 --threads=2
run fig6_collaboration --trials=3 --threads=2
run fig4_impact_matrix --trials=5
run fig5_defense_effectiveness --trials=3 --threads=2
run ext_multiperiod
run ext_learning

echo "regen_baselines: done — reports in ${OUT_DIR}/."
