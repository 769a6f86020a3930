#!/usr/bin/env bash
# Runs the 21 benches at their defaults, one after another, and writes one
# JSON file with each bench's wall seconds and their total.
#
# Each bench writes its own run report (--json), and its wall seconds are
# that report's manifest.wall_time_seconds: the bench's time from start to
# report, without process start-up. Bench output is discarded unless the
# bench fails.
#
# EXPERIMENTS.md quotes the one-core suite time: pin the script, and with
# it every bench, to one core, e.g.
#
#   taskset -c 0 scripts/bench_suite.sh build BENCH_suite.json
#
# Usage: scripts/bench_suite.sh [BUILD_DIR] [OUT_JSON]
#        (defaults: build, BENCH_suite.json)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_suite.json}"

BENCHES=(
  fig1_model_dump fig2_interdependent fig3_adversary_noise
  fig4_anticipated_vs_observed fig4_impact_matrix fig5_defense_effectiveness
  fig6_collaboration fig7_collaboration_actors
  ext_deception ext_multiperiod ext_stackelberg ext_topology_vs_impact
  ext_scarcity ext_layers ext_learning ext_contagion ext_elasticity
  ext_ownership ext_dcopf
  micro_solvers micro_ablation
)

for b in "${BENCHES[@]}"; do
  if [ ! -x "${BUILD_DIR}/bench/${b}" ]; then
    echo "bench_suite: '${BUILD_DIR}/bench/${b}' not found — build first:" >&2
    echo "  cmake -B ${BUILD_DIR} -DCMAKE_BUILD_TYPE=Release" \
      "&& cmake --build ${BUILD_DIR}" >&2
    exit 2
  fi
done

REPORTS="$(mktemp -d)"
trap 'rm -rf "${REPORTS}"' EXIT

for b in "${BENCHES[@]}"; do
  if ! "${BUILD_DIR}/bench/${b}" --json="${REPORTS}/${b}.json" \
      > /dev/null 2> "${REPORTS}/${b}.err"; then
    cat "${REPORTS}/${b}.err" >&2
    echo "bench_suite: ${b} failed" >&2
    exit 1
  fi
done

python3 - "${REPORTS}" "${BUILD_DIR}" "${OUT_JSON}" "${BENCHES[@]}" <<'EOF'
import json
import sys

reports, build_dir, out_path, benches = (sys.argv[1], sys.argv[2],
                                         sys.argv[3], sys.argv[4:])
manifests = []
for name in benches:
    with open(f"{reports}/{name}.json") as f:
        manifests.append(json.load(f)["manifest"])
rows = [{"name": name, "wall_seconds": m["wall_time_seconds"]}
        for name, m in zip(benches, manifests)]
suite = {
    "schema": "gridsec.bench_suite",
    "schema_version": 1,
    "build_dir": build_dir,
    "git_sha": manifests[0]["git_sha"],
    "build_type": manifests[0]["build_type"],
    "benches": rows,
    "total_wall_seconds": sum(r["wall_seconds"] for r in rows),
}
with open(out_path, "w") as f:
    json.dump(suite, f, indent=1)
    f.write("\n")
print(f"bench_suite: {len(rows)} benches, "
      f"{suite['total_wall_seconds']:.2f} s -> {out_path}")
EOF
