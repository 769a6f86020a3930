#!/usr/bin/env bash
# One-shot reproduction: build, test, regenerate every figure and
# extension experiment. Outputs land in test_output.txt / bench_output.txt
# at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] && "$b"
done 2>&1 | tee bench_output.txt

echo
echo "Reproduction complete."
echo "  tests:  $(grep -E 'tests passed' test_output.txt | tail -1)"
echo "  series: see bench_output.txt and EXPERIMENTS.md"
