#!/usr/bin/env bash
# Regenerates tests/golden/bench/*.txt from the current build.
#
# Each golden file pins the stdout and exit code of one bench_paper section
# (bench/bench_paper.cpp; bench_paper --list names them); with
# DRMP_BUILD_BENCH=ON the ctests golden_bench_* diff each section against
# its file. Only regenerate when a figure or table legitimately changed —
# that is a result-visible change and the commit message must say so.
#
#   $ tools/regen_golden_bench.sh [build_dir]
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
cmake --build "$BUILD_DIR" --target bench_paper -j"$(nproc)"
mkdir -p tests/golden/bench
n=0
for section in $("$BUILD_DIR/bench_paper" --list); do
  cmake -DBENCH="$BUILD_DIR/bench_paper" -DSECTION="$section" \
    -DGOLDEN="tests/golden/bench/bench_$section.txt" -DREGEN=1 \
    -P tools/golden_bench.cmake
  n=$((n + 1))
done
echo "regenerated $n files under tests/golden/bench/"
