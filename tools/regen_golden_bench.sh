#!/usr/bin/env bash
# Regenerates tests/golden/bench/*.txt from the current build.
#
# Each golden file pins the stdout and exit code of one paper figure/table
# bench (bench/bench_fig*.cpp, bench/bench_tab*.cpp); with DRMP_BUILD_BENCH=ON
# the ctests golden_bench_* diff each binary against its file. Only
# regenerate when a figure or table legitimately changed — that is a
# result-visible change and the commit message must say so.
#
#   $ tools/regen_golden_bench.sh [build_dir]
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
BENCHES=()
for src in bench/bench_fig*.cpp bench/bench_tab*.cpp; do
  BENCHES+=("$(basename "$src" .cpp)")
done
cmake --build "$BUILD_DIR" --target "${BENCHES[@]}" -j"$(nproc)"
mkdir -p tests/golden/bench
for b in "${BENCHES[@]}"; do
  cmake -DBENCH="$BUILD_DIR/$b" -DGOLDEN="tests/golden/bench/$b.txt" -DREGEN=1 \
    -P tools/golden_bench.cmake
done
echo "regenerated ${#BENCHES[@]} files under tests/golden/bench/"
