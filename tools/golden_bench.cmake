# Runs one paper figure/table bench binary and compares its stdout and exit
# code with the golden text tests/golden/bench/<name>.txt. The ctests
# golden_bench_* call it (DRMP_BUILD_BENCH=ON); with -DREGEN=1 it rewrites
# the golden file instead (tools/regen_golden_bench.sh).
#
#   $ cmake -DBENCH=<binary> -DGOLDEN=<file> [-DREGEN=1] -P tools/golden_bench.cmake
execute_process(COMMAND "${BENCH}" OUTPUT_VARIABLE out RESULT_VARIABLE rc)
string(APPEND out "[exit code ${rc}]\n")
if(REGEN)
  file(WRITE "${GOLDEN}" "${out}")
  return()
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  get_filename_component(name "${GOLDEN}" NAME)
  set(actual "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
  file(WRITE "${actual}" "${out}")
  message(FATAL_ERROR "${BENCH} output differs from ${GOLDEN}; "
                      "diff it against ${actual}")
endif()
