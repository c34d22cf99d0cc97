# Golden checks for bench_paper, the paper figure/table reproductions.
#
# With SECTION and GOLDEN: runs `bench_paper <SECTION>` and compares its
# stdout and exit code with the golden text tests/golden/bench/<name>.txt
# (the golden_bench_* ctests, DRMP_BUILD_BENCH=ON); with -DREGEN=1 it
# rewrites the golden file instead (tools/regen_golden_bench.sh).
#
# With GOLDEN_DIR: fails unless `bench_paper --list` names exactly the
# sections that have a bench_<section>.txt golden file in GOLDEN_DIR.
#
#   $ cmake -DBENCH=<bench_paper> -DSECTION=<name> -DGOLDEN=<file> [-DREGEN=1] \
#       -P tools/golden_bench.cmake
#   $ cmake -DBENCH=<bench_paper> -DGOLDEN_DIR=<dir> -P tools/golden_bench.cmake
if(GOLDEN_DIR)
  execute_process(COMMAND "${BENCH}" --list OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} --list exited with ${rc}")
  endif()
  string(REGEX REPLACE "\n$" "" out "${out}")
  string(REPLACE "\n" ";" listed "${out}")
  file(GLOB goldens RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/bench_*.txt")
  string(REGEX REPLACE "bench_([^;]*)\\.txt" "\\1" golden_sections "${goldens}")
  list(SORT listed)
  list(SORT golden_sections)
  if(NOT listed STREQUAL golden_sections)
    message(FATAL_ERROR "bench_paper sections and golden files differ:\n"
                        "  --list : ${listed}\n  goldens: ${golden_sections}")
  endif()
  return()
endif()

execute_process(COMMAND "${BENCH}" "${SECTION}" OUTPUT_VARIABLE out RESULT_VARIABLE rc)
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
  message(FATAL_ERROR "${BENCH} ${SECTION} output differs from ${GOLDEN}; "
                      "diff it against ${actual}")
endif()
