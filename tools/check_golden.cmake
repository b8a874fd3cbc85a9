# Runs a modeled bench and asserts its stdout equals a golden file:
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<file> -P check_golden.cmake
#
# The bench runs at TURBDB_BENCH_N=64 in-process (TURBDB_TOPOLOGY,
# TURBDB_BENCH_T and TURBDB_BENCH_JSON are cleared), so the modeled
# paper outputs are pinned byte for byte. bench/CMakeLists.txt adds one
# ctest per bench; a change that moves modeled numbers on purpose
# re-captures the goldens (see bench/golden/README.md).
set(ENV{TURBDB_BENCH_N} 64)
unset(ENV{TURBDB_BENCH_T})
unset(ENV{TURBDB_TOPOLOGY})
unset(ENV{TURBDB_BENCH_JSON})
execute_process(
  COMMAND "${BENCH}"
  RESULT_VARIABLE code
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE stderr_text)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited ${code}; stderr: ${stderr_text}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "stdout of ${BENCH} differs from ${GOLDEN}.\n"
          "--- expected ---\n${expected}\n--- actual ---\n${actual}")
endif()
