# Runs a command and asserts its exit code and a pattern on its stderr:
#
#   cmake -DEXPECT_CODE=<n> -DEXPECT_STDERR=<regex> -P check_exit.cmake \
#         -- <command> [args...]
#
# The turbdb_cli ctests use it to pin the exit-code table of --help:
# usage errors exit 2, an unreachable server 3.
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "no command given after --")
endif()
execute_process(
  COMMAND ${command}
  RESULT_VARIABLE code
  ERROR_VARIABLE stderr_text
  OUTPUT_QUIET)
if(NOT code EQUAL EXPECT_CODE)
  message(FATAL_ERROR
          "expected exit code ${EXPECT_CODE} from '${command}', got ${code}; "
          "stderr: ${stderr_text}")
endif()
if(NOT stderr_text MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR
          "expected '${EXPECT_STDERR}' on stderr, got: ${stderr_text}")
endif()
