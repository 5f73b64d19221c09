# Helpers for the command-line drivers in this directory
# (cli_contract.cmake, smoke.cmake). Every run is bounded by a timeout.

# Run the command ARGN; fail unless it exits `expected_rc`. Leaves its
# stdout in `last_out` and its stderr in `last_err`.
function(run_bin expected_rc)
  execute_process(COMMAND ${ARGN} TIMEOUT 300
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${expected_rc}")
    message(FATAL_ERROR "${ARGN}: exit ${rc}, expected "
                        "${expected_rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  set(last_out "${out}" PARENT_SCOPE)
  set(last_err "${err}" PARENT_SCOPE)
endfunction()

# Run the command ARGN as a user error: exit 2 with exactly one stderr
# line, starting "error:". Leaves `last_out` and `last_err` as run_bin
# does.
function(expect_user_error)
  run_bin(2 ${ARGN})
  string(REGEX MATCHALL "\n" newlines "${last_err}")
  list(LENGTH newlines lines)
  if(NOT lines EQUAL 1 OR NOT last_err MATCHES "^error: ")
    message(FATAL_ERROR "${ARGN}: expected one 'error:' line "
                        "on stderr, got:\n${last_err}")
  endif()
  set(last_out "${last_out}" PARENT_SCOPE)
  set(last_err "${last_err}" PARENT_SCOPE)
endfunction()
