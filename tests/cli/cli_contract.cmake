# Exit-code contract of one command-line binary (docs/cli.md):
#   - `--help` exits 0;
#   - `--bogus`, and the user error BAD_ARGS, each exit 2 with exactly
#     one stderr line, starting "error:";
#   - with SAMPLE_RUN: `BIN --sample WORK.json` writes a sample input,
#     then `BIN SAMPLE_RUN` (each @SAMPLE@ replaced by that path)
#     exits 0.
# Argument lists separate their items with "|".
#
#   cmake -DBIN=build/sweep_runner -DBAD_ARGS="missing.json" \
#         -DSAMPLE_RUN="--verbose|@SAMPLE@|--threads|1" \
#         -DWORK=build/cli_sweep_runner -P tests/cli/cli_contract.cmake
if(NOT BIN OR NOT BAD_ARGS OR NOT WORK)
  message(FATAL_ERROR "BIN, BAD_ARGS and WORK are required "
                      "(declare cli_bad_<binary> in CMakeLists.txt)")
endif()

function(run_bin expected_rc)
  execute_process(COMMAND ${BIN} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${expected_rc}")
    message(FATAL_ERROR "${BIN} ${ARGN}: exit ${rc}, expected "
                        "${expected_rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  set(last_err "${err}" PARENT_SCOPE)
endfunction()

function(expect_user_error)
  run_bin(2 ${ARGN})
  string(REGEX MATCHALL "\n" newlines "${last_err}")
  list(LENGTH newlines lines)
  if(NOT lines EQUAL 1 OR NOT last_err MATCHES "^error: ")
    message(FATAL_ERROR "${BIN} ${ARGN}: expected one 'error:' line "
                        "on stderr, got:\n${last_err}")
  endif()
endfunction()

run_bin(0 --help)
expect_user_error(--bogus)
string(REPLACE "|" ";" bad "${BAD_ARGS}")
expect_user_error(${bad})

if(SAMPLE_RUN)
  set(sample "${WORK}.json")
  run_bin(0 --sample ${sample})
  string(REPLACE "@SAMPLE@" "${sample}" args "${SAMPLE_RUN}")
  string(REPLACE "|" ";" args "${args}")
  run_bin(0 ${args})
endif()
