# Exit-code contract of one command-line binary (docs/cli.md):
#   - `--help` exits 0;
#   - `--bogus`, and the user error BAD_ARGS, each exit 2 with exactly
#     one stderr line, starting "error:";
#   - with SAMPLE_RUN: `BIN --sample WORK.json` writes a sample input,
#     then `BIN SAMPLE_RUN` (each @SAMPLE@ replaced by that path)
#     exits 0;
#   - with FULL_FLAGS: `BIN FULL_RUN` exits 0, and for each output
#     flag F, `BIN FULL_RUN --F /dev/full` exits 2 with exactly one
#     "error:" line naming /dev/full. @SAMPLE@ is replaced as above;
#     @INPUT@ by a file holding the JSON text INPUT;
#   - with ZERO_ARGS: `BIN ZERO_ARGS`, which reads /dev/zero as a JSON
#     file, exits 2 with exactly one "error:" line naming /dev/zero.
# Argument lists separate their items with "|".
#
#   cmake -DBIN=build/sweep_runner -DBAD_ARGS="missing.json" \
#         -DSAMPLE_RUN="--verbose|@SAMPLE@|--threads|1" \
#         -DFULL_RUN="@SAMPLE@" -DFULL_FLAGS="csv|json" \
#         -DWORK=build/cli_sweep_runner -P tests/cli/cli_contract.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT BIN OR NOT BAD_ARGS OR NOT WORK)
  message(FATAL_ERROR "BIN, BAD_ARGS and WORK are required "
                      "(declare cli_bad_<binary> in CMakeLists.txt)")
endif()

include(${CMAKE_CURRENT_LIST_DIR}/run_bin.cmake)

run_bin(0 ${BIN} --help)
expect_user_error(${BIN} --bogus)
string(REPLACE "|" ";" bad "${BAD_ARGS}")
expect_user_error(${BIN} ${bad})

# A stream that never ends is read only up to its first bad byte.
if(ZERO_ARGS AND EXISTS /dev/zero)
  string(REPLACE "|" ";" args "${ZERO_ARGS}")
  expect_user_error(${BIN} ${args})
  if(NOT last_err MATCHES "/dev/zero")
    message(FATAL_ERROR "${BIN} ${args}: the error does not name the "
                        "file:\n${last_err}")
  endif()
endif()

set(sample "${WORK}.json")
if(SAMPLE_RUN OR FULL_RUN MATCHES "@SAMPLE@")
  run_bin(0 ${BIN} --sample ${sample})
endif()
if(SAMPLE_RUN)
  string(REPLACE "@SAMPLE@" "${sample}" args "${SAMPLE_RUN}")
  string(REPLACE "|" ";" args "${args}")
  run_bin(0 ${BIN} ${args})
endif()

if(FULL_FLAGS)
  if(NOT EXISTS /dev/full)
    message(STATUS "/dev/full is absent: write failures not checked")
    return()
  endif()
  set(input "${WORK}.input.json")
  if(INPUT)
    file(WRITE ${input} "${INPUT}")
  endif()
  string(REPLACE "@SAMPLE@" "${sample}" args "${FULL_RUN}")
  string(REPLACE "@INPUT@" "${input}" args "${args}")
  string(REPLACE "|" ";" args "${args}")
  string(REPLACE "|" ";" flags "${FULL_FLAGS}")
  run_bin(0 ${BIN} ${args})
  foreach(flag ${flags})
    expect_user_error(${BIN} ${args} --${flag} /dev/full)
    if(NOT last_err MATCHES "/dev/full")
      message(FATAL_ERROR "${BIN} --${flag} /dev/full: the error does "
                          "not name the file:\n${last_err}")
    endif()
  endforeach()
endif()
