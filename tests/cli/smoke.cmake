# Smoke runs of one command-line binary end to end (docs/cli.md). The
# run keeps what it writes in OUT/CASE (CI uploads OUT, so a red run
# still leaves a timeline to open in Perfetto) and checks what only
# the command line shows. Checks that need a JSON parser read the same
# files from the gtests named below; their ctest fixture smoke_CASE
# runs this first.
#
#   trace_runner    `--emit` then `--trace` on the ET gives the same
#                   full-detail timeline bytes as the built workload.
#                   Writes trace-smoke.json
#                   (ChromeTraceExport.StructureAndOrdering),
#                   telemetry-beats.ndjson
#                   (Telemetry.HeartbeatFileIsValidNdjson), and the
#                   trace_analyze --diff report of two fabrics,
#                   diff-report.json (TraceDiff.ReportKeepsItsArithmetic).
#   cluster_runner  on each scenario in tests/cluster/golden/, --json
#                   and --csv write the golden bytes, and --manifest
#                   lists both files among its outputs.
#   sweep_runner    the sample sweep at 2 threads writes batch
#                   heartbeats and row manifests
#                   (Telemetry.SweepBeatsAndRowManifests); at 1 thread,
#                   with a switch before the spec, it writes the same
#                   CSV and JSON bytes; a typo'd axis path exits 2 with
#                   one `error:` line; the console table of the
#                   per-dimension-algorithm ablation prints no ok row's
#                   time as 0.00.
#
#   cmake -DCASE=sweep_runner -DBIN_DIR=build -DSRC_DIR=. \
#         -DOUT=build/smoke -P tests/cli/smoke.cmake
cmake_minimum_required(VERSION 3.16)
include(${CMAKE_CURRENT_LIST_DIR}/run_bin.cmake)

set(dir ${OUT}/${CASE})
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

function(expect_same a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ")
  endif()
endfunction()

# The cells of one console table line "\n| a | b |", stripped.
function(table_cells line out)
  string(REGEX REPLACE "^\n\\| (.*) \\|$" "\\1" line "${line}")
  string(REPLACE "|" ";" cells "${line}")
  set(stripped "")
  foreach(cell IN LISTS cells)
    string(STRIP "${cell}" cell)
    list(APPEND stripped "${cell}")
  endforeach()
  set(${out} "${stripped}" PARENT_SCOPE)
endfunction()

if(CASE STREQUAL "trace_runner")
  set(bin ${BIN_DIR}/trace_runner)
  run_bin(0 ${bin} --trace-out ${dir}/trace-smoke.json
          --trace-detail full)
  run_bin(0 ${bin} --emit ${dir}/et-smoke.json)
  run_bin(0 ${bin} --trace ${dir}/et-smoke.json
          --trace-out ${dir}/trace-et.json --trace-detail full)
  expect_same(${dir}/trace-et.json ${dir}/trace-smoke.json)
  # Heartbeats on a deterministic event cadence.
  run_bin(0 ${bin} --heartbeat ${dir}/telemetry-beats.ndjson
          --heartbeat-events 2048 --manifest ${dir}/run-manifest.json)
  # Dim-0 bandwidth halved: the second fabric is slower, so the diff
  # is not empty.
  run_bin(0 ${bin} --topo "R(4,150)_SW(2,25)"
          --trace-out ${dir}/trace-diff-a.json --trace-detail full)
  run_bin(0 ${bin} --topo "R(4,75)_SW(2,25)"
          --trace-out ${dir}/trace-diff-b.json --trace-detail full)
  run_bin(0 ${BIN_DIR}/trace_analyze --diff ${dir}/trace-diff-a.json
          ${dir}/trace-diff-b.json --json ${dir}/diff-report.json)

elseif(CASE STREQUAL "cluster_runner")
  # sample is `cluster_runner --sample`; fault is the cluster config of
  # `resilience_study --sample`
  # (ResilienceStudy.SampleStudyRunsWithoutFailures).
  foreach(name sample fault)
    set(golden ${SRC_DIR}/tests/cluster/golden/${name})
    set(report ${dir}/${name}.report.json)
    set(jobs ${dir}/${name}.jobs.csv)
    run_bin(0 ${BIN_DIR}/cluster_runner ${golden}.json --json ${report}
            --csv ${jobs} --manifest ${dir}/${name}.manifest.json)
    expect_same(${report} ${golden}.report.json)
    expect_same(${jobs} ${golden}.jobs.csv)
    file(READ ${dir}/${name}.manifest.json manifest)
    string(REGEX MATCH "\"outputs\": \\[[^]]*\\]" outputs "${manifest}")
    foreach(path ${report} ${jobs})
      string(FIND "${outputs}" "\"${path}\"" at)
      if(at EQUAL -1)
        message(FATAL_ERROR "${name}.manifest.json does not list "
                            "${path} in its outputs:\n${manifest}")
      endif()
    endforeach()
  endforeach()

elseif(CASE STREQUAL "sweep_runner")
  set(bin ${BIN_DIR}/sweep_runner)
  set(spec ${dir}/sweep-smoke.json)
  run_bin(0 ${bin} --sample ${spec})
  run_bin(0 ${bin} ${spec} --threads 2 --csv ${dir}/sweep-smoke.csv
          --json ${dir}/sweep-results.json
          --heartbeat ${dir}/sweep-beats.ndjson
          --manifest ${dir}/sweep-manifest.json
          --manifest-dir ${dir}/manifests)
  # The same --manifest-dir, because the CSV lists each row's manifest.
  run_bin(0 ${bin} --verbose ${spec} --threads 1
          --csv ${dir}/sweep-smoke-1t.csv
          --json ${dir}/sweep-results-1t.json
          --manifest-dir ${dir}/manifests)
  expect_same(${dir}/sweep-smoke-1t.csv ${dir}/sweep-smoke.csv)
  expect_same(${dir}/sweep-results-1t.json ${dir}/sweep-results.json)

  # Every config block rejects unknown keys, so each row fails and the
  # run ends with one error.
  file(READ ${spec} text)
  string(REPLACE "in_node_fabric_bw_gbps" "in_node_fabric_bw_gbs" typo
         "${text}")
  if(typo STREQUAL text)
    message(FATAL_ERROR "${spec} has no in_node_fabric_bw_gbps axis")
  endif()
  file(WRITE ${dir}/sweep-typo.json "${typo}")
  expect_user_error(${bin} ${dir}/sweep-typo.json --threads 2
                    --csv ${dir}/sweep-typo.csv)

  # The ablation's rows run for microseconds; the console table must
  # still show each ok row's times as nonzero.
  run_bin(0 ${bin} ${SRC_DIR}/examples/figures/ablation_collectives.json)
  string(REGEX MATCHALL "\n\\| [^\n]*" lines "\n${last_out}")
  list(POP_FRONT lines header_line)
  table_cells("${header_line}" header)
  set(times "")
  set(i 0)
  foreach(name IN LISTS header)
    if(name MATCHES "\\(ms\\)$")
      list(APPEND times ${i})
    endif()
    math(EXPR i "${i} + 1")
  endforeach()
  list(LENGTH lines rows)
  list(LENGTH times columns)
  if(NOT rows EQUAL 18 OR NOT columns EQUAL 6)
    message(FATAL_ERROR "ablation table: ${rows} rows and ${columns} "
                        "time columns, expected 18 and 6:\n${last_out}")
  endif()
  foreach(line IN LISTS lines)
    table_cells("${line}" cells)
    if(cells MATCHES "(^|;)failed")
      continue()
    endif()
    foreach(i IN LISTS times)
      list(GET cells ${i} cell)
      if(cell STREQUAL "0.00")
        message(FATAL_ERROR "ablation table prints an ok row's time as "
                            "0.00:\n${line}")
      endif()
    endforeach()
  endforeach()

else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
