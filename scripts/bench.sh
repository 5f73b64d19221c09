#!/usr/bin/env bash
# Build the Release bench targets and record the wall-time trajectory:
#  - bench_eventcore (schedule/dispatch micro-benchmarks and the
#    4096-NPU all-reduce, the §IV-C scale anchor) -> BENCH_eventcore.json
#  - bench_sweep_throughput (64-config hierarchical-memory sweep at
#    1/2/8 threads) -> BENCH_sweep.json
#  - bench_flow_vs_packet (1024-NPU incast, 64-NPU all-to-all, and
#    staggered 256-NPU hierarchical all-reduce: flow-backend wall-clock
#    speedup over the packet reference) -> BENCH_flow.json
#  - bench_trace_overhead (tracing off/spans/full on the staggered
#    256-NPU hierarchical all-reduce: the <25% recording-overhead
#    budget, docs/trace.md) -> BENCH_trace.json
#  - bench_telemetry_overhead (heartbeat monitoring off/on on the
#    staggered 256-NPU hierarchical all-reduce: the <5% overhead
#    budget, plus the 4096-NPU scale point's wall time and peak RSS,
#    docs/observability.md) -> BENCH_obs.json
# Machine-readable results land at the repo root so numbers are
# comparable across PRs (same machine assumed). The files hold wall
# times and rates only: the scenarios' simulated results are pinned
# by ctest (the tests that use bench/bench_util.h).
#
# Every bench binary is run BENCH_REPEAT times (default 3) and
# scripts/bench_min.py keeps the per-scenario minimum wall time — the
# repeat-and-take-min pass that shrinks the wall-noise floor the
# --check gate has to tolerate.
#
# `scripts/bench.sh --check` instead re-runs the benches into a
# scratch directory and fails (non-zero exit) if any wall time
# regressed by more than 25% — see scripts/bench_check.py. Run it
# before merging perf-sensitive changes; regenerate the committed
# files when a change is intentional.
#
# A bench that exits non-zero (an in-binary budget such as the 5%
# heartbeat overhead) does not stop the script: every later bench
# still runs, --check still prints one verdict per file (FAIL for a
# file whose bench wrote no results), and the script exits non-zero
# at the end, naming each failed run. Without --check, a committed
# file whose bench failed every repeat is left as it was.
#
# The committed wall numbers describe one specific machine. On any
# other host, set WALL_BASELINE=<file> so --check gates wall times
# against a per-host ledger instead: the first --check on a host (or
# an explicit `scripts/bench.sh --record-baseline`) records the
# ledger from the fresh run, and subsequent --check runs on the same
# host fail on >25% regressions against it. CI caches the ledger per
# runner class, which is what lets its bench-check job be blocking.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
BENCH_REPEAT="${BENCH_REPEAT:-3}"
WALL_BASELINE="${WALL_BASELINE:-}"

CHECK=0
RECORD=0
while [[ "${1:-}" == --* ]]; do
    case "$1" in
    --check) CHECK=1 ;;
    --record-baseline)
        CHECK=1
        RECORD=1
        WALL_BASELINE="${WALL_BASELINE:-.bench-wall-baseline.json}"
        ;;
    *)
        echo "bench.sh: unknown flag $1" >&2
        exit 2
        ;;
    esac
    shift
done

OUT="${1:-BENCH_eventcore.json}"
SWEEP_OUT="${2:-BENCH_sweep.json}"
FLOW_OUT="${3:-BENCH_flow.json}"
TRACE_OUT="${4:-BENCH_trace.json}"
OBS_OUT="${5:-BENCH_obs.json}"

if [[ "$CHECK" == 1 ]]; then
    CHECK_DIR="$BUILD_DIR/bench-check"
    mkdir -p "$CHECK_DIR"
    COMMITTED_EVENTCORE="$OUT"
    COMMITTED_SWEEP="$SWEEP_OUT"
    COMMITTED_FLOW="$FLOW_OUT"
    COMMITTED_TRACE="$TRACE_OUT"
    COMMITTED_OBS="$OBS_OUT"
    OUT="$CHECK_DIR/BENCH_eventcore.json"
    SWEEP_OUT="$CHECK_DIR/BENCH_sweep.json"
    FLOW_OUT="$CHECK_DIR/BENCH_flow.json"
    TRACE_OUT="$CHECK_DIR/BENCH_trace.json"
    OBS_OUT="$CHECK_DIR/BENCH_obs.json"
    # A bench that fails leaves no fresh file: never gate a stale one.
    rm -f "$OUT" "$SWEEP_OUT" "$FLOW_OUT" "$TRACE_OUT" "$OBS_OUT"
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j"$(nproc)" \
      --target bench_eventcore bench_sweep_throughput \
               bench_flow_vs_packet bench_trace_overhead \
               bench_telemetry_overhead

# run_bench BINARY OUT: repeat the bench BENCH_REPEAT times and merge
# the runs that succeeded with per-scenario min wall time (see header
# comment). A failed run is recorded in FAILED, not fatal.
FAILED=()
run_bench() {
    local binary="$1" out="$2"
    local tmp_files=()
    for ((r = 1; r <= BENCH_REPEAT; ++r)); do
        local tmp="$out.run$r"
        if "$BUILD_DIR/$binary" --json "$tmp"; then
            tmp_files+=("$tmp")
        else
            FAILED+=("$binary run $r")
        fi
        echo
    done
    if ((${#tmp_files[@]} > 0)); then
        python3 scripts/bench_min.py "$out" "${tmp_files[@]}" ||
            FAILED+=("bench_min.py for $binary")
        rm -f "${tmp_files[@]}"
    fi
}

run_bench bench_eventcore "$OUT"
run_bench bench_sweep_throughput "$SWEEP_OUT"
run_bench bench_flow_vs_packet "$FLOW_OUT"
run_bench bench_trace_overhead "$TRACE_OUT"
run_bench bench_telemetry_overhead "$OBS_OUT"

echo
STATUS=0
if [[ "$CHECK" == 1 ]]; then
    BASE_ARGS=()
    if [[ -n "$WALL_BASELINE" ]]; then
        BASE_ARGS+=(--wall-baseline "$WALL_BASELINE")
        if [[ "$RECORD" == 1 || ! -f "$WALL_BASELINE" ]]; then
            BASE_ARGS+=(--record)
            echo "recording per-host wall baseline to $WALL_BASELINE"
        fi
    fi
    python3 scripts/bench_check.py "${BASE_ARGS[@]}" \
        "$COMMITTED_EVENTCORE" "$OUT" \
        "$COMMITTED_SWEEP" "$SWEEP_OUT" \
        "$COMMITTED_FLOW" "$FLOW_OUT" \
        "$COMMITTED_TRACE" "$TRACE_OUT" \
        "$COMMITTED_OBS" "$OBS_OUT" || STATUS=1
fi
for run in "${FAILED[@]}"; do
    echo "bench.sh: $run failed"
    STATUS=1
done
if [[ "$STATUS" != 0 ]]; then
    echo "bench run failed"
elif [[ "$CHECK" == 1 ]]; then
    echo "bench check passed (fresh results in $BUILD_DIR/bench-check)"
else
    echo "results written to $OUT, $SWEEP_OUT, $FLOW_OUT," \
         "$TRACE_OUT, and $OBS_OUT"
fi
exit "$STATUS"
