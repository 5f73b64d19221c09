#!/usr/bin/env python3
"""Repository benchmark: build the driver, run one workload, check it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
perfbench/ (a CMake package of its own that compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, refusing
any build type but Release. The driver binary then runs the workload in
a fresh process and reports every simulation it ran; this script checks
those results and prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json under --trace 0 and the
per-layer metrics under --trace 1. A simulation fails when it raised an
error, when its results differ from another run of the same inputs in
this process (repeats, the plain stack and the probed stack), or, for
the default seed's inputs, when they differ from perfbench/expected.json.

    python3 perfbench/run.py --workload NAME --seed 0 --seconds 1 \\
        --trace 0 --record

rewrites that workload's entry of expected.json from the run instead.
See perfbench/README.md for the metrics and workloads.
"""
import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DEFAULT_SEED = 0
# Leaves the driver room inside the 180 s a run may take.
DRIVER_TIMEOUT_S = 170
# The first run of a checkout builds; it may take up to 900 s.
BUILD_TIMEOUT_S = 800
SIM_KEYS = ("total_time_ns", "events", "messages")


class BenchError(Exception):
    """The run cannot produce a valid result line."""


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    """Configure (once) and build the driver; return its path."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out_dir, "--target",
                   "perfbench_driver", "-j", jobs])
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=log,
                                      stderr=subprocess.STDOUT, env=env,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build step {cmd[:2]} failed: {e}")
            if proc.returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise BenchError(f"build failed (see {log_path}):\n{tail}")
    build_type = ""
    with open(os.path.join(out_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        raise BenchError(f"refusing a '{build_type}' build; the benchmark "
                         "only measures Release builds")
    return os.path.join(out_dir, "perfbench_driver")


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_driver(binary, args, scratch):
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"driver exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        raise BenchError(f"driver printed no report: {e}")


def sim_key(sim):
    return tuple(sim[k] for k in SIM_KEYS)


def evaluate(out, bench, expected, trace):
    """Check a driver report; return the result line's object.

    Raises BenchError when a metric BENCHMARK.json names is missing or
    not a finite number, or a metric name is malformed.
    """
    specs = bench["per_layer" if trace else "end_to_end"]
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if not NAME_RE.match(name):
            raise BenchError(f"malformed metric name '{name}'")
        value = out["metrics"].get(name)
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            raise BenchError(f"metric '{name}' missing or not a number")
        metrics[name] = {"value": value, "unit": spec["unit"]}

    recorded = expected.get("workloads", {}).get(out["workload"], {})
    sims = out["sims"]
    failed = 0
    first = {}
    for sim in sims:
        if "error" in sim:
            failed += 1
            continue
        group = (sim["inputs"], sim["row"])
        key = sim_key(sim)
        if first.setdefault(group, key) != key:
            print(f"perfbench: {sim['phase']} row {sim['row']} "
                  f"({sim['inputs']} inputs) differs from an identical "
                  f"run: {key} vs {first[group]}", file=sys.stderr)
            failed += 1
            continue
        if sim["inputs"] == "default":
            want = recorded.get(str(sim["row"]))
            if want is None or sim_key(want) != key:
                print(f"perfbench: {sim['phase']} row {sim['row']} "
                      f"differs from the recorded results: {key} vs "
                      f"{want and sim_key(want)}", file=sys.stderr)
                failed += 1
    checks_ok = all(out.get("checks", {}).values())
    if not checks_ok:
        print(f"perfbench: failed checks {out['checks']}", file=sys.stderr)
    return {"correct": failed == 0 and checks_ok and len(sims) > 0,
            "attempted": len(sims), "failed": failed, "metrics": metrics}


def record(out):
    """Store the default-input simulations of `out` in expected.json."""
    expected = load_json(EXPECTED) if os.path.exists(EXPECTED) else {
        "seed": DEFAULT_SEED, "workloads": {}}
    rows = {}
    for sim in out["sims"]:
        if sim["inputs"] == "default" and "error" not in sim:
            rows[str(sim["row"])] = {k: sim[k] for k in SIM_KEYS}
    expected["workloads"][out["workload"]] = dict(
        sorted(rows.items(), key=lambda kv: int(kv[0])))
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite this workload's recorded results")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    try:
        bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        if args.workload not in [w["name"] for w in bench["workloads"]]:
            raise BenchError(f"unknown workload '{args.workload}'")
        out_dir = build_dir()
        binary = build(out_dir)
        out = run_driver(binary, args, os.path.join(out_dir, "scratch"))
        if args.record:
            if args.seed != DEFAULT_SEED:
                raise BenchError("--record needs the default seed")
            record(out)
        host = dict(out["host"], git_commit=git_commit(),
                    seed=args.seed, workload=args.workload,
                    nproc=os.cpu_count())
        print(json.dumps({"host": host, "samples": out["samples"]}))
        result = evaluate(out, bench, load_json(EXPECTED), args.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
