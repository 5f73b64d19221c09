#!/usr/bin/env python3
"""Merge repeated bench runs into one JSON, taking the minimum wall time.

Usage: bench_min.py OUT RUN1.json [RUN2.json ...]

Wall-clock samples (`wall_seconds`, `seconds`) are noisy: a single run
can be inflated by scheduler jitter, turbo states, or page-cache
misses. scripts/bench.sh therefore runs every bench BENCH_REPEAT
times (default 3) and this script keeps, per scenario, the *minimum*
wall sample — the run closest to the machine's true capability — which
shrinks the noise floor the `--check` regression gate has to tolerate.

Derived rates (`events_per_sec`, `speedup`, ...) cannot be recomputed
generically, so they are kept self-consistent at the closest scope
available: a rate sitting next to a wall key follows that wall key's
chosen run; a rate without a wall sibling (e.g. a top-level speedup
over nested per-thread timings) is taken wholesale from the run with
the lowest *total* wall time, and may therefore differ slightly from
the ratio of the independently min-merged numbers around it (the
--check gate ignores rate keys either way). Any other leaf is taken
from the first run.
"""
import json
import sys

# peak_rss_bytes is a wall key too: it is process/allocator truth,
# varies across repeat invocations, and min-merging keeps the leanest
# run.
from bench_check import RATE_KEYS, WALL_KEYS


def total_wall(node):
    if isinstance(node, dict):
        return sum(total_wall(v) for k, v in node.items()
                   if k in WALL_KEYS or isinstance(v, dict))
    return node if isinstance(node, (int, float)) else 0.0


def merge(runs, best_total, path=""):
    first = runs[0]
    if isinstance(first, dict):
        has_wall = any(k in WALL_KEYS for k in first)
        out = {}
        for key in first:
            sub = f"{path}.{key}" if path else key
            for r in runs[1:]:
                if not isinstance(r, dict) or key not in r:
                    raise SystemExit(
                        f"bench_min: {sub}: missing from a repeat run")
            if key in WALL_KEYS:
                samples = [r[key] for r in runs]
                best = min(range(len(samples)), key=lambda i: samples[i])
                out[key] = samples[best]
                # Sibling derived rates follow the chosen wall sample.
                for rk in RATE_KEYS & set(first):
                    out[rk] = runs[best][rk]
            elif key in RATE_KEYS:
                if not has_wall:
                    # No wall sibling to anchor to: take the value
                    # from the globally fastest run (see docstring).
                    out[key] = runs[best_total][key]
                else:
                    out.setdefault(key, first[key])
            else:
                out[key] = merge([r[key] for r in runs], best_total, sub)
        return out
    return first


def main():
    if len(sys.argv) < 3:
        raise SystemExit("usage: bench_min.py OUT RUN1.json [RUN2...]")
    out_path, run_paths = sys.argv[1], sys.argv[2:]
    runs = []
    for p in run_paths:
        with open(p) as f:
            runs.append(json.load(f))
    totals = [total_wall(r) for r in runs]
    best_total = min(range(len(totals)), key=lambda i: totals[i])
    merged = merge(runs, best_total)
    with open(out_path, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print(f"bench_min: merged {len(runs)} runs -> {out_path}")


if __name__ == "__main__":
    main()
