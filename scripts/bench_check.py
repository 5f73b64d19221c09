#!/usr/bin/env python3
"""Wall-time regression gate for the committed BENCH_*.json files
(bench.sh --check).

The files hold wall times and the rates derived from them. Simulated
results (times, event counts, solver counters, footprints, heartbeats,
trace-event counts) are not in them: ctest pins those at their exact
values, next to the scenario that produces them (bench/bench_util.h).

Compares a freshly produced bench JSON against the committed one:

 - Wall-clock metrics (`wall_seconds`, `seconds`,
   `trace_write_seconds`) may wobble with the machine, but a fresh
   value more than 25% above the reference is a performance
   regression and fails the check. Sub-millisecond samples can swing
   far more than 25% from scheduler noise alone, so an absolute slack
   floor (WALL_SLACK_S) is added to the allowance — the gate is meant
   to catch real regressions on the scenarios that take meaningful
   time, not to flake on microsecond jitter.
 - `peak_rss_bytes` is process-wide allocator/OS truth, so it is
   gated like a wall time: growth beyond the tolerance fails.
 - The wall reference is the committed file by default. Because the
   committed numbers were recorded on one specific machine, a
   different host (a CI runner, a laptop) passes --wall-baseline
   FILE: a per-host ledger of wall times recorded on THAT host
   (scripts/bench.sh --record-baseline). Scenarios absent from the
   baseline skip the wall gate (first run after a new scenario).
 - --record, with --wall-baseline, rewrites the ledger from the fresh
   run's wall numbers after the comparison passes — this is how a
   host (re-)establishes its baseline.
 - Structure must match: a scenario added or removed without
   regenerating the committed file is an error, not a skip.
 - Derived rates (`events_per_sec`, `speedup`, `accuracy_gap`, ...)
   are ignored; they follow from the metrics above.
 - Every numeric leaf must belong to one of these classes: a number
   under any other key is an error naming the key and the file, so a
   new bench metric cannot slip through ungated.

A missing fresh file (its bench failed every run) fails that file's
verdict; the other files are still compared.

Exit code 0 = clean, 1 = any violation (all violations are listed).
"""
import argparse
import json
import os
import sys

# peak_rss_bytes is allocator/OS truth, not simulation truth: gate it
# like a wall time (growth beyond tolerance = leak-shaped regression).
WALL_KEYS = {"wall_seconds", "seconds", "trace_write_seconds",
             "peak_rss_bytes"}
# Derived rates; bench_min.py re-pairs them with their wall sample.
RATE_KEYS = {"events_per_sec", "configs_per_sec", "speedup",
             "speedup_8_over_1", "overhead_frac"}
IGNORED_KEYS = RATE_KEYS | {"accuracy_gap", "hardware_threads"}
WALL_TOLERANCE = 1.25  # fresh wall time may be up to 25% above reference.
WALL_SLACK_S = 0.005   # plus this absolute slack (sub-ms noise floor).


def compare(committed, fresh, baseline, path, errors):
    """Walk committed vs fresh; `baseline` mirrors the walk when a
    per-host wall ledger is active (None disables it, and a subtree
    missing from the ledger skips the wall gate for that subtree)."""
    if isinstance(committed, dict) != isinstance(fresh, dict):
        errors.append(f"{path}: structure mismatch")
        return
    if isinstance(committed, dict):
        for key in sorted(set(committed) | set(fresh)):
            sub = f"{path}.{key}" if path else key
            if key in IGNORED_KEYS:
                continue
            if key not in fresh:
                errors.append(f"{sub}: missing from fresh run "
                              "(scenario removed without regenerating?)")
                continue
            if key not in committed:
                errors.append(f"{sub}: not in committed file "
                              "(new scenario? regenerate the baseline)")
                continue
            if key in WALL_KEYS:
                if baseline is ABSENT:
                    continue  # not in this host's ledger yet.
                base = committed[key] if baseline is None \
                    else baseline.get(key)
                if base is None:
                    continue
                now = fresh[key]
                if base > 0 and now > base * WALL_TOLERANCE + WALL_SLACK_S:
                    errors.append(
                        f"{sub}: wall-time regression {now:.6f}s vs "
                        f"reference {base:.6f}s "
                        f"(> {WALL_TOLERANCE:.2f}x + {WALL_SLACK_S}s)")
            elif is_number(committed[key]) or is_number(fresh[key]):
                errors.append(
                    f"{sub}: unclassified numeric key {key!r} (add it "
                    "to WALL_KEYS or IGNORED_KEYS, or pin it in ctest)")
            else:
                child = baseline
                if isinstance(baseline, dict):
                    child = baseline.get(key, ABSENT)
                elif baseline is ABSENT:
                    child = ABSENT
                compare(committed[key], fresh[key], child, sub, errors)
    elif committed != fresh:
        # Non-numeric leaves (the bench names) must agree.
        errors.append(f"{path}: changed from {committed!r} to {fresh!r}")


def is_number(value):
    # bool is a subclass of int in Python: a boolean is a semantic leaf
    # that compares exactly, not a number that needs a key class.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Sentinel: ledger active but this subtree was never recorded on this
# host — skip the wall gate rather than comparing against nothing.
ABSENT = object()


def extract_wall(doc):
    """Nested copy of `doc` keeping only the wall-clock leaves."""
    if not isinstance(doc, dict):
        return None
    out = {}
    for key, value in doc.items():
        if key in WALL_KEYS and is_number(value):
            out[key] = value
        elif isinstance(value, dict):
            sub = extract_wall(value)
            if sub:
                out[key] = sub
    return out


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("files", nargs="+",
                    metavar="committed.json fresh.json",
                    help="alternating committed/fresh file pairs")
    ap.add_argument("--wall-baseline", metavar="FILE",
                    help="per-host wall-time ledger; gates wall times "
                         "against it instead of the committed file")
    ap.add_argument("--record", action="store_true",
                    help="with --wall-baseline: rewrite the ledger "
                         "from the fresh runs' wall numbers")
    args = ap.parse_args(argv[1:])
    if len(args.files) % 2 != 0:
        ap.error("files must come in committed/fresh pairs")
    if args.record and not args.wall_baseline:
        ap.error("--record requires --wall-baseline")

    ledger = {}
    if args.wall_baseline and os.path.exists(args.wall_baseline) \
            and not args.record:
        with open(args.wall_baseline) as f:
            ledger = json.load(f)

    errors = []
    recorded = {}
    for i in range(0, len(args.files), 2):
        committed_path, fresh_path = args.files[i], args.files[i + 1]
        with open(committed_path) as f:
            committed = json.load(f)
        name = os.path.basename(committed_path)
        if args.wall_baseline:
            baseline = ledger.get(name, ABSENT)
        else:
            baseline = None  # wall gate uses the committed numbers.
        file_errors = []
        if os.path.exists(fresh_path):
            with open(fresh_path) as f:
                fresh = json.load(f)
            compare(committed, fresh, baseline, "", file_errors)
        else:
            fresh = {}
            file_errors.append(f"no fresh results in {fresh_path} "
                               "(its bench failed every run)")
        errors += [f"{committed_path}: {e}" for e in file_errors]
        status = "FAIL" if file_errors else "OK"
        print(f"{committed_path}: {status}")
        if args.record:
            recorded[name] = extract_wall(fresh) or {}
    for err in errors:
        print(f"  {err}")
    if args.record and not errors:
        with open(args.wall_baseline, "w") as f:
            json.dump(recorded, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wall baseline recorded to {args.wall_baseline} "
              f"({len(recorded)} files)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
