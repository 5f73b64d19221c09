#!/usr/bin/env python3
"""Self-test of the benchmark harness; needs no build.

    python3 perfbench/tests/test_run.py

Checks BENCHMARK.json against the benchmark contract and drives
run.py's result checks with synthetic driver reports built from
perfbench/expected.json.
"""
import contextlib
import copy
import importlib.util
import io
import json
import os
import re
import unittest
from unittest import mock

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(PERFBENCH, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

METRIC_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_bench():
    return run.load_json(os.path.join(ROOT, "BENCHMARK.json"))


def load_expected():
    return run.load_json(run.EXPECTED)


def report(workload, trace, reps=2):
    """A driver report whose sims repeat the recorded results."""
    bench = load_bench()
    sims = []
    for row, want in load_expected()["workloads"][workload].items():
        for rep in range(reps):
            sims.append(dict(want, phase="run", inputs="default",
                             row=int(row), rep=rep))
    names = [m["name"] for m in bench["per_layer" if trace
                                       else "end_to_end"]]
    return {"workload": workload, "seed": 0, "trace": bool(trace),
            "host": {}, "sims": sims,
            "checks": {"self_time_within_run": True},
            "metrics": {n: 1.5 for n in names}, "samples": {}}


def evaluate(out, expected=None, trace=False):
    with contextlib.redirect_stderr(io.StringIO()):
        return run.evaluate(out, load_bench(),
                            expected or load_expected(), trace)


class ContractTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        bench = load_bench()
        names = []
        for kind in ("end_to_end", "per_layer"):
            for m in bench[kind]:
                self.assertRegex(m["name"], METRIC_RE)
                self.assertLessEqual(len(m["name"]), 64)
                self.assertRegex(m["unit"], UNIT_RE)
                self.assertIn(m["better"], ("lower", "higher"))
                names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_shape(self):
        bench = load_bench()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end",
                                      "per_layer"})
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_every_workload_is_recorded(self):
        recorded = load_expected()["workloads"]
        for w in load_bench()["workloads"]:
            self.assertTrue(recorded.get(w["name"]), w["name"])


class EvaluateTest(unittest.TestCase):
    def test_recorded_results_pass(self):
        for trace in (False, True):
            res = evaluate(report("moe_sweep", trace), trace=trace)
            self.assertTrue(res["correct"])
            self.assertEqual(res["failed"], 0)
            self.assertEqual(res["attempted"], 32)

    def test_result_line_carries_units(self):
        res = evaluate(report("flow_allreduce_4096", False))
        self.assertEqual(res["metrics"]["sims_per_s"],
                         {"value": 1.5, "unit": "1/s"})

    def test_tampered_recorded_value_fails(self):
        expected = copy.deepcopy(load_expected())
        row = expected["workloads"]["moe_sweep"]["3"]
        row["total_time_ns"] = row["total_time_ns"] * (1 + 1e-15)
        res = evaluate(report("moe_sweep", False), expected)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 2)

    def test_tampered_event_count_fails(self):
        expected = copy.deepcopy(load_expected())
        expected["workloads"]["pipeline_traced"]["0"]["events"] += 1
        res = evaluate(report("pipeline_traced", False), expected)
        self.assertFalse(res["correct"])

    def test_repeat_mismatch_fails(self):
        out = report("flow_allreduce_4096", False, reps=3)
        for sim in out["sims"]:
            sim["inputs"] = "seeded"
        out["sims"][2]["messages"] += 1
        res = evaluate(out)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)

    def test_simulation_error_fails(self):
        out = report("flow_allreduce_4096", False)
        out["sims"].append({"phase": "run", "inputs": "seeded", "row": 0,
                            "rep": 2, "error": "boom"})
        res = evaluate(out)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)

    def test_failed_probe_check_is_incorrect(self):
        out = report("moe_sweep", True)
        out["checks"]["self_time_within_run"] = False
        self.assertFalse(evaluate(out, trace=True)["correct"])

    def test_missing_metric_raises(self):
        out = report("moe_sweep", True)
        del out["metrics"]["event.residual_s"]
        with self.assertRaises(run.BenchError):
            evaluate(out, trace=True)

    def test_missing_metric_fails_the_run(self):
        out = report("moe_sweep", False)
        del out["metrics"]["wall_s"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.object(run, "build", return_value="driver"), \
                mock.patch.object(run, "run_driver", return_value=out), \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = run.main(["--workload", "moe_sweep", "--seed", "0",
                             "--seconds", "1", "--trace", "0"])
        self.assertNotEqual(code, 0)
        for line in stdout.getvalue().splitlines():
            self.assertNotIn("correct", json.loads(line))
        self.assertIn("wall_s", stderr.getvalue())


if __name__ == "__main__":
    unittest.main()
