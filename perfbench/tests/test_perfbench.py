#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/tests/test_perfbench.py

Each workload runs three times with one-second measuring windows: traced at
seed 7, untraced at seed 7 and untraced at seed 8 (about four minutes in
all, the first build excluded). The tests check that

  * every metric a run prints is declared in BENCHMARK.json, with its unit;
  * two invocations at one seed give identical reference digests and
    accuracy metrics (one of the two traced, so tracing is also shown not
    to change results);
  * another seed changes the generated inputs but not the metric set;
  * traced spans nest: no child starts before or ends after its parent;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = os.path.join("perfbench", "run.py")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
RESULTS = os.path.join(BUILD, "perfbench-results")


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


def report(workload, seed, trace):
    with open(os.path.join(
            RESULTS, f"{workload}-seed{seed}-trace{trace}.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.manifest = manifest()
        cls.workloads = [w["name"] for w in cls.manifest["workloads"]]
        cls.results = {}
        for w in cls.workloads:
            for seed, trace in ((7, 1), (7, 0), (8, 0)):
                proc = run(w, seed, trace)
                if proc.returncode != 0:
                    raise AssertionError(
                        f"{w} seed {seed} trace {trace} failed:\n{proc.stderr}")
                line = proc.stdout.strip().splitlines()[-1]
                cls.results[(w, seed, trace)] = json.loads(line)

    def test_metrics_are_declared(self):
        for (w, seed, trace), r in self.results.items():
            declared = self.manifest["per_layer" if trace else "end_to_end"]
            units = {m["name"]: m["unit"] for m in declared}
            with self.subTest(workload=w, seed=seed, trace=trace):
                self.assertEqual(set(r["metrics"]), set(units))
                for name, m in r["metrics"].items():
                    self.assertEqual(m["unit"], units[name])
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)

    def test_same_seed_repeats(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                traced, plain = report(w, 7, 1), report(w, 7, 0)
                self.assertEqual(traced["digest"], plain["digest"])
                self.assertEqual(traced["accuracy"], plain["accuracy"])
                metrics = self.results[(w, 7, 0)]["metrics"]
                for name, value in plain["accuracy"].items():
                    self.assertEqual(metrics[name]["value"], value)

    def test_other_seed_changes_inputs_not_metric_set(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                self.assertNotEqual(report(w, 7, 0)["digest"],
                                    report(w, 8, 0)["digest"])
                self.assertEqual(set(self.results[(w, 7, 0)]["metrics"]),
                                 set(self.results[(w, 8, 0)]["metrics"]))

    def test_traced_spans_nest(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                path = os.path.join(RESULTS, f"{w}-seed7-trace1.trace.json")
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(events)
                by_id = {e["args"]["id"]: e for e in events}
                for e in events:
                    parent = e["args"]["parent"]
                    if parent == 0:
                        continue
                    p = by_id[parent]
                    self.assertGreaterEqual(e["ts"], p["ts"], e["name"])
                    self.assertLessEqual(e["ts"] + e["dur"],
                                         p["ts"] + p["dur"], e["name"])


class StrippedCheckoutTest(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(BUILD, "perfbench-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"))
            proc = run("characterize", 1, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
