"""Self-test of the benchmark harness, at tiny sizes.

    python3 perfbench/selftest.py

Checks that inputs follow the seed, that a flipped route verdict or a
flipped CLI output counts as a failed op, that a run does at least its
minimum op count, that the sweep walks an exhaustive transversal in order,
that the printed metric names and units match BENCHMARK.json (and that
field construction is counted in set-up, not in the ops), and that the
benchmark refuses to run without the library sources.  Runs in about fifteen seconds.
"""

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys
import unittest

import run

RUN = os.path.join(run.ROOT, "perfbench", "run.py")


def _run(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


class InputDigestTest(unittest.TestCase):
    def test_seed_determines_inputs(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                first = run.digest(run.make_workload(name, 7)[2])
                again = run.digest(run.make_workload(name, 7)[2])
                other = run.digest(run.make_workload(name, 8)[2])
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)


class FlippedVerdictTest(unittest.TestCase):
    def test_flipped_bruteforce_verdict_fails_the_op(self):
        _, workload, ops = run.make_workload("sweep", 1)
        lib = workload.lib
        original = lib.is_lcd_bruteforce
        flipped = []

        def flip_once(spec, code=None):
            report = original(spec, code=code)
            if flipped:
                return report
            flipped.append(spec)
            return dataclasses.replace(report, is_lcd=not report.is_lcd)

        lib.is_lcd_bruteforce = flip_once
        try:
            phase = run.measure(workload, ops[:3], seconds=0)
        finally:
            lib.is_lcd_bruteforce = original
        self.assertEqual(len(phase.latencies), 3)
        self.assertEqual(dict(phase.failures), {"route-disagreement": 1})

    def test_flipped_cli_verdict_fails_the_op(self):
        _, workload, ops = run.make_workload("cli", 1)
        op = next(op for op in ops if op[0] == "lcd")
        execute = workload.execute

        def flip_first_line(op):
            proc = execute(op)
            lines = proc.stdout.splitlines()
            first = json.loads(lines[0])
            first["lcd"] = not first["lcd"]
            proc.stdout = "\n".join([json.dumps(first), *lines[1:]]) + "\n"
            return proc

        workload.execute = flip_first_line
        phase = run.measure(workload, [op], seconds=0)
        self.assertEqual(dict(phase.failures), {"cli-verdict": 1})


class MeasureTest(unittest.TestCase):
    def test_runs_rounds_until_min_ops(self):
        class Stub:
            def make_round(self, index):
                return [index] * 3

            def execute(self, op):
                return [op]

            def check(self, op, result):
                return result

            def verdict_count(self, op, verdicts):
                return len(verdicts)

        phase = run.measure(Stub(), [0] * 3, seconds=0, min_ops=7)
        self.assertEqual((phase.rounds, len(phase.latencies), phase.verdicts), (3, 9, 9))


class SweepMixTest(unittest.TestCase):
    def test_exhaustive_transversal_is_walked_in_order(self):
        _, workload, ops = run.make_workload("sweep", 1)
        key, size = (7, 1), 3
        walked = [op for i in range(12) for op in (ops if i == 0 else workload.make_round(i))
                  if op[0] == "set" and op[1] == key and len(op[2]) == size]
        self.assertEqual(len(walked), 36)
        self.assertEqual({op[2] for op in walked}, {workload.subsets[key, size][0]})
        self.assertEqual([op[3] for op in walked],
                         [(1, *t) for t in itertools.product(range(1, 7), repeat=2)])
        self.assertEqual([op[4] for op in walked], [True] + [False] * 35)


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            self.spec = json.load(fh)

    def test_workloads_match(self):
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]),
                         sorted(run.WORKLOADS))

    def test_printed_metrics_match(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                proc = _run(RUN, "--workload", "sweep", "--seed", "3",
                            "--seconds", "0.1", "--trace", str(trace))
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"])
                expected = {m["name"]: m["unit"] for m in self.spec[key]}
                printed = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(printed, expected)
                if trace:
                    # The four fields are built in set-up, none in the ops.
                    metrics = result["metrics"]
                    self.assertEqual(metrics["setup.field.GF.calls"]["value"], 4)
                    self.assertEqual(metrics["field.GF.calls"]["value"], 0)


class MissingSourcesTest(unittest.TestCase):
    def test_refuses_without_library(self):
        bare = os.path.join(run.ROOT, ".perfbench", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(os.path.join(run.ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            proc = _run("perfbench/run.py", "--workload", "sweep", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
