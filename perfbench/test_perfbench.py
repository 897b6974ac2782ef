#!/usr/bin/env python3
"""Tests of the benchmark itself (smoke-size inputs; the first run builds).

    python3 perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BUILD_DIR = ROOT / ".bench_build" / "perfbench"


def bench(*args, root=ROOT):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=900)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    """Every workload at smoke size, untraced and traced."""

    def run_workload(self, name, trace):
        done = bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace),
                     "--scale", "smoke")
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        result = last_json(done.stdout)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
        self.assertEqual(set(result["metrics"]), set(want))
        for metric, entry in result["metrics"].items():
            self.assertTrue(isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]),
                            f"{name}: {metric} = {entry['value']!r}")
            self.assertEqual(entry["unit"], want[metric], f"{name}: {metric}")
        return result

    def test_every_metric_is_emitted_finite_with_its_unit(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.run_workload(w["name"], 0)
                for metric, entry in result["metrics"].items():
                    self.assertGreater(entry["value"], 0, f"{w['name']}: {metric}")
                traced = self.run_workload(w["name"], 1)["metrics"]
                self.assertNotEqual(traced["cli.unattributed_s"]["value"], 0)

    def test_known_outcomes(self):
        # The layered project's two flow ops fail PDR065 in every pass and
        # are counted, not dropped; the run stays correct.
        flow = self.run_workload("flow-20k", 0)
        self.assertEqual(flow["failed"] * 3, flow["attempted"])
        self.assertAlmostEqual(flow["metrics"]["success_frac"]["value"], 2 / 3)
        sparse = self.run_workload("serve-sparse", 0)
        self.assertEqual(sparse["failed"], 0)
        self.assertEqual(sparse["metrics"]["success_frac"]["value"], 1.0)
        explore = self.run_workload("explore-2k", 1)["metrics"]
        self.assertEqual(explore["flow.failed_points"]["value"], 0)
        self.assertGreater(explore["flow.explore_s"]["value"], 0)


class FailureAccounting(unittest.TestCase):
    def test_truncated_project_counts_as_exactly_one_failed_op(self):
        pdrflow, tool = run.build(BUILD_DIR)
        work = BUILD_DIR / "work" / "test-truncated"
        work.mkdir(parents=True, exist_ok=True)
        run.generate(tool, [run.Project("good", "random", 300, 20, 2)], {}, work, seed=1)
        text = (work / "good.project").read_text()
        (work / "cut.project").write_text(text[: len(text) // 2])
        ops = [run.Op("check", "good", work / "good.project", 300, ["--deep"]),
               run.Op("adequation", "cut", work / "cut.project", 300),
               run.Op("adequation", "good", work / "good.project", 300)]
        results = [run.run_op(pdrflow, op, work, {}) for op in ops]
        self.assertEqual([r.ok for r in results], [True, False, True])
        self.assertFalse(results[1].known_defect)
        self.assertEqual(results[1].items, 0)

    def test_only_a_pdr065_only_layered_failure_keeps_the_run_correct(self):
        pdrflow, tool = run.build(BUILD_DIR)
        work = BUILD_DIR / "work" / "test-known-defect"
        work.mkdir(parents=True, exist_ok=True)
        run.generate(tool, [run.Project("layered", "layered", 300, 20, 4)], {}, work, seed=1)
        text = (work / "layered.project").read_text()
        (work / "cut.project").write_text(text[: len(text) // 2])

        def run_check(path, expected):
            op = run.Op("check", "layered", work / path, 300, ["--deep"], pdr065_expected=expected)
            return run.run_op(pdrflow, op, work, {})

        known = run_check("layered.project", True)
        self.assertFalse(known.ok)
        self.assertTrue(known.known_defect)
        self.assertTrue(run.is_correct([known], []))
        # The same PDR065 report on a project that must pass, and a parse
        # error on the layered project, both make the run incorrect.
        for failure in (run_check("layered.project", False), run_check("cut.project", True)):
            self.assertFalse(failure.known_defect)
            self.assertFalse(run.is_correct([known, failure], []))

        report = (work / "check-layered.stdout").read_bytes()
        self.assertFalse(run.only_pdr065(report))  # the cut project's parse error
        pdr065 = b"error PDR065 [buffer a_to_b on IL]: buffer 'a_to_b' is sent again\n"
        hazard = b"error PDR101 [region D1]: execute during reconfiguration\n"
        self.assertTrue(run.only_pdr065(pdr065 * 2 + b"2 error(s), 0 warning(s)\n"))
        self.assertFalse(run.only_pdr065(pdr065 * 2 + hazard + b"3 error(s), 0 warning(s)\n"))
        self.assertFalse(run.only_pdr065(pdr065 * 2 + b"3 error(s), 0 warning(s)\n"))

    def test_changed_stdout_fails_the_later_pass(self):
        pdrflow, tool = run.build(BUILD_DIR)
        work = BUILD_DIR / "work" / "test-digest"
        work.mkdir(parents=True, exist_ok=True)
        run.generate(tool, [run.Project("p", "streaming", 300, 8, 2)], {}, work, seed=1)
        op = run.Op("adequation", "p", work / "p.project", 300)
        digests = {}
        self.assertTrue(run.run_op(pdrflow, op, work, digests).ok)
        digests[("adequation", "p")] = "0" * 64
        self.assertFalse(run.run_op(pdrflow, op, work, digests).ok)


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources_and_prints_no_result(self):
        bare = BUILD_DIR / "work" / "test-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = bench("--workload", "serve-sparse", "--seed", "1", "--seconds", "1", "--trace", "0",
                     root=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("metrics", done.stdout)


if __name__ == "__main__":
    unittest.main()
