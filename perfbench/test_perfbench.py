"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench        (or: python3 perfbench/test_perfbench.py)

Run from the root of a checkout.  The smoke runs use the small workloads in
``workloads.SMOKE_WORKLOADS`` and take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from run import count_failures  # noqa: E402
from spans import PER_LAYER, Tracer, span_times  # noqa: E402
from workloads import SMOKE_WORKLOADS, WORKLOADS, check_pass, load_expected  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


class SmokeRun(unittest.TestCase):
    def test_every_metric_appears_with_its_unit(self):
        for trace, declared in (("0", "end_to_end"), ("1", "per_layer")):
            units = {m["name"]: m["unit"] for m in BENCHMARK[declared]}
            for name in SMOKE_WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    proc = run_bench("--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, units)
                    self.assertIn("fail_ratio", proc.stdout)

    def test_refuses_to_run_without_the_program(self):
        bare = ROOT / ".bench_build" / "perfbench" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = run_bench("--workload", "sens-subdet", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


class Gate(unittest.TestCase):
    def setUp(self):
        self.wl = SMOKE_WORKLOADS["smoke-sens"]
        self.expected = load_expected(self.wl.name)
        self.output = dict(self.expected["outputs"]["any"], runtime_ms=12)
        self.sha = self.expected["instance_sha256"]

    def check(self, output=None, exit_code=0, expected=None, sha=None):
        stdout = json.dumps(output if output is not None else self.output)
        errors, _ = check_pass(
            self.wl, expected or self.expected, 3, exit_code, stdout, sha or self.sha
        )
        return errors

    def test_recorded_output_passes(self):
        self.assertEqual(self.check(), [])

    def test_tampered_output_is_counted_as_a_failure(self):
        tampered = json.loads(json.dumps(self.output))
        tampered["witness"]["l1"][0][0] = "2"
        errors = self.check(tampered)
        self.assertIn("canonical output differs from the recorded output", errors)
        records = [
            {"errors": self.check(), "output_sha256": "a"},
            {"errors": errors, "output_sha256": "a"},
        ]
        self.assertEqual(count_failures(records), 1)

    def test_rerecorded_wrong_paper_value_still_fails(self):
        tampered = json.loads(json.dumps(self.output))
        tampered["measured"]["linf"] = "9"
        recorded = {k: v for k, v in tampered.items() if k != "runtime_ms"}
        rerecorded = {"instance_sha256": self.sha, "outputs": {"any": recorded}}
        errors = self.check(tampered, expected=rerecorded)
        self.assertEqual(errors, ["paper value measured.linf is '9', expected '8'"])

    def test_exit_code_and_identity_are_checked(self):
        self.assertEqual(self.check(exit_code=1), ["exit code 1"])
        self.assertEqual(len(self.check(sha="0" * 64)), 1)

    def test_passes_that_disagree_fail(self):
        records = [{"errors": [], "output_sha256": "a"}, {"errors": [], "output_sha256": "b"}]
        self.assertEqual(count_failures(records), 1)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # A [0,10] has children B [1,4] and C [3,6] (overlapping); B has child D [2,3].
        names = ["A", "B", "D", "C", "B"]
        starts = [0.0, 1.0, 2.0, 3.0, 20.0]
        ends = [10.0, 4.0, 3.0, 6.0, 21.0]
        parents = [-1, 0, 1, 0, -1]
        t = span_times(names, starts, ends, parents)
        self.assertEqual(t["A"], {"calls": 1, "busy_s": 10.0, "self_s": 5.0})
        self.assertEqual(t["B"], {"calls": 2, "busy_s": 4.0, "self_s": 3.0})
        self.assertEqual(t["C"], {"calls": 1, "busy_s": 3.0, "self_s": 3.0})
        self.assertEqual(t["D"], {"calls": 1, "busy_s": 1.0, "self_s": 1.0})

    def test_recursive_spans_are_not_counted_twice_in_busy_time(self):
        t = span_times(["f", "f"], [0.0, 1.0], [4.0, 2.0], [-1, 0])
        self.assertEqual(t["f"], {"calls": 2, "busy_s": 4.0, "self_s": 4.0})


class Tracing(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        sys.path.insert(0, str(ROOT / "src"))
        import ilplab
        import ilplab.cli  # noqa: F401  (loads every layer)

        modules = [ilplab, ilplab.lp, ilplab.ilp, ilplab.hull, ilplab.measures]
        original = ilplab.lp.lp_solve
        tracer = Tracer()
        with tracer.installed():
            for mod in modules:
                self.assertIsNot(mod.lp_solve, original, mod.__name__)
            self.assertIs(ilplab.hull.lp_solve, ilplab.measures.lp_solve)
            ilplab.hull.hull_membership([[0, 0], [2, 0]], [1, 0])
        for mod in modules:
            self.assertIs(mod.lp_solve, original)
        self.assertEqual(tracer.names[:2], ["hull.hull_membership", "exactla.vec"])
        self.assertIn("lp.lp_solve", tracer.names)
        self.assertEqual(tracer.parents[tracer.names.index("lp.lp_solve")], 0)


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        self.assertEqual(
            BENCHMARK["workloads"], [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
        )
        self.assertEqual(
            BENCHMARK["per_layer"], [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER]
        )

    def test_compare_refuses_different_identities(self):
        base = {"identity": {"workload": "fuzz-random", "seed": 1}, "trace": 0, "metrics": {}}
        other = dict(base, identity={"workload": "fuzz-random", "seed": 2})
        self.assertEqual(compare.comparable(base, base), [])
        self.assertEqual(compare.comparable(base, other), ["identity seed: 1 != 2"])


if __name__ == "__main__":
    unittest.main()
