"""Tests of the benchmark itself.  Run from the repository root:

  python3 bench/selftest.py

The file name keeps pytest from collecting it with the library's tests.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_result(*args) -> dict:
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError(done.stderr)
    return json.loads(done.stdout.splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_spec_lists_what_the_code_reports(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]},
                         tracing.per_layer_units())
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         ["verify", "numeric", "skew", "cli"])

    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            result = bench_result("--workload", "skew", "--seed", "3", "--seconds", "1",
                                  "--trace", trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                             {m["name"]: m["unit"] for m in SPEC[section]})

    def test_verify_suites_are_the_library_suites(self):
        from hyperforms.verify import SUITES

        self.assertEqual(tuple(SUITES), tracing.VERIFY_SUITES)


class Inputs(unittest.TestCase):
    def test_one_seed_gives_one_digest(self):
        code = "import sys, inputs; print(inputs.digest(sys.argv[1], 5))"
        for workload in ("verify", "numeric", "skew", "cli"):
            digests = {subprocess.run([sys.executable, "-c", code, workload], cwd=BENCH,
                                      capture_output=True, text=True).stdout for _ in range(2)}
            self.assertEqual(len(digests), 1)
            self.assertNotEqual(digests.pop().strip(), inputs.digest(workload, 6))

    def test_permutation_is_a_bijection(self):
        for size in (1, 2, 19, 1000, 4097):
            perm = inputs.Permutation(size, b"k")
            self.assertEqual(sorted(perm(n) for n in range(size)), list(range(size)))

    def test_forms_have_nonzero_leading_coefficients(self):
        stream = inputs.Stream("numeric", 1)
        for n in range(200):
            for cs in stream.draw("res44", n):
                self.assertNotEqual(cs[0], 0)
                self.assertTrue(all(-inputs.R <= c <= inputs.R for c in cs))


class Tracing(unittest.TestCase):
    def test_spans_nest_and_uninstall_restores(self):
        import hyperforms
        from hyperforms import polarisation

        original = hyperforms.hyperdet
        f = hyperforms.parse_poly("x^3 + 2*x*y^2 - y^3", ("x", "y"))
        recorder = tracing.Recorder().install()
        try:
            self.assertIsNot(polarisation.hyperdet, original)  # bound by from-import
            hyperforms.hyperhessian(f, (1, 1, 1), ("x", "y"))
        finally:
            recorder.uninstall()
        self.assertIs(polarisation.hyperdet, original)
        spans = recorder.spans
        self.assertEqual(spans["polarisation.hyperhessian"][0], 1)
        self.assertEqual(spans["hyperdet.hyperdet"][0], 1)
        self.assertEqual(spans["hyperdet.binary_form_disc.d2"][0], 1)
        total = spans["polarisation.hyperhessian"][2]
        self_sum = sum(rec[1] for name, rec in spans.items()
                       if not name.startswith("hyperdet.binary_form_disc.d"))
        self.assertLessEqual(self_sum, total * 1.0001)
        self.assertGreater(spans["poly.MultiPoly.mul"][0], 0)


if __name__ == "__main__":
    unittest.main()
