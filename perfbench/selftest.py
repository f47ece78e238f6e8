"""Self-checks of the benchmark, including its negative control.

Run from the root of a tiltval checkout:

    python3 perfbench/selftest.py

Each workload runs one short pass with deliberately wrong expected
answers and must report failures.  Further checks cover the verdict
timeout, the tracer's patch-and-restore, a traced run's byte identity,
and the refusal to run outside a checkout.  The file is not named
``test_*.py`` so that the repository's pytest run does not collect these
benchmark runs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import unittest

import run
import workloads

ROOT = os.getcwd()


def _flip_exit(passes):
    for v in (v for p in passes for v in p):
        v.expect_exit = (v.expect_exit + 1) % 3


def _wrong_digest(passes):
    for v in (v for p in passes for v in p):
        v.expect_digest = "0" * 64


def _wrong_profile(passes):
    for v in (v for p in passes for v in p):
        v.expect_profiles = [row[::-1] for row in v.expect_profiles]


def _failed(result: dict) -> int:
    return sum(1 for r in result["rows"] if r.get("failure"))


class NegativeControl(unittest.TestCase):
    """A wrong expected answer must drive failed_ratio above 0."""

    def check(self, name: str, tamper) -> None:
        result = run.run_workload(ROOT, name, seed=7, seconds=1, trace=False, tamper=tamper)
        self.assertGreater(_failed(result), 0)
        metrics, notes = run.end_to_end(result)
        self.assertGreater(notes["failed_ratio"], 0)
        self.assertLess(metrics["verdict_ok_ratio"][0], 1)

    def test_cold_mix_wrong_exit_code(self):
        self.check("cold-mix", _flip_exit)

    def test_wide_ell_wrong_digest(self):
        self.check("wide-ell", _wrong_digest)

    def test_deep_precision_wrong_exit_code(self):
        self.check("deep-precision", _flip_exit)

    def test_generator_family_wrong_profile(self):
        self.check("generator-family", _wrong_profile)


class Harness(unittest.TestCase):
    def test_timeout_counts_as_failed(self):
        saved = run.VERDICT_TIMEOUT_S
        run.VERDICT_TIMEOUT_S = 0.001
        try:
            result = run.run_workload(ROOT, "generator-family", seed=3, seconds=1, trace=False)
        finally:
            run.VERDICT_TIMEOUT_S = saved
        rows = result["rows"]
        self.assertEqual(_failed(result), len(rows))
        self.assertTrue(all("timed out" in r["failure"] for r in rows))

    def test_right_answers_pass_and_trace_keeps_bytes(self):
        result = run.run_workload(ROOT, "cold-mix", seed=5, seconds=1, trace=True)
        self.assertEqual(_failed(result), 0)
        self.assertTrue(all(r.get("agg") for r in result["rows"]))
        metrics, _ = run.per_layer(result)
        self.assertGreater(metrics["tilt.is_prime.calls"][0], 0)
        self.assertGreater(metrics["reporting.bytes"][0], 0)

    def test_same_seed_same_plan(self):
        a = workloads.plan("deep-precision", 11, 2)
        b = workloads.plan("deep-precision", 11, 2)
        self.assertEqual([v.config_text for p in a for v in p], [v.config_text for p in b for v in p])

    def test_refuses_outside_a_checkout(self):
        results = os.path.join(run.HERE, "results")
        os.makedirs(results, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=results) as empty:
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "cold-mix",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=empty, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class TracerPatching(unittest.TestCase):
    def setUp(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import tiltval.cli  # noqa: F401  (loads every module the tracer patches)

    def tearDown(self):
        sys.path.remove(os.path.join(ROOT, "src"))

    def test_patches_every_namespace_and_restores(self):
        import tiltval
        import tracer
        from tiltval import ansatz, cli, tilt, witt

        originals = {m: m.tilt_pow for m in (tilt, ansatz, witt, cli, tiltval)}
        t = tracer.Tracer()
        t.install()
        try:
            for module, original in originals.items():
                self.assertIsNot(module.tilt_pow, original, module.__name__)
            t.begin_verdict(0)
            x = tilt.TiltElement.monomial(3, 1)
            ansatz.tilt_pow(x, 4)
            self.assertEqual(t.verdict_aggregates()["tilt.tilt_pow"][0], 1)
        finally:
            t.uninstall()
        for module, original in originals.items():
            self.assertIs(module.tilt_pow, original, module.__name__)

    def test_missing_target_is_absent_not_a_crash(self):
        import tracer

        tracer.TARGETS["tilt.no_such_kernel"] = ("tilt", "no_such_kernel")
        try:
            t = tracer.Tracer()
            t.install()
            t.uninstall()
        finally:
            del tracer.TARGETS["tilt.no_such_kernel"]
        self.assertEqual(t.absent, ["tilt.no_such_kernel"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
