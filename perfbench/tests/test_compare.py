"""Tests of run.py's compare step: results from different fingerprints are
refused, loudly; an incorrect new result fails; comparable results are
checked against the bounds."""
import copy
import importlib.util
import io
import os
import unittest

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(os.path.dirname(__file__), "..", "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

BASE = {
    "workload": "horner", "seed": 1, "seconds": 10.0, "trace": 0,
    "fingerprint": {"nproc": 4, "affinity": "0xf", "cpu_model": "X",
                    "l2": "2048K", "l3": "307200K", "compiler": "g++ 12",
                    "build_type": "Release", "pls_observe": True},
    "correct": True, "attempted": 100, "failed": 0,
    "metrics": {
        "latency_p50_ms": {"value": 50.0, "unit": "ms", "samples": 100},
        "throughput_melem_s": {"value": 300.0, "unit": "Melem/s",
                               "samples": 100},
    },
}
LIMITS = {"latency_p50_ms": ("lower", 0.1),
          "throughput_melem_s": ("higher", 0.1)}


def compare(base, new):
    out, err = io.StringIO(), io.StringIO()
    return run.compare(base, new, LIMITS, out=out, err=err), out.getvalue(), \
        err.getvalue()


class FingerprintRefusal(unittest.TestCase):
    def test_different_nproc_is_refused(self):
        new = copy.deepcopy(BASE)
        new["fingerprint"]["nproc"] = 1
        status, out, err = compare(BASE, new)
        self.assertEqual(status, 3)
        self.assertIn("REFUSED", err)
        self.assertIn("nproc", err)
        self.assertEqual(out, "")  # no numbers printed side by side

    def test_any_fingerprint_field_is_refused(self):
        for key in BASE["fingerprint"]:
            new = copy.deepcopy(BASE)
            new["fingerprint"][key] = "other"
            status, _, err = compare(BASE, new)
            self.assertEqual(status, 3, key)
            self.assertIn(key, err)

    def test_different_workload_is_refused(self):
        new = copy.deepcopy(BASE)
        new["workload"] = "service"
        self.assertEqual(compare(BASE, new)[0], 3)


class Correctness(unittest.TestCase):
    def test_failed_operations_fail_with_equal_timings(self):
        new = copy.deepcopy(BASE)
        new["failed"] = 3
        new["correct"] = False
        status, _, err = compare(BASE, new)
        self.assertEqual(status, 1)
        self.assertIn("INCORRECT", err)
        self.assertIn("3 of 100", err)

    def test_incorrect_result_without_failed_operations_fails(self):
        # e.g. observe.records_per_op != 1, or the thread budget exceeded
        new = copy.deepcopy(BASE)
        new["correct"] = False
        status, _, err = compare(BASE, new)
        self.assertEqual(status, 1)
        self.assertIn("INCORRECT", err)


class BoundCheck(unittest.TestCase):
    def test_same_fingerprint_within_bounds(self):
        new = copy.deepcopy(BASE)
        new["metrics"]["latency_p50_ms"]["value"] = 52.0
        status, out, _ = compare(BASE, new)
        self.assertEqual(status, 0)
        self.assertIn("latency_p50_ms", out)

    def test_regression_beyond_bound(self):
        new = copy.deepcopy(BASE)
        new["metrics"]["throughput_melem_s"]["value"] = 250.0  # -17%
        status, out, _ = compare(BASE, new)
        self.assertEqual(status, 1)
        self.assertIn("REGRESSION", out)


if __name__ == "__main__":
    unittest.main()
