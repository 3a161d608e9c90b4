#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source and run it.

  python3 perfbench/run.py --workload horner|pipeline|service --seed N \
      --seconds S --trace 0|1 [--out result.json]
  python3 perfbench/run.py compare BASE.json NEW.json
  python3 perfbench/run.py selftest

Run from the repository root. The first run configures and builds the
benchmark (CMake, Release) into .bench_build/perfbench; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's result object.

`compare` reads two documents written with --out and refuses, with exit
status 3, to compare results whose host fingerprints differ. It fails,
with exit status 1, when the new result is incorrect or a metric worsened
by more than its bound.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "pls.hpp")):
        fail("library sources not found under %s/src; run from a full checkout"
             % ROOT)
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def run(argv):
    exe = build("perfbench")
    sys.stdout.flush()
    try:
        proc = subprocess.run([exe] + argv, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    return proc.returncode


# ---- compare ---------------------------------------------------------------

def load(path):
    with open(path) as f:
        return json.load(f)


def bounds():
    """Metric name -> (better, bound) from BENCHMARK.json, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    out = {}
    if os.path.isfile(path):
        spec = load(path)
        for m in spec.get("end_to_end", []) + spec.get("per_layer", []):
            out[m["name"]] = (m["better"], m.get("bound"))
    return out


def compare(base, new, limits, out=sys.stdout, err=sys.stderr):
    """Print a metric-by-metric comparison. Returns 3 when the results are
    not comparable (different fingerprint, workload or mode), 1 when the
    new result is incorrect (an operation failed) or a metric worsened by
    more than its bound, else 0."""
    if base["fingerprint"] != new["fingerprint"]:
        print("REFUSED: results come from different hosts or builds; "
              "fingerprints differ:", file=err)
        for key in sorted(set(base["fingerprint"]) | set(new["fingerprint"])):
            a = base["fingerprint"].get(key)
            b = new["fingerprint"].get(key)
            if a != b:
                print("  %-12s %r != %r" % (key, a, b), file=err)
        return 3
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            print("REFUSED: %s differs (%r != %r)" % (key, base[key], new[key]),
                  file=err)
            return 3
    status = 0
    if new["failed"] > 0 or not new["correct"]:
        print("INCORRECT: the new result failed %d of %d operations%s"
              % (new["failed"], new["attempted"],
                 "" if new["failed"] else " or broke a run invariant"),
              file=err)
        status = 1
    print("%-34s %14s %14s %9s  %s" % ("metric", "base", "new", "change",
                                      "verdict"), file=out)
    for name, m in base["metrics"].items():
        if name not in new["metrics"]:
            print("%-34s missing from the new result" % name, file=out)
            status = 1
            continue
        a, b = m["value"], new["metrics"][name]["value"]
        change = (b / a - 1.0) if a else float("nan")
        better, bound = limits.get(name, (None, None))
        verdict = ""
        if better and bound is not None and a:
            worse = change if better == "lower" else -change
            verdict = "REGRESSION" if worse > bound else "ok (bound %g)" % bound
            if worse > bound:
                status = 1
        print("%-34s %14.6g %14.6g %+8.1f%%  %s"
              % (name, a, b, 100.0 * change, verdict), file=out)
    return status


# ---- selftest --------------------------------------------------------------

def selftest():
    exe = build("perfbench_tests")
    status = subprocess.run([exe]).returncode
    suite = unittest.defaultTestLoader.discover(os.path.join(HERE, "tests"),
                                                pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if status == 0 and ok else 1


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare BASE.json NEW.json")
        return compare(load(argv[1]), load(argv[2]), bounds())
    if argv[:1] == ["selftest"]:
        return selftest()
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
