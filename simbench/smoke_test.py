#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at reduced scale (about a minute).

    python3 simbench/smoke_test.py

Builds the benchmark like run.py, then for every workload in BENCHMARK.json:
  * every end-to-end metric (--trace 0) and every per-layer metric (--trace 1)
    is emitted, with the unit BENCHMARK.json gives it, and every check passes;
  * the same seed gives identical simulated metrics, and another seed changes
    them;
  * the traced pass agrees with the untraced one: a --trace 1 run checks that
    its traced pass reproduces its untraced pass bit for bit, and reports
    correct=false otherwise.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SIMULATED = ("energy_kj", "mean_response_ms", "p99_response_ms", "goal_met_pct")


def fail(msg):
    sys.exit("FAIL: " + msg)


def bench(binary, workload, seed, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace), "--scale", "smoke"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s seed %d trace %d: checks failed\n%s" % (workload, seed, trace, out))
    return result["metrics"]


def expect_metrics(workload, metrics, declared):
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        fail("%s: metrics %s, declared %s" % (workload, sorted(metrics), sorted(want)))
    for name, unit in want.items():
        if metrics[name]["unit"] != unit:
            fail("%s: %s has unit %s, declared %s" % (workload, name, metrics[name]["unit"], unit))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    for workload in [w["name"] for w in spec["workloads"]]:
        e2e = bench(binary, workload, 1, 0)
        expect_metrics(workload, e2e, spec["end_to_end"])
        layers = bench(binary, workload, 1, 1)
        expect_metrics(workload, layers, spec["per_layer"])

        again = bench(binary, workload, 1, 0)
        for name in SIMULATED:
            if again[name]["value"] != e2e[name]["value"]:
                fail("%s: %s differs between two runs of seed 1" % (workload, name))
        other = bench(binary, workload, 2, 0)
        if all(other[name]["value"] == e2e[name]["value"] for name in SIMULATED[:3]):
            fail("%s: seed 2 gives the same simulated metrics as seed 1" % workload)
        print("ok   %s" % workload)
    print("PASS")


if __name__ == "__main__":
    main()
