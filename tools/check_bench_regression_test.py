#!/usr/bin/env python3
"""Self-test for tools/check_bench_regression.py.

Builds throwaway bench artifacts and baselines in a temp directory and checks
every gate outcome: within-threshold slowdowns pass, beyond-threshold
slowdowns fail, speedups pass, missing baselines skip, and malformed
artifacts fail hard.  Registered in ctest as `check_bench_regression_selftest`.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(HERE, "check_bench_regression.py")


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)


def run_gate(files, baseline_dir, threshold=None):
    cmd = [sys.executable, GATE, "--baseline-dir", baseline_dir]
    if threshold is not None:
        cmd += ["--threshold", str(threshold)]
    cmd += files
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    failures = []

    def check(label, got_code, want_code, out, want_fragment=None):
        if got_code != want_code:
            failures.append(f"{label}: expected exit {want_code}, got "
                            f"{got_code}: {out.strip()}")
        elif want_fragment and want_fragment not in out:
            failures.append(f"{label}: expected output mentioning "
                            f"{want_fragment!r}, got: {out.strip()}")

    with tempfile.TemporaryDirectory() as tmp:
        baselines = os.path.join(tmp, "baselines")
        os.mkdir(baselines)
        write_json(os.path.join(baselines, "BENCH_fleet.json"),
                   {"bench": "fleet", "events_per_sec": 1000000.0})

        # 5% slower than baseline: inside the default 10% threshold.
        ok_path = os.path.join(tmp, "BENCH_fleet.json")
        write_json(ok_path, {"bench": "fleet", "events_per_sec": 950000.0})
        code, out = run_gate([ok_path], baselines)
        check("within-threshold", code, 0, out, "ok BENCH_fleet.json")

        # 15% slower: regression.
        write_json(ok_path, {"bench": "fleet", "events_per_sec": 850000.0})
        code, out = run_gate([ok_path], baselines)
        check("regression", code, 1, out, "FAIL BENCH_fleet.json")

        # The same artifact passes a looser explicit threshold.
        code, out = run_gate([ok_path], baselines, threshold=0.20)
        check("loose-threshold", code, 0, out)

        # Faster than baseline: never fails.
        write_json(ok_path, {"bench": "fleet", "events_per_sec": 2000000.0})
        code, out = run_gate([ok_path], baselines)
        check("speedup", code, 0, out)

        # No baseline: note + skip.
        new_path = os.path.join(tmp, "BENCH_new.json")
        write_json(new_path, {"bench": "new", "events_per_sec": 5.0})
        code, out = run_gate([new_path], baselines)
        check("missing-baseline", code, 0, out, "no baseline")

        # Malformed artifact (no events_per_sec): hard failure.
        bad_path = os.path.join(tmp, "BENCH_bad.json")
        write_json(bad_path, {"bench": "bad"})
        code, out = run_gate([bad_path], baselines)
        check("malformed", code, 1, out, "events_per_sec")

        # One bad file fails the batch even when the others pass.
        code, out = run_gate([new_path, ok_path, bad_path], baselines)
        check("batch", code, 1, out)

    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print("ok: 7 regression-gate scenarios behaved as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
