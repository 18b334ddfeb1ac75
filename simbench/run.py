#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The benchmark (simbench/CMakeLists.txt) is
configured as a Release build with the simulator sources in src/, in
$CARGO_TARGET_DIR/simbench (default .bench_build/simbench).  Build output goes
to stderr only when the build fails; the benchmark's own output, whose last
line is the JSON result, goes to stdout.  With --trace 1 the traced pass's
spans are written to spans_<workload>_<seed>.json in the build directory.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "simbench")


def _run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("run.py: command failed: " + " ".join(cmd))


def build():
    """Configures (once) and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no simulator sources at %s; the benchmark builds them from source"
                 % os.path.join(ROOT, "src"))
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        _run_quiet(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    _run_quiet(["cmake", "--build", bdir, "-j", jobs])
    return os.path.join(bdir, "simbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(build_dir(), "spans_%s_%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("run.py: the benchmark did not finish within %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
