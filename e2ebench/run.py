#!/usr/bin/env python3
"""Builds and runs the end-to-end CrAQR benchmark.

Run from the repository root:

  python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 e2ebench/run.py --smoke      # checker self-test + every workload, small

The benchmark is its own CMake package (e2ebench/CMakeLists.txt) that
compiles the library sources under src/ into .bench_build/e2ebench. The
last line of standard output is the JSON result of the run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
TRACE_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("city_engine", "stream_inproc", "stream_sharded")
RUN_TIMEOUT_S = 175


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.cc")):
        fail("the library sources (src/) are not next to the benchmark")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(args, timeout=RUN_TIMEOUT_S):
    try:
        return subprocess.run([os.path.join(BUILD, args[0])] + args[1:],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(args))


def smoke():
    """Checker self-test, then every workload at its small size, untraced
    and traced, with the same checks as a full run."""
    ok = True
    selftest = run_binary(["checker_selftest"])
    sys.stdout.write(selftest.stdout)
    ok &= selftest.returncode == 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            done = run_binary(["craqr_e2e", "--workload", workload, "--seed",
                               "1", "--seconds", "1", "--trace", trace,
                               "--smoke", "--trace-dir", TRACE_DIR])
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            passed = (done.returncode == 0 and result.get("correct") is True
                      and result.get("failed") == 0)
            ok &= passed
            print("%-15s trace=%s %s (%s operations)"
                  % (workload, trace, "ok" if passed else "FAILED",
                     result.get("attempted")))
    print("smoke: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="checker self-test and small runs of every "
                             "workload")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds,
                                   args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build()
    if args.smoke:
        return smoke()
    done = run_binary(["craqr_e2e", "--workload", args.workload,
                       "--seed", str(args.seed), "--seconds",
                       repr(args.seconds), "--trace", str(args.trace),
                       "--trace-dir", TRACE_DIR])
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % done.returncode)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
