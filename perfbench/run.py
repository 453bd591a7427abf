#!/usr/bin/env python3
"""Build the detmt benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig1-paper --seed 42 --seconds 25 \
        --trace 0

The benchmark program (perfbench/detmt_perfbench.ml) is built with dune
into .bench_build/ and run as one child process per invocation, so every
workload's heap is measured on its own.  --trace 1 also writes the request
spans and the per-layer summary to .bench_out/.  The last line printed on
stdout is the child's result: one JSON object with the keys correct,
attempted, failed and metrics.  Any build or run failure exits non-zero
without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TARGET = "./perfbench/detmt_perfbench.exe"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "detmt_perfbench.exe")
WORKLOADS = ["fig1-paper", "fig1-predicted", "opaque-parallel",
             "elastic-hotspot"]
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("neither dune nor opam found on PATH")


def build():
    env = dict(os.environ)
    # Keep every file dune writes inside the checkout.
    env["XDG_CACHE_HOME"] = os.path.join(BUILD_DIR, "xdg-cache")
    cmd = dune_command() + [
        "build", "--root", ROOT, "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache", "disabled", "--display", "quiet",
        TARGET]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail(f"build failed (exit {proc.returncode})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    started = time.monotonic()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"unparsable result line: {e}")
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail(f"malformed result: {lines[-1]}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(f"run.py: {args.workload} measured in "
          f"{time.monotonic() - started:.1f} s", file=sys.stderr)
    print(lines[-1])


if __name__ == "__main__":
    main()
