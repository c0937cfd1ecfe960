#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Usage, from the root of the source tree:

    python3 perfbench/run.py --workload tc-random --seed 1 --seconds 10 --trace 0

The driver and the library are built in Release mode under the directory
named by CARGO_TARGET_DIR (default: .bench_build), at most four compile
jobs at a time; later runs only relink what changed. Build output goes to
stderr. The last line of stdout is the driver's JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tc-random", "cyclic-clique", "server-rw")
BUILD_TIMEOUT_S = 850
RUN_SLACK_S = 120


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_group(command, timeout, env, stdout):
    """Runs `command` in its own process group and waits for it; on timeout
    kills the whole group (make and compiler children too) and waits again.
    Returns (exit code, captured stdout or None)."""
    child = subprocess.Popen(command, stdout=stdout, stderr=sys.stderr, env=env,
                             text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail("%s did not finish within %d s" % (command[0], timeout))
    return child.returncode, out


def build(build_dir, env):
    """Configures (once) and builds the driver; returns its path."""
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target",
                  "perfbench_driver", "-j", jobs])
    for step in steps:
        try:
            code, _ = run_group(step, BUILD_TIMEOUT_S, env, sys.stderr)
        except OSError as err:
            fail("build step failed: %s (%s)" % (" ".join(step), err))
        if code != 0:
            fail("build step failed with code %d: %s" % (code, " ".join(step)))
    binary = os.path.join(cmake_dir, "perfbench_driver")
    if not os.path.isfile(binary):
        fail("build produced no driver at " + binary)
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no datalog_opt sources next to perfbench/; nothing to build")

    # A relative build directory keeps the server's socket path short.
    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Compiler and driver temporaries stay inside the build directory too.
    tmp_dir = os.path.join(build_dir, "tmp")
    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp_dir))
    binary = build(build_dir, env)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    code, out = run_group(command, args.seconds + RUN_SLACK_S, env,
                          subprocess.PIPE)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail("driver exited with code %d" % code)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver result has unexpected keys: %s" % sorted(result))
    print(json.dumps(result))
    sys.exit(0)


if __name__ == "__main__":
    main()
