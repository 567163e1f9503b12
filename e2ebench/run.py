#!/usr/bin/env python3
"""Builds and runs the ongoingdb end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload ongoing_read --seed 1 --seconds 20 --trace 0

The first call configures and builds the library and the benchmark
binary (CMake, Release) into $CARGO_TARGET_DIR or .bench_build; later
calls only re-check the build. The benchmark binary prints one JSON
object as its last stdout line, which this script passes on as its own
last line. Build output and the binary's reference figures go to
stderr; traced runs write their spans under .bench_out/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("ongoing_read", "parallel_read", "commit_stream", "view_refresh")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    source = os.path.join(root, "e2ebench")
    binary = os.path.join(build_dir, "e2ebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", source, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed (run from the repository root)")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    if not os.path.exists(binary):
        fail(f"no benchmark binary at {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    binary = build(root, os.path.join(build_dir, "e2ebench"))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
