#!/usr/bin/env python3
"""Build and run the feed-pipeline benchmark.

Usage, from the repository root:

    python3 feedbench/run.py --workload ycsb-b-read --seed 1 --seconds 15 --trace 0

The first call configures and builds feedbench/ (the benchmark binary plus the
repository's src/ libraries) into .bench_build/, or into $CARGO_TARGET_DIR when
that is set; later calls only bring the build up to date. The binary's stdout
is passed through, so the last line is the result JSON. Build output goes to
stderr. Exits non-zero, without a result, when the sources or the build are
missing or broken.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def fail(message):
    print("feedbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to feedbench/")
    cmake_dir = os.path.join(build_dir, "feedbench")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "feedbench"), "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", cmake_dir, "--target", "feedbench", "-j", BUILD_JOBS]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(cmake_dir, "feedbench")


def arg_value(args, flag, default):
    if flag in args and args.index(flag) + 1 < len(args):
        return args[args.index(flag) + 1]
    return default


def main():
    args = sys.argv[1:]
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)

    # Same binary + same arguments must reproduce the same Gas and counts:
    # the binary records the first run's fingerprint and compares later ones.
    with open(binary, "rb") as f:
        binary_id = hashlib.sha256(f.read()).hexdigest()[:16]
    key = "-".join(arg_value(args, flag, "_") for flag in ("--workload", "--seed", "--seconds"))
    fingerprint_dir = os.path.join(build_dir, "fingerprints", binary_id)
    os.makedirs(fingerprint_dir, exist_ok=True)
    extra = ["--fingerprint-file", os.path.join(fingerprint_dir, key + ".txt")]
    if arg_value(args, "--trace", "0") == "1":
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        extra += ["--spans-out", os.path.join(spans_dir, key + ".jsonl")]

    try:
        result = subprocess.run([binary] + args + extra, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
