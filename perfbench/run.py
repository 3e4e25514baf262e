#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: http_longtail, engine_pressure, routed_http (see
perfbench/README.md). The script configures and builds perfbench/ (the
graft library, graft_server, graft_router and the benchmark binary) into
.bench_build/ with CMake, then runs the binary. The last line of stdout is
the result object; build output and logs go to stderr.

`--self-test` builds and runs the catalog determinism test instead.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# Everything the serving index depends on: the program's sources, the
# benchmark's build file and its corpus definition. The serving-index cache
# is keyed by their hash, so two source trees never share an index.
BENCH = os.path.basename(HERE)
KEYED_PATHS = ["src", "tools", BENCH + "/CMakeLists.txt",
               BENCH + "/src/corpus.h", BENCH + "/src/corpus.cc"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_key():
    files = []
    for keyed in KEYED_PATHS:
        path = os.path.join(ROOT, keyed)
        if os.path.isfile(path):
            files.append(path)
        for dirpath, dirnames, filenames in os.walk(path):
            files.extend(os.path.join(dirpath, name) for name in filenames)
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()[:16]


def build(targets):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(os.cpu_count() or 4)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--break-reference", action="store_true",
                        help="perturb the correctness reference (the run must fail)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    for needed in ["src/CMakeLists.txt", "tools/graft_server.cc",
                   "tools/graft_router.cc"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("missing %s: run from a full checkout of the repository" % needed)

    try:
        if args.self_test:
            build(["perfbench_catalog_test"])
            sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_catalog_test")]).returncode)
        if not args.workload:
            fail("--workload is required")
        build(["perfbench", "graft_server", "graft_router"])
    except subprocess.CalledProcessError as error:
        fail("build failed: %s" % error)

    key = source_key()
    cache_root = os.path.join(BUILD, "perfbench-cache")
    os.makedirs(cache_root, exist_ok=True)
    for stale in os.listdir(cache_root):
        if not stale.startswith(key):
            shutil.rmtree(os.path.join(cache_root, stale), ignore_errors=True)
    command = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--bin-dir", os.path.join(BUILD, "graft_tools"),
        "--cache-dir", os.path.join(cache_root, key),
        "--work-dir", os.path.join(BUILD, "perfbench-work"),
    ]
    if args.break_reference:
        command.append("--break-reference")
    sys.stdout.flush()
    os.execv(command[0], command)


if __name__ == "__main__":
    main()
