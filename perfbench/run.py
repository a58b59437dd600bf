#!/usr/bin/env python3
r"""The repository benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload read-mostly --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first run builds the repository's
libraries (RelWithDebInfo) and the bench into .bench_build/; later runs
only rebuild what changed. Every run first runs the arithmetic
self-test, then hkv_bench, and prints a stamp line and, last, one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones (see
perfbench/README.md). Exits non-zero, printing no result, when anything
fails: the build, the self-test, the run, or its lin check.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

WORKLOADS = ("read-mostly", "write-heavy-durable", "sharded-skew")
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        res = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT)
    if res.returncode != 0:
        with open(log) as f:
            tail = f.read()[-4000:]
        fail(f"command failed: {' '.join(cmd)}\n{tail}")


def build(root):
    """Build the repository's libraries, then the bench against them."""
    jobs = str(min(4, os.cpu_count() or 1))
    lib_dir = os.path.join(BUILD_DIR, "hermes")
    bench_dir = os.path.join(BUILD_DIR, "perfbench")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "build.log")
    if not os.path.exists(os.path.join(lib_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ".", "-B", lib_dir,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                    "-DHERMES_BUILD_TESTS=OFF", "-DHERMES_BUILD_BENCH=OFF",
                    "-DHERMES_BUILD_EXAMPLES=OFF",
                    "-DHERMES_BUILD_TOOLS=OFF"], log)
    run_logged(["cmake", "--build", lib_dir, "-j", jobs], log)
    if not os.path.exists(os.path.join(bench_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", "perfbench", "-B", bench_dir,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                    f"-DHERMES_SOURCE_DIR={root}",
                    f"-DHERMES_BUILD_DIR={os.path.join(root, lib_dir)}"],
                   log)
    run_logged(["cmake", "--build", bench_dir, "-j", jobs], log)
    return bench_dir


def source_rev(root):
    """git revision, or a digest of the sources in a checkout that is
    not a git repository."""
    if os.path.isdir(os.path.join(root, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        if res.returncode == 0:
            return res.stdout.strip()
    digest = hashlib.sha256()
    for base in ("CMakeLists.txt", "src"):
        path = os.path.join(root, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run only the arithmetic self-test")
    args = ap.parse_args()

    root = os.getcwd()
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the repository root: no CMakeLists.txt and src/ "
             "to build the program from")
    if not args.selftest and not args.workload:
        fail("--workload is required")

    bench_dir = build(root)
    selftest = subprocess.run([os.path.join(bench_dir,
                                            "perfbench_selftest")],
                              capture_output=True, text=True)
    if selftest.returncode != 0:
        fail("self-test failed:\n" + selftest.stdout + selftest.stderr)
    if args.selftest:
        print(selftest.stdout.strip())
        return

    # A run killed by the timeout leaves its run directory behind; runs
    # never overlap, so every leftover is stale.
    if os.path.isdir(OUT_DIR):
        for name in os.listdir(OUT_DIR):
            if name.startswith("run-"):
                shutil.rmtree(os.path.join(OUT_DIR, name))

    cmd = [os.path.join(bench_dir, "hkv_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"hkv_bench did not finish within {RUN_TIMEOUT_S} s")
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        fail(f"hkv_bench exited {res.returncode}:\n{res.stdout[-4000:]}\n"
             f"{res.stderr[-4000:]}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} \
            or result["correct"] is not True:
        fail(f"bad or incorrect result: {lines[-1]}")

    # The metric names must be exactly the ones BENCHMARK.json declares.
    if os.path.isfile("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        want = {m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]}
        if set(result["metrics"]) != want:
            fail(f"metric names differ from BENCHMARK.json: "
                 f"{sorted(set(result['metrics']) ^ want)}")

    bench_stamp = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith("# stamp-bench "):
            bench_stamp = json.loads(line[len("# stamp-bench "):])
    stamp = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "kernel": platform.release(),
        "compiler": bench_stamp.get("compiler"),
        "build_type": bench_stamp.get("build_type"),
        "wal_fs": bench_stamp.get("wal_fs"),
        "rev": source_rev(root),
    }
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
