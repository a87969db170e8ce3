#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload codec-nyx128|bestfit|svc-mixed \
        --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
library and the benchmark program (Release) under .bench_build/perfbench; later calls
reuse that build. Build output goes to stderr, so the last line of stdout is
the program's JSON result. --self-test runs the rule self-tests and a smoke
run of every workload.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("codec-nyx128", "bestfit", "svc-mixed")
RUN_TIMEOUT_S = 170


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + list(targets))
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


def main(argv):
    if argv == ["--self-test"]:
        build(["perfbench", "perfbench_selftest"])
        status = run([os.path.join(BUILD, "perfbench_selftest")])
        for w in WORKLOADS:
            for trace in ("0", "1"):
                status |= run([os.path.join(BUILD, "perfbench"), "--workload", w, "--seed", "1",
                               "--seconds", "2", "--trace", trace, "--smoke"])
        return 1 if status else 0
    build(["perfbench"])
    return run([os.path.join(BUILD, "perfbench")] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
