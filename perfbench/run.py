#!/usr/bin/env python3
"""Build and run the gearsim benchmark.

    python3 perfbench/run.py --workload paper_curves --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures a Release build
of the library and the benchmark program into .bench_build/ (or
$CARGO_TARGET_DIR); later calls only rebuild what changed.  Build output goes to stderr; the
program's last stdout line is the JSON result.  Outputs and work stores
live in .bench_out/.  See perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_curves", "served_mix")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: gearsim sources (src/) not found next to perfbench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the tests of the output checks")
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.self_test:
        os.makedirs(".bench_out", exist_ok=True)
        os.chdir(".bench_out")
        binary = build("perfbench_checks_test")
        sys.exit(subprocess.run([binary]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    binary = build("perfbench")
    # Set-up time counts from here: compilation is excluded, starting the
    # process is not.  time.monotonic_ns and the program's steady_clock
    # both read CLOCK_MONOTONIC.
    t0 = time.monotonic_ns()
    os.execv(binary, [binary, "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--t0-ns", str(t0),
                      "--out", ".bench_out"])


if __name__ == "__main__":
    try:
        main()
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build step failed: {e}")
