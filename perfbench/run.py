#!/usr/bin/env python3
"""Build the mqxlib benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: service_n1024, polymul_n65536, fma8_n4096 (see README.md).
The library and the benchmark binary are built with CMake (Release)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset; the first run builds, later runs only check that the
build is current. Result and trace files go to .bench_out/. The last
line of standard output is the run's result object; build output goes
to standard error. The exit code is the benchmark's: 0 only when every
operation succeeded and every output check held.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the benchmark; exit on failure."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit("run.py: %s not found; run from a full checkout of the "
                     "repository" % os.path.join(ROOT, needed))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("run.py: build step failed: %s" % " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one word of one checked result; the run "
                             "must then fail")
    parser.add_argument("--selftest", action="store_true",
                        help="only run the benchmark's self-tests")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(ROOT, target, "perfbench"))
    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        if not args.workload:
            parser.error("--workload is required")
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(ROOT, ".bench_out")]
        if args.corrupt:
            cmd.append("--corrupt")
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
