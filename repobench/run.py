#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the driver and the simulator
sources under src/ with CMake (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the driver with the given
arguments. The driver's report and its final JSON line go to standard
output; build output goes to standard error. Exits non-zero without a
result when the build fails, and non-zero after the result when a
check or an operation of the run failed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(kind="release"):
    """Configure (once) and build one flavour; return the binary path."""
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "repobench-" + kind)
    flags = {
        "release": ["-DCMAKE_BUILD_TYPE=Release"],
        "sanitize": ["-DCMAKE_BUILD_TYPE=Debug", "-DBLUEDBM_SANITIZE=ON"],
    }[kind]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir] + flags,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "repobench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("repobench: build failed: %s" % err, file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
