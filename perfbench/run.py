#!/usr/bin/env python3
"""Build and run the request-path benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures perfbench/CMakeLists.txt (a Release build of the libraries
under src/ plus the benchmark program) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, builds it, and runs the program with the
same arguments.  Build output goes to stderr; the program's stdout is
passed through, so its last line is the result JSON.  With --trace 1 the
program also writes its spans as a Chrome trace next to the binary.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A measured run (build excluded) ends well within 180 seconds.
RUN_LIMIT_S = 170.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for step in (["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 1

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-file", os.path.join(
            build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark program timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
