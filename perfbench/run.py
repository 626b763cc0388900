#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a DeX checkout:

    python3 perfbench/run.py --workload fig2-sweep --seed 1 --seconds 20 --trace 0

The executable's arguments are passed through unchanged; its last line of
standard output is the JSON result. Build output goes to standard error.
Exits with a non-zero code, printing no result, when the directory is not
a checkout it can build.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
# A run measures --seconds plus its set-up; one that takes longer than
# this has hung and is stopped.
RUN_TIMEOUT_S = 170


def main():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            print(f"perfbench: {need} not found; run from the root of a DeX "
                  "checkout", file=sys.stderr)
            return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    try:
        return subprocess.run([EXE] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
