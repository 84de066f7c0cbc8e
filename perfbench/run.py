#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: scaleout-8n, bank-local-hot, read-mostly-3n (see
perfbench/README.md). With --workload all, every workload runs twice,
untraced and traced (--trace is ignored), each in its own process.

The benchmark is built from source with dune into .bench_build/ inside the
checkout (shared dune cache disabled, so nothing is written outside it),
then run single-process. The last line of standard
output is the JSON result; the exit status is non-zero when the build fails,
the arguments are wrong, or any correctness check fails.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170
WORKLOADS = ["scaleout-8n", "bank-local-hot", "read-mostly-3n"]


def runs(argv):
    """The bench.exe argument lists that argv asks for."""
    if "--workload" not in argv:
        return [argv]
    at = argv.index("--workload") + 1
    if argv[at:at + 1] != ["all"]:
        return [argv]
    rest = argv[:at - 1] + argv[at + 1:]
    if "--trace" in rest:
        t = rest.index("--trace")
        rest = rest[:t] + rest[t + 2:]
    return [["--workload", w] + rest + ["--trace", trace]
            for w in WORKLOADS for trace in ("0", "1")]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: run from the root of a checkout "
            "(no dune-project or lib/ here)\n")
        return 2
    build = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--cache=disabled", "--profile", "release", "--display", "quiet",
        TARGET,
    ]
    try:
        built = subprocess.run(build, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        sys.stderr.write("perfbench: dune not found\n")
        return 2
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: build timed out\n")
        return 2
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    status = 0
    for args in runs(sys.argv[1:]):
        sys.stdout.flush()
        try:
            ran = subprocess.run([exe] + args, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.stderr.write("perfbench: run timed out\n")
            return 3
        status = status or ran.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
