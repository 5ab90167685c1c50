#!/usr/bin/env python3
"""Host-speed benchmark of the ssmp simulator.

Builds the benchmark crate beside this file (release, offline) and runs one
workload:

    python3 hostbench/run.py --workload wq-wbi-64 --seed 1 --seconds 40 --trace 0

`--trace 0` runs the end-to-end binary (tracing off); `--trace 1` runs the
traced binary that prints the per-layer ledger. The build goes to
`$CARGO_TARGET_DIR` (default `.bench_build` under the working directory).
The last line of stdout is the JSON result; the metric table goes to stderr.
See README.md beside this file.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The simulator force-arms observers from SSMP_* variables; a run must
    # measure exactly the configuration the workload names.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SSMP_")}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S, check=False)
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 2

    binary = os.path.join(target, "release",
                          "hostbench-traced" if args.trace else "hostbench")
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds)],
        env=env, timeout=RUN_TIMEOUT_S, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
