#!/usr/bin/env python3
"""Build and run the host-cost benchmark from the root of a source tree.

    python3 perfbench/run.py --workload fork-cow --seed 1 --seconds 10 --trace 0

Builds perfbench/uvmbench.exe with dune, then runs it with the same
arguments.  The last line of standard output is the JSON result.  Traced
runs (--trace 1) write their spans to perfbench/out/.  Everything the
benchmark writes stays under the source tree: dune's _build/ and
perfbench/out/.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fork-cow", "paging", "smp-observed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bench_dir = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    exe = os.path.join("_build", "default", bench_dir, "uvmbench.exe")
    out_dir = os.path.join(bench_dir, "out")
    env = dict(os.environ, DUNE_CACHE="disabled")

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./" + exe[len("_build/default/"):]],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.isfile(exe):
        print("run.py: build failed", file=sys.stderr)
        return 1

    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--out-dir", out_dir]
        # A small Runtime_events ring (the benchmark drains it often), kept
        # inside the tree: its file is about 2 MB, where e=20 makes 1 GB.
        env["OCAMLRUNPARAM"] = "e=10"
        env["OCAML_RUNTIME_EVENTS_DIR"] = out_dir
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
