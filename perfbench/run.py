#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The build goes through dune into _build/;
its output goes to standard error, so the last line of standard output is
the benchmark's JSON result.  Exits non-zero, printing no result, when the
build fails (for instance outside a full source tree).
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not os.path.isfile("dune-project"):
        print("perfbench: no dune-project here; run from the repository root", file=sys.stderr)
        return 2
    # The shared dune cache lives outside the tree; build without it.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    env = dict(os.environ, PERFBENCH_COMMIT=os.environ.get("PERFBENCH_COMMIT") or commit())
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
