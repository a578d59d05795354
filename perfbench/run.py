#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload grid|single-run|service \
        --seed N --seconds S --trace 0|1

It builds `memfwd_served` from the root workspace and the benchmark
binary from `perfbench/` (both release, into $CARGO_TARGET_DIR, default
`.bench_build`), then runs the benchmark with the given arguments. The last
line of standard output is the result object. Build output goes to
standard error; a failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "memfwd-served", "--bin", "memfwd_served"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = os.path.join(release, "memfwd-perfbench")
    served = os.path.join(release, "memfwd_served")
    work = os.path.join(target, "perfbench-work")
    cmd = [bench, *sys.argv[1:], "--served", served, "--work", work]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
