#!/usr/bin/env python3
"""Builds and runs the xloops sweep benchmark.

Usage, from the repository root:

    python3 sweepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `xloops` CLI (worker processes run its `worker` subcommand) and
the benchmark package in release mode, offline, into $CARGO_TARGET_DIR
(default `.bench_build`), then runs the benchmark with the given
arguments. Build output goes to stderr; the benchmark's last stdout line
is its JSON result. Exits non-zero, printing no result, if either build
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Only the benchmark chooses the system's knobs: no XLOOPS_* setting
    # of the caller reaches the program or its workers.
    env = {k: v for k, v in os.environ.items() if not k.startswith("XLOOPS_")}
    env["CARGO_TARGET_DIR"] = target
    for manifest, extra in [(os.path.join(ROOT, "Cargo.toml"), ["--bin", "xloops"]),
                            (os.path.join(HERE, "Cargo.toml"), [])]:
        code = build(env, manifest, *extra)
        if code != 0:
            print(f"error: building {manifest} failed", file=sys.stderr)
            return code
    env["XLOOPS_WORKER_EXE"] = os.path.join(target, "release", "xloops")
    bench = os.path.join(target, "release", "sweepbench")
    return subprocess.run([bench, *sys.argv[1:]], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
