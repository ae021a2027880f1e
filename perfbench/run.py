#!/usr/bin/env python3
"""Build and run the evofd engine benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <ingest|designer|read_mix> \
        --seed N --seconds S --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds the engine's crates from source into $CARGO_TARGET_DIR (default
.bench_build), then runs one workload. The last line of standard output is
the JSON result; build output goes to standard error. The exit code is
non-zero when the build fails or an output check fails.
"""

import os
import subprocess
import sys


def revision(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "evofd-perfbench")
    args = [exe, *sys.argv[1:], "--revision", revision(root)]
    return subprocess.run(args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
