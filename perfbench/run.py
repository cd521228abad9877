#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cold-holes --seed 1 --seconds 10 --trace 0

The Go toolchain's caches, the binary and the traced run's span files all go
to .bench_build/ under the current directory, and the toolchain is kept off
the network and out of the user's home directory. The program's standard
output is passed through; its last line is the JSON result. The exit code is
the program's, or 1 if the build fails or the run overruns its time limit.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(root, ".bench_build")
    home = os.path.join(build_dir, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOENV="off",
        GOWORK="off",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, "config"),
        XDG_CACHE_HOME=os.path.join(home, "cache"),
        GOCACHE=os.path.join(build_dir, "go-cache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        GOTMPDIR="",
    )
    binary = os.path.join(build_dir, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S}s and was stopped", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
