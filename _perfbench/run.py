#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 _perfbench/run.py --workload transfer --seed 1 --seconds 45 --trace 0

The arguments are passed to the benchmark program (see main.go). The
build, the Go build cache and every file the benchmark writes stay under
.bench_build/ in the working directory. The exit status is the
benchmark's, or the build's when the build fails; the last line of
standard output is the benchmark's result only when both succeed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    build = os.path.abspath(".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=os.path.join(build, "gotmp"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench", "perfbench")
    os.makedirs(os.path.dirname(binary), exist_ok=True)
    # go build leaves an up-to-date binary in place; writing a fresh copy
    # on every run, and freeing the old one, put disk work next to the
    # daemon's fsyncs. Build output goes to stderr so standard output
    # carries only results.
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return built.returncode
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
