#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a drishti checkout:

    python3 perfbench/run.py --workload cell-64c --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and every scratch file go under
.bench_build/ in the checkout. Arguments are passed to the benchmark
binary unchanged; its last line of standard output is the JSON result.
Exits non-zero, printing no result, when the checkout is incomplete or the
build fails.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850  # the first build in a fresh checkout compiles everything
RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(os.path.join(root, "internal")):
        print("perfbench: %s is not the root of a drishti checkout" % root, file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    env = {k: v for k, v in os.environ.items() if not k.startswith("DRISHTI_")}
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOENV="off",
        GOWORK="off",
    )
    for d in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build: %s" % e, file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
