#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload backlog --seed 1 --seconds 15 --trace 0

The script compiles the benchmark (a Go main package in this directory
that imports the repository's packages from source) into .bench_build/
at the repository root, with the Go build cache kept there too, then runs
it in place of this script with the given arguments. The benchmark
prints a JSON result object as the last line of its standard output.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    # The benchmark measures the program in this checkout; without its
    # sources there is nothing to build or run.
    for need in ("go.mod", os.path.join("internal", "sched"), os.path.join("internal", "fed"),
                 os.path.join("internal", "figures")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("program sources not found (missing %s); run from a full checkout" % need)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep every file the Go toolchain writes inside the checkout.
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    build = subprocess.run(["go", "build", "-buildvcs=false", "-o", BINARY, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        fail("build failed")
    # Replace this process with the benchmark, so no child outlives it.
    os.chdir(ROOT)
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    main()
