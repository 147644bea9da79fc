#!/usr/bin/env python3
"""Build the benchmark from source, then run it with the given arguments.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 30 --trace 0

--workload all runs every workload of BENCHMARK.json in turn, each in its
own process, and exits non-zero if any run did.

The Go build cache, the binary and the traced run's span logs all live
under .bench_build/ at the repository root, so the benchmark reads and
writes nothing outside the checkout. A checkout without the simulator's
sources fails the build, and this script exits non-zero without printing
a result.
"""
import json
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build", "go")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "cache"),
        GOPATH=os.path.join(build, "path"),
        GOMODCACHE=os.path.join(build, "path", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=here, env=env
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(built.returncode or 1)
    spec = os.path.join(root, "BENCHMARK.json")
    args = [binary, "-references", os.path.join(here, "reference.json"), "-spec", spec]
    rest = sys.argv[1:]
    if "all" not in rest:
        os.execv(binary, args + rest)
    with open(spec) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    at = rest.index("all")
    failed = 0
    for name in names:
        print("==>", name, flush=True)
        run = subprocess.run(args + rest[:at] + [name] + rest[at + 1 :])
        failed += run.returncode != 0
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
