#!/usr/bin/env python3
"""Compare two checkouts on the repository benchmark in alternating pairs.

Usage, from anywhere inside the repository:

    python3 scripts/perfpair.py --base main --pairs 10
    python3 scripts/perfpair.py --base HEAD~1 --workload server-session
    python3 scripts/perfpair.py --base ../parent-clone --head .

--base and --head each name an existing directory or a git ref (--head
defaults to HEAD; a directory wins over a ref of the same name). A
directory is a checkout of the repository, used in place and labelled
by its path, so it measures whatever its tree holds, uncommitted edits
included. A ref is checked out into its own temporary `git worktree`,
removed on exit, so only committed files are measured. Each pair runs
`python3 perfbench/run.py --trace 0` once in each checkout, with the
pair's seed (1, 2, ...), for every workload of BENCHMARK.json (or the
--workload ones). Pairs alternate which side goes first, so a drift in
host load falls on both sides alike.

For each workload and end-to-end metric the summary prints the base and
head medians, the median and per-pair head/base ratios, how many pairs
the head won (by the metric's "better" direction), and the base's
interquartile range. "resolved" means the medians differ by more than
that range. A run that fails, or prints correct:false or failed
operations, is reported and stops the script.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def git(root, *args):
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    ).stdout.strip()


class Checkout:
    """A temporary `git worktree` of one commit, removed by close()."""

    def __init__(self, root, ref, path):
        sha = git(root, "rev-parse", "--verify", ref + "^{commit}")
        git(root, "worktree", "add", "--detach", path, sha)
        self.root, self.dir = root, path
        self.label = "%s (%s)" % (ref, sha[:12])

    def close(self):
        git(self.root, "worktree", "remove", "--force", self.dir)


class Directory:
    """An existing checkout, used in place; close() leaves it alone."""

    def __init__(self, path):
        self.dir = os.path.abspath(path)
        self.label = self.dir

    def close(self):
        pass


def open_side(root, ref, path):
    """A Directory when ref is an existing directory, else a Checkout."""
    if os.path.isdir(ref):
        return Directory(ref)
    return Checkout(root, ref, path)


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout.dir, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("perfpair: %s in %s exited %d:\n%s" % (
            " ".join(cmd), checkout.label, out.returncode, out.stderr[-2000:]))
    res = json.loads(lines[-1])
    if not res.get("correct") or res.get("failed"):
        sys.exit("perfpair: %s seed %d in %s: correct=%s failed=%s" % (
            workload, seed, checkout.label, res.get("correct"), res.get("failed")))
    return {k: v["value"] for k, v in res["metrics"].items()}


def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


def summarize(workload, metrics, runs):
    print("\n== %s: %d pairs" % (workload, len(runs)))
    print("%-14s %10s %10s %8s %6s %10s  %s" % (
        "metric", "base", "head", "ratio", "wins", "base IQR", "per-pair head/base"))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(b[name], h[name]) for b, h in runs if name in b and name in h]
        if not pairs:
            continue
        base = [b for b, _ in pairs]
        head = [h for _, h in pairs]
        ratios = [h / b if b else float("nan") for b, h in pairs]
        wins = sum((h < b) if lower else (h > b) for b, h in pairs)
        spread = iqr(base)
        bm, hm = statistics.median(base), statistics.median(head)
        verdict = "resolved" if abs(hm - bm) > spread else "within IQR"
        print("%-14s %10.4g %10.4g %8.3f %3d/%-2d %10.4g  %s  [%s]" % (
            name, bm, hm, statistics.median(ratios), wins, len(pairs), spread,
            " ".join("%.3f" % r for r in ratios), verdict))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="base directory or git ref")
    ap.add_argument("--head", default="HEAD", help="head directory or git ref")
    ap.add_argument("--pairs", type=int, default=10, help="alternating pairs per workload")
    ap.add_argument("--workload", action="append", help="workload to run (repeatable; default all)")
    ap.add_argument("--seconds", type=int, help="measured seconds per run (default BENCHMARK.json's run_seconds)")
    args = ap.parse_args()

    root = git(os.path.dirname(os.path.abspath(__file__)), "rev-parse", "--show-toplevel")
    tmp = tempfile.mkdtemp(prefix="perfpair-")
    sides = []
    try:
        # Each side is recorded as soon as it exists, so a failure on
        # the second still removes the first's worktree.
        for side, ref in (("base", args.base), ("head", args.head)):
            sides.append(open_side(root, ref, os.path.join(tmp, side)))
        with open(os.path.join(sides[1].dir, "BENCHMARK.json")) as f:
            spec = json.load(f)
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        seconds = args.seconds or spec.get("run_seconds", 30)
        print("base: %s\nhead: %s" % (sides[0].label, sides[1].label))
        for wl in workloads:
            runs = []
            for i in range(args.pairs):
                seed = i + 1
                got = {}
                for side in (0, 1) if i % 2 == 0 else (1, 0):
                    got[side] = run_once(sides[side], wl, seed, seconds)
                runs.append((got[0], got[1]))
                print("%s pair %d/%d (seed %d, %s first) done" % (
                    wl, i + 1, args.pairs, seed, "base" if i % 2 == 0 else "head"), flush=True)
            summarize(wl, spec["end_to_end"], runs)
    finally:
        for side in sides:
            side.close()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
