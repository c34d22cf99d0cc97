#!/usr/bin/env python3
"""A/B runner for the canonical benchmark: alternating pairs of two revisions.

Exports two git revisions of this repository into a work directory, builds
perfbench for each with its own CARGO_TARGET_DIR, then runs N pairs of one
workload through perfbench/run.py, alternating which side runs first. For
every end-to-end metric it prints each side's median and quartiles, the
median of the per-pair ratio (change / base) and how many pairs the change
won (ties count for neither side).

    python3 tools/perf_pairs.py BASE CHANGE --workload cells_roaming \\
        --pairs 10 --seconds 10 --seed 2008

BASE and CHANGE are anything `git rev-parse` accepts; `git stash create`
prints a revision holding uncommitted changes to tracked files. Builds stay
in --workdir (default: a temporary directory removed at exit), keyed by
commit, so a second invocation with the same --workdir reuses them.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, workdir):
    """Extracts `rev` into workdir/<sha>/src (once) and returns that path."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = os.path.join(workdir, sha, "src")
    if not os.path.isdir(tree):
        os.makedirs(tree)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", sha],
                                   stdout=subprocess.PIPE)
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            tar.extractall(tree)
        if archive.wait() != 0:
            sys.exit("perf_pairs: git archive %s failed" % rev)
    return sha, tree


def run_once(tree, target_dir, args, seconds):
    """One perfbench/run.py invocation; returns its parsed JSON result."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "0"]
    out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("perf_pairs: %s exited %d" % (" ".join(cmd), out.returncode))
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=2008)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workdir")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    workdir = args.workdir or tempfile.mkdtemp(prefix="perf_pairs-")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
        sides = []
        for label, rev in (("base", args.base), ("change", args.change)):
            sha, tree = export(rev, workdir)
            target = os.path.join(workdir, sha, "target")
            print("perf_pairs: %s = %s, building" % (label, sha[:12]), file=sys.stderr)
            run_once(tree, target, args, 1.0)  # Builds; the result is discarded.
            sides.append((label, tree, target))

        runs = {"base": [], "change": []}
        for p in range(args.pairs):
            order = sides if p % 2 == 0 else sides[::-1]
            for label, tree, target in order:
                res = run_once(tree, target, args, args.seconds)
                runs[label].append(res)
            line = "  ".join("%s run_s %.4f correct %s" % (
                s, runs[s][-1]["metrics"].get("run_s", {}).get("value", float("nan")),
                runs[s][-1]["correct"]) for s in ("base", "change"))
            print("pair %2d  %s" % (p, line), file=sys.stderr)

        for label in ("base", "change"):
            bad = sum(1 for r in runs[label] if not r["correct"])
            failed = sum(r["failed"] for r in runs[label])
            print("%s: %d/%d runs correct, %d failed operations" % (
                label, len(runs[label]) - bad, len(runs[label]), failed))
        print("%-24s %-34s %-34s %9s %6s" % (
            "metric", "base median [q1, q3]", "change median [q1, q3]", "ratio", "wins"))
        for name in better:
            b = [r["metrics"][name]["value"] for r in runs["base"] if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in runs["change"] if name in r["metrics"]]
            if len(b) != args.pairs or len(c) != args.pairs:
                # Unresolved, not dropped: a metric some runs fail to report
                # cannot carry a verdict either way.
                print("%-24s n/a (reported by base %d/%d, change %d/%d runs)" % (
                    name, len(b), args.pairs, len(c), args.pairs))
                continue
            lower = better[name] == "lower"
            wins = sum(1 for x, y in zip(b, c) if (y < x if lower else y > x))
            ratios = [y / x for x, y in zip(b, c) if x != 0]
            bq, cq = quartiles(b), quartiles(c)
            ratio = "%9.4f" % statistics.median(ratios) if ratios else "%9s" % "-"
            print("%-24s %-34s %-34s %s %3d/%-2d" % (
                name, "%.6g [%.6g, %.6g]" % (bq[1], bq[0], bq[2]),
                "%.6g [%.6g, %.6g]" % (cq[1], cq[0], cq[2]), ratio, wins, args.pairs))
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
