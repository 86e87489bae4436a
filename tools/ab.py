#!/usr/bin/env python3
"""Paired, interleaved A/B of two revisions on the layerbench workloads.

    python3 tools/ab.py BASE HEAD [--workload NAME ...] [--pairs 10]
                                  [--seed 1] [--workdir DIR]

Run from anywhere inside the repository. BASE and HEAD are git
revisions (a commit, a branch, or the hash `git stash create` prints
for uncommitted work). Each is exported with `git archive` into its own
tree under --workdir (replacing the trees of an earlier run there), so
both sides build from their committed sources and the repository
itself is left untouched. For every workload the
script runs one short discarded warm-up per side (it builds the
benchmark), then N pairs of `python3 layerbench/run.py --trace 0` runs
of BENCHMARK.json's run_seconds each, alternating which side goes
first. It only drives layerbench/; it never edits it.

For every end-to-end metric of BENCHMARK.json it prints each side's
median and IQR, the median and IQR of the per-pair HEAD/BASE ratios,
the pairs HEAD won, and a verdict:

    win           HEAD is better on at least 90% of the pairs and its
                  median beats BASE's by more than BASE's IQR;
    loss          HEAD's median is worse than BASE's by more than the
                  metric's bound;
    unresolved    neither, one side's IQR is wider than the bound
                  (relative to its median), and not every HEAD run
                  reads better than every BASE run, so the runs cannot
                  tell;
    inside-noise  none of these.

It also prints each side's share of failed operations; a larger share
on HEAD is reported as a loss. Every run's record is kept in
--workdir/ab-<workload>-seed<N>.json. Exit status: 1 if any verdict is
a loss, else 0.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

WIN_SHARE = 0.9


def sh(args, **kw):
    return subprocess.run(args, check=True, stdout=subprocess.PIPE, text=True, **kw).stdout


def export(root, rev, dest):
    """The tree of [rev], exported into [dest], replacing what an earlier
    run into the same --workdir left there."""
    commit = sh(["git", "-C", root, "rev-parse", "--verify", rev + "^{commit}"]).strip()
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", root, "archive", commit], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit("ab: git archive %s failed" % rev)
    return commit


def run_side(tree, workload, seed, seconds):
    cmd = [sys.executable, "layerbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
        sys.exit("ab: %s failed in %s" % (workload, tree))
    return json.loads(r.stdout.rstrip("\n").split("\n")[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def verdict(metric, base, head):
    """(verdict, pairs won, median ratio, ratio IQR) for one metric."""
    higher = metric["better"] == "higher"
    b_q1, b_med, b_q3 = quartiles(base)
    h_q1, h_med, h_q3 = quartiles(head)
    won = sum(1 for b, h in zip(base, head) if (h > b if higher else h < b))
    ratios = [h / b for b, h in zip(base, head) if b != 0]
    r_q1, r_med, r_q3 = quartiles(ratios) if ratios else (float("nan"),) * 3
    gain = (h_med - b_med) if higher else (b_med - h_med)
    worse_by = -gain / b_med if b_med != 0 else 0.0
    spread = max((q3 - q1) / abs(med) if med != 0 else 0.0
                 for q1, med, q3 in ((b_q1, b_med, b_q3), (h_q1, h_med, h_q3)))
    separated = min(head) > max(base) if higher else max(head) < min(base)
    if won >= WIN_SHARE * len(base) and gain > b_q3 - b_q1:
        v = "win"
    elif worse_by > metric["bound"]:
        v = "loss"
    elif spread > metric["bound"] and not separated:
        v = "unresolved"
    else:
        v = "inside-noise"
    return v, won, r_med, r_q3 - r_q1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--workload", action="append", help="repeatable; default: every BENCHMARK.json workload")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workdir", help="default: a fresh temporary directory")
    args = p.parse_args()
    if args.pairs < 1:
        sys.exit("ab: --pairs must be >= 1")

    root = sh(["git", "rev-parse", "--show-toplevel"]).strip()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    workdir = args.workdir or tempfile.mkdtemp(prefix="ab-")
    os.makedirs(workdir, exist_ok=True)
    trees = {"base": os.path.join(workdir, "base"), "head": os.path.join(workdir, "head")}
    commits = {side: export(root, rev, trees[side]) for side, rev in (("base", args.base), ("head", args.head))}
    print("ab: base %s, head %s, seed %d, %g s, %d pairs, in %s"
          % (commits["base"][:12], commits["head"][:12], args.seed, seconds, args.pairs, workdir))

    lost = False
    for w in workloads:
        for side in ("base", "head"):
            run_side(trees[side], w, args.seed, 1)
        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_side(trees[side], w, args.seed, seconds))
            print("  %s pair %d/%d done" % (w, i + 1, args.pairs), file=sys.stderr)
        with open(os.path.join(workdir, "ab-%s-seed%d.json" % (w, args.seed)), "w") as f:
            json.dump({"commits": commits, "seed": args.seed, "seconds": seconds, "runs": runs}, f, indent=1)

        print("\n%s (seed %d, %d pairs)" % (w, args.seed, args.pairs))
        print("  %-16s %12s %10s %12s %10s %8s %8s %6s  %s"
              % ("metric", "base med", "base IQR", "head med", "head IQR", "ratio", "r IQR", "won", "verdict"))
        for m in spec["end_to_end"]:
            base = [r["metrics"][m["name"]]["value"] for r in runs["base"]]
            head = [r["metrics"][m["name"]]["value"] for r in runs["head"]]
            v, won, r_med, r_iqr = verdict(m, base, head)
            lost = lost or v == "loss"
            b_q1, b_med, b_q3 = quartiles(base)
            h_q1, h_med, h_q3 = quartiles(head)
            print("  %-16s %12.4g %10.3g %12.4g %10.3g %8.3f %8.3f %3d/%-2d  %s"
                  % (m["name"], b_med, b_q3 - b_q1, h_med, h_q3 - h_q1, r_med, r_iqr, won, args.pairs, v))
        share = {side: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
                 for side, rs in runs.items()}
        failed_v = "loss" if share["head"] > share["base"] else "ok"
        lost = lost or failed_v == "loss"
        print("  failed share: base %.4f, head %.4f  %s" % (share["base"], share["head"], failed_v))
    sys.exit(1 if lost else 0)


if __name__ == "__main__":
    main()
