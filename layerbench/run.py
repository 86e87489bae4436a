#!/usr/bin/env python3
"""Layered wall-clock benchmark: build, run one workload, report.

    python3 layerbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 layerbench/run.py --selftest

Run from the repository root. The script builds layerbench/main.exe
from source with dune (into .bench_build/), runs the requested workload
in one process on one OCaml domain, and prints the program's own report
followed by a provenance line and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
each timing scaled to a reference host by a host probe taken next to it
(layerbench/README.md); with --trace 1 they are its per-layer metrics (a
layer the workload bypasses reads 0). The full record, with provenance
and the unscaled samples, is also written to layerbench/out/, next to
the traced run's Chrome trace JSON.

--selftest runs every workload at a short fixed length twice with one
seed and once with another: every deterministic count must repeat
exactly, and the traffic-derived ones must change with the seed.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "layerbench", "main.exe")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ["maglev-64b", "megaflow-zipf-edits", "ifc-text-edits", "flowtab-ckpt"]

# Counts that follow from the seeded inputs: a second seed must change
# each of them (the self-test's check that the seed reaches the inputs).
TRAFFIC_COUNTS = {
    "maglev-64b": ["cycles.virtual_per_pkt"],
    "megaflow-zipf-edits": ["cycles.virtual_per_pkt", "flowcache.hits", "flowcache.installs"],
    "ifc-text-edits": ["ifc.transfers", "ifc.recomputed"],
    "flowtab-ckpt": ["cycles.virtual_per_pkt", "nic.rx_words_per_pkt"],
}


def fail(msg):
    print("layerbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("the repository sources (dune-project, lib/) are not next to the benchmark; nothing to build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR, "--profile", "release",
           "./layerbench/main.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not finish: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(r.stdout[-4000:])
        fail("build failed")


def run_exe(workload, seed, trace, seconds=None):
    args = [EXE, "--workload", workload, "--seed", str(seed), "--trace", str(trace), "--out", OUT_DIR]
    args += ["--fixed"] if seconds is None else ["--seconds", str(seconds)]
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        r = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=170)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within 170 s" % workload)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
        fail("%s exited with code %d" % (workload, r.returncode))
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        record = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("%s printed no result record" % workload)
    return lines[:-1], record


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names
    its code even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ["dune-project", "dune", "lib", "layerbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, dirs, files in os.walk(base) for f in files
            if not os.path.relpath(d, HERE).startswith("out"))
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def contract_metrics(spec, record, trace):
    """The record's metrics, checked against BENCHMARK.json and put in
    its order and units."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = record["metrics"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(got) - names)
    if unknown:
        fail("metrics not declared in BENCHMARK.json: %s" % ", ".join(unknown))
    out = {}
    for m in wanted:
        if m["name"] in got:
            v = got[m["name"]]
            if v["unit"] != m["unit"]:
                fail("%s: unit %s, BENCHMARK.json says %s" % (m["name"], v["unit"], m["unit"]))
            value = v["value"]
        elif trace:
            value = 0.0  # a layer this workload bypasses
        else:
            fail("end-to-end metric %s missing" % m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s is not a finite number" % m["name"])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def bench(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (one of %s)" % (args.workload, ", ".join(WORKLOADS)))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.trace not in (0, 1) or args.seconds <= 0:
        fail("--trace must be 0 or 1 and --seconds positive")
    build()
    t0 = time.time()
    lines, record = run_exe(args.workload, args.seed, args.trace, args.seconds)
    metrics = contract_metrics(spec, record, args.trace)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "ocaml": record["params"].get("ocaml"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "params": record["params"],
        "wall_s": round(time.time() - t0, 3),
    }
    result = {"correct": bool(record["correct"]) and record["failed"] == 0,
              "attempted": int(record["attempted"]), "failed": int(record["failed"]), "metrics": metrics}
    with open(os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"provenance": provenance, "result": result, "counts": record["counts"],
                   "series": record.get("series", {})}, f, indent=1)
    for line in lines:
        print(line)
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))


def selftest(seed_a=1, seed_b=2):
    build()
    ok = True
    for w in WORKLOADS:
        runs = [run_exe(w, s, 1)[1] for s in (seed_a, seed_a, seed_b)]
        a1, a2, b = (r["counts"] for r in runs)
        failed = [r["failed"] for r in runs]
        same = a1 == a2 and len(a1) > 0
        moved = all(a1.get(k) != b.get(k) for k in TRAFFIC_COUNTS[w])
        verdict = same and moved and failed == [0, 0, 0]
        ok = ok and verdict
        print("%-22s %s  repeat=%s seed-sensitive=%s failed=%s" % (w, "PASS" if verdict else "FAIL", same, moved, failed))
        print("  counts(seed %d): %s" % (seed_a, json.dumps(a1, sort_keys=True)))
        if not same:
            print("  counts(seed %d, again): %s" % (seed_a, json.dumps(a2, sort_keys=True)))
        print("  counts(seed %d): %s" % (seed_b, json.dumps(b, sort_keys=True)))
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        selftest()
    elif args.workload is None:
        fail("--workload is required (or pass --selftest)")
    else:
        bench(args)


if __name__ == "__main__":
    main()
