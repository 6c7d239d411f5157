#!/usr/bin/env python3
"""Run the benchmark over several seeds and judge it by its own bounds.

    python3 benchmark/spread.py run OUT.json [--runs 10] [--seed0 1]
                                [--workload NAME ...] [--command "PROGRAM ARGS"]
    python3 benchmark/spread.py compare A.json B.json

`run` makes `--runs` end-to-end runs (tracing off) of each workload, each
with another seed, from the root of the repository, saves every result in
OUT.json and prints, per workload and metric, the median and the spread:
the distance between the first and third quartile as a share of the
median, which BENCHMARK.json requires to stay within the metric's bound.
`--command` replaces the build-and-run command of BENCHMARK.json, for
example with a binary that is already built (or with the parent
commit's, to measure both commits with identical settings).

`compare` applies the bounds to two saved sets, A the parent and B the
change: per workload and metric `same`, `better`, `worse`, or
`unresolved` when the spread of either set is wider than the bound and
the two sets of runs overlap.
"""

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def worse_by(metric, parent, change):
    """Share of the parent's median by which the change's median is worse."""
    a, b = statistics.median(parent), statistics.median(change)
    return (a - b) / a if metric["better"] == "higher" else (b - a) / a


def verdict(metric, parent, change):
    bound = metric["bound"]
    delta = worse_by(metric, parent, change)
    overlap = min(max(parent), max(change)) >= max(min(parent), min(change))
    if max(spread(parent), spread(change)) > bound and overlap:
        return "unresolved"
    if delta > bound:
        return "worse"
    return "better" if delta < -bound else "same"


def run(args):
    spec = contract()
    command = shlex.split(args.command) if args.command else spec["command"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    results = {}
    for name in names:
        for i in range(args.runs):
            cmd = command + ["--workload", name, "--seed", str(args.seed0 + i),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{name} seed {args.seed0 + i}: {result['failed']} operations failed")
            for metric, reading in result["metrics"].items():
                results.setdefault(name, {}).setdefault(metric, []).append(reading["value"])
            print(f"{name} run {i + 1}/{args.runs} done", file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(results, f, indent=1)
    print(f"{'workload':<13} {'metric':<24} {'median':>14} {'spread':>8} {'bound':>6}")
    for name in names:
        for metric in spec["end_to_end"]:
            values = results[name][metric["name"]]
            s, bound = spread(values), metric["bound"]
            # The bound on setup_s applies to its median only.
            mark = "" if s <= bound / 3 else "wide" if s <= bound or metric["name"] == "setup_s" else "OVER"
            print(f"{name:<13} {metric['name']:<24} {statistics.median(values):>14.6g} "
                  f"{s:>8.4f} {bound:>6.2f} {mark}")


def compare(args):
    spec = contract()
    with open(args.parent) as f:
        parent = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    print(f"{'workload':<13} {'metric':<24} {'parent':>14} {'change':>14} {'worse by':>9}  verdict")
    bad = 0
    for name in parent:
        for metric in spec["end_to_end"]:
            a, b = parent[name][metric["name"]], change[name][metric["name"]]
            v = verdict(metric, a, b)
            bad += v in ("worse", "unresolved")
            print(f"{name:<13} {metric['name']:<24} {statistics.median(a):>14.6g} "
                  f"{statistics.median(b):>14.6g} {worse_by(metric, a, b):>+9.4f}  {v}")
    sys.exit(1 if bad else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run")
    r.add_argument("out")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--workload", action="append")
    r.add_argument("--command")
    r.set_defaults(go=run)
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    c.set_defaults(go=compare)
    args = parser.parse_args()
    args.go(args)


if __name__ == "__main__":
    main()
