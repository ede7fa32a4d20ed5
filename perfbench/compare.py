#!/usr/bin/env python3
"""Compare two result sets of the benchmark (choosing-metrics guide, section 8).

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl [--spec BENCHMARK.json]

Each file holds the lines `run.py --record FILE` appends, one per run. Runs
are grouped by workload and traced/untraced mode, and paired by seed: the
k-th run of a seed on one side with the k-th run of that seed on the other.
Runs without a partner are left out.

Per workload and metric it prints each side's median and quartiles, the
pairs the change won (ties count for neither side), the median paired
difference d (change vs base on the same seed, as a share of the base, > 0
when the change is better), the noise (quartile distance of those paired
differences: the seeds' own differences cancel in a pair, so this is run
noise only), and a verdict:

  gain        the change won >= 9/10 of the pairs and the medians differ by
              more than the base's own quartile distance
  regression  d is worse than the metric's bound
  unresolved  the noise exceeds the bound, so "no worse" cannot be shown,
              unless every run of the change beats every run of the base
  ok          within the bound
Per-layer metrics have no bound; they get gain / changed / same only.
"""

import argparse
import json
import math
import os
import statistics
import sys


def load(path):
    groups = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def paired(base_runs, change_runs):
    """Both sides' runs, reordered so that equal positions share a seed."""
    pending = {}
    for rec in change_runs:
        pending.setdefault(rec["seed"], []).append(rec)
    b_out, c_out = [], []
    for rec in base_runs:
        partners = pending.get(rec["seed"])
        if partners:
            b_out.append(rec)
            c_out.append(partners.pop(0))
    return b_out, c_out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def paired_differences(base, change, better):
    """(change - base) / |base| per pair, signed so that > 0 is better."""
    sign = 1.0 if better == "higher" else -1.0
    out = []
    for b, c in zip(base, change):
        if b != 0:
            out.append(sign * (c - b) / abs(b))
        else:
            out.append(0.0 if c == b else math.copysign(math.inf, sign * c))
    return out


def verdict(base, change, better, bound):
    diffs = paired_differences(base, change, better)
    won = sum(1 for d in diffs if d > 0)
    lost = sum(1 for d in diffs if d < 0)
    q1, d, q3 = quartiles(diffs)
    noise = q3 - q1 if math.isfinite(q3 - q1) else math.inf
    bq1, bmed, bq3 = quartiles(base)
    cmed = quartiles(change)[1]
    if diffs and won >= 0.9 * len(diffs) and abs(cmed - bmed) > bq3 - bq1:
        return won, lost, d, noise, "gain"
    if bound is None:
        return won, lost, d, noise, "same" if lost == 0 and won == 0 else "changed"
    if -d > bound:
        return won, lost, d, noise, "regression"
    sign = 1.0 if better == "higher" else -1.0
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    if noise > bound and not all_better:
        return won, lost, d, noise, "unresolved"
    return won, lost, d, noise, "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--spec", default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                                       os.pardir, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(args.base), load(args.change)
    status = 0
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        b_runs, c_runs = paired(base[key], change[key])
        n = len(b_runs)
        if n == 0:
            continue
        print("\n%s (%s, %d pairs)" % (workload, "traced" if trace else "untraced", n))
        print("%-30s %-6s %26s %26s %7s %8s %8s  %s" % (
            "metric", "unit", "base q1/median/q3", "change q1/median/q3", "won", "d",
            "noise", "verdict"))
        for name in b_runs[0]["result"]["metrics"]:
            m = meta.get(name, {"unit": "?", "better": "lower"})
            bv = [r["result"]["metrics"][name]["value"] for r in b_runs]
            cv = [r["result"]["metrics"][name]["value"] for r in c_runs
                  if name in r["result"]["metrics"]]
            if len(cv) != n:
                continue
            better = m.get("better", "higher" if trace else "lower")
            won, lost, d, noise, v = verdict(bv, cv, better, m.get("bound"))
            if v == "regression":
                status = 1
            fmt = lambda q: "%8.4g/%8.4g/%8.4g" % q
            print("%-30s %-6s %26s %26s %3d/%-3d %8.3f %8.3f  %s" % (
                name, m["unit"], fmt(quartiles(bv)), fmt(quartiles(cv)), won, n, d,
                noise, v))
    sys.exit(status)


if __name__ == "__main__":
    main()
