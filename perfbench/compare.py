#!/usr/bin/env python3
"""Compare two sets of benchmark results: a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds the --json results of spans-off runs (any file
names). For every workload and end-to-end metric it prints each side's
median and quartiles, the change's win fraction over the pairs (runs
paired by seed, then in file-name order), and a verdict:

  improved      the change wins at least 9 of 10 pairs and the medians
                differ by more than the parent's quartile spread
  unresolved    a side's quartile spread, as a share of its median, is
                wider than the bound, and not every change run beats
                every parent run
  regressed     the change's median is worse than the parent's by more
                than the bound in BENCHMARK.json
  within bound  otherwise

It also checks that runs of one seed repeat their deterministic counts
on each side. Exits 1 on any regression, any rise in the share of
failed operations, or any count that does not repeat.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        if isinstance(r, dict) and "workload" in r and not r.get("trace", False):
            runs.setdefault(r["workload"], []).append(r)
    for rs in runs.values():
        rs.sort(key=lambda r: r["seed"])
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(metric, parent, change):
    better_lower = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)

    def beats(c, p):
        return c < p if better_lower else c > p

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if beats(c, p))
    win_frac = wins / len(pairs) if pairs else 0.0
    worse_by = (cm - pm) / pm if better_lower else (pm - cm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    all_better = all(beats(c, p) for c in change for p in parent)
    if win_frac >= 0.9 and beats(cm, pm) and abs(cm - pm) > (p3 - p1):
        v = "improved"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "regressed"
    else:
        v = "within bound"
    return (p1, pm, p3), (c1, cm, c3), win_frac, worse_by, v


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def repeats(runs):
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], set()).add(
            json.dumps(r["meta"]["deterministic_counts"], sort_keys=True))
    return [seed for seed, counts in by_seed.items() if len(counts) > 1]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    bad = False
    print(f"{'workload':16} {'metric':14} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'wins':>5} {'worse':>7}  verdict")
    for w in sorted(set(parent) | set(change)):
        if w not in parent or w not in change:
            print(f"{w:16} only in {'parent' if w in parent else 'change'}")
            bad = True
            continue
        for side, runs in (("parent", parent[w]), ("change", change[w])):
            for seed in repeats(runs):
                print(f"{w:16} {side} seed {seed}: deterministic counts differ between runs")
                bad = True
        for m in metrics:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in parent[w]]
            c = [r["metrics"][name]["value"] for r in change[w]]
            (p1, pm, p3), (c1, cm, c3), wins, worse, v = verdict(m, p, c)
            print(f"{w:16} {name:14} {pm:12.5g} [{p1:.5g}, {p3:.5g}]".ljust(62)
                  + f" {cm:12.5g} [{c1:.5g}, {c3:.5g}]".ljust(31)
                  + f" {wins:5.2f} {100 * worse:+6.1f}%  {v}")
            bad = bad or v == "regressed"
        fp, fc = failed_share(parent[w]), failed_share(change[w])
        if fc > fp:
            print(f"{w:16} failed ops rose from {100 * fp:.3f}% to {100 * fc:.3f}%")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
