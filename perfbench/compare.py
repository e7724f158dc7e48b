#!/usr/bin/env python3
"""Compare two versions of the program on the benchmark's end-to-end metrics.

Usage, from the repository root:

    python3 perfbench/compare.py BASE NEW [--history FILE]

BASE and NEW each select untraced, fault-free runs: either a JSONL file of
history entries, or a prefix of a source digest or of a revision recorded
in perfbench/history.jsonl.  A revision selects only runs of that exact
tree; runs of a modified tree are recorded as REV-dirty and are selected
only by REV-dirty (or by their source digest).  Runs of the two sides
are paired by workload and seed, so run both sides with the same seeds.
For each workload and metric it prints each side's median and quartiles,
the fraction of pairs NEW won ("-" when no seed was run on both sides),
and a verdict:

  improved    NEW won at least 9/10 of the pairs and the medians differ by
              more than BASE's quartile spread, in the better direction;
  worse       NEW's median is worse than BASE's by more than the metric's
              bound from BENCHMARK.json;
  no worse    neither, with both sides' spreads within the bound;
  unresolved  a side's spread exceeds the bound, unless every NEW run is
              better than every BASE run (then: no worse).
op_p50_us is printed too, as "ungated" unless it improved: the benchmark
records it but does not bound it, because on a machine whose speed
drifts between states it moves more than the other timings.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(selector, history):
    if os.path.isfile(selector):
        path, key = selector, None
    else:
        path, key = history, selector
    runs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            e = json.loads(line)
            if e.get("trace") or e.get("fault"):
                continue
            if key and not (e["src"].startswith(key) or same_revision(e.get("rev"), key)):
                continue
            runs.append(e)
    return runs


def same_revision(rev, key):
    """Whether the recorded revision REV is the one KEY names: KEY is a
    prefix of its hash, and both or neither carry "-dirty"."""
    if not rev:
        return False
    dirty = rev.endswith("-dirty")
    if key.endswith("-dirty") != dirty:
        return False
    return rev.removesuffix("-dirty").startswith(key.removesuffix("-dirty"))


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


# Recorded in the history but not bounded by BENCHMARK.json.
UNGATED = [("op_p50_us", "lower")]


def verdict(base, new, pairs, better, bound):
    sign = 1 if better == "higher" else -1
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    win_frac = wins / len(pairs) if pairs else None
    if win_frac is not None and win_frac >= 0.9 and sign * (nmed - bmed) > (bq3 - bq1):
        return "improved", win_frac
    if bound is None:
        return "ungated", win_frac
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0, (nq3 - nq1) / abs(nmed) if nmed else 0)
    if spread > bound:
        all_better = all(sign * (n - b) > 0 for n in new for b in base)
        return ("no worse" if all_better else "unresolved"), win_frac
    if sign * (bmed - nmed) > bound * abs(bmed):
        return "worse", win_frac
    return "no worse", win_frac


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--history", default=os.path.join(ROOT, "perfbench", "history.jsonl"))
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base, new = load(a.base, a.history), load(a.new, a.history)
    if not base or not new:
        sys.exit("compare: no untraced runs selected for %s" % ("BASE" if not base else "NEW"))
    workloads = [w["name"] for w in spec["workloads"]]
    fmt = "%-14s %-20s %12s %12s %12s | %12s %12s %12s | %5s  %s"
    print(fmt % ("workload", "metric", "base q1", "median", "q3", "new q1", "median", "q3",
                 "won", "verdict"))
    for w in workloads:
        bw = [e for e in base if e["workload"] == w]
        nw = [e for e in new if e["workload"] == w]
        if not bw or not nw:
            continue
        by_seed = {e["seed"]: e for e in bw}
        paired = [(by_seed[e["seed"]], e) for e in nw if e["seed"] in by_seed]
        failed = sum(e["failed"] for e in nw), sum(e["failed"] for e in bw)
        metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
        for name, better, bound in metrics + [(n, b, None) for n, b in UNGATED]:
            if not all(name in e["metrics"] for e in bw + nw):
                continue
            bv = [e["metrics"][name] for e in bw]
            nv = [e["metrics"][name] for e in nw]
            pairs = [(b["metrics"][name], n["metrics"][name]) for b, n in paired]
            v, won = verdict(bv, nv, pairs, better, bound)
            print(fmt % ((w, name) + tuple("%.5g" % x for x in quartiles(bv) + quartiles(nv))
                         + ("-" if won is None else "%.2f" % won, v)))
        if failed[0] > failed[1]:
            print("%-14s NEW failed %d output checks (BASE %d): no gain counts" % (w, *failed))


if __name__ == "__main__":
    main()
