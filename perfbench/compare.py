#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

Usage:

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are each a directory of <workload>.jsonl files written by
`perfbench/run.py --record DIR` (or single .jsonl files).  Runs are paired
in the order they were recorded, so record the two sides alternately.

For every workload and end-to-end metric of the repository's BENCHMARK.json
it prints each side's median and quartiles, the share of pairs the change
won (ties count for neither side), and a verdict.  Runs whose result is not
correct are left out of these statistics.  When the change has a larger share
of incorrect runs, or of failed operations, than the base, the workload's
verdict is "failed" and no metric of it is compared:

  improved      the change won at least 9 of 10 pairs and its median beats
                the base median by more than the base's own quartile spread
  regression    the change median is worse than the base median by more
                than the metric's bound
  unresolved    either side's quartile spread is wider than the bound, so
                "no worse" cannot be shown (unless every change run beats
                every base run, which counts as improved)
  within bound  none of the above

Exits 1 when any workload failed or any row is a regression, else 0.
Standard library only.
"""

import argparse
import json
import os
import statistics
import sys


def load_runs(path):
    """{workload: [metrics dict per run, in recorded order]}"""
    files = []
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".jsonl")]
    else:
        files = [path]
    runs = {}
    for name in files:
        with open(name) as f:
            for line in f:
                if not line.strip():
                    continue
                record = json.loads(line)
                if record["context"].get("trace"):
                    continue
                workload = record["context"]["workload"]
                result = record["result"]
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                metrics["_correct"] = result["correct"]
                metrics["_attempted"] = result["attempted"]
                metrics["_failed"] = result["failed"]
                runs.setdefault(workload, []).append(metrics)
    return runs


def failure_shares(runs):
    """(share of runs not correct, share of attempted operations that failed)"""
    incorrect = sum(1 for r in runs if not r["_correct"]) / len(runs)
    attempted = sum(r["_attempted"] for r in runs)
    failed = sum(r["_failed"] for r in runs) / attempted if attempted else 0.0
    return incorrect, failed


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, pairs, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    won = wins / len(pairs) if pairs else 0.0
    gain = sign * (bm - cm)
    worse_share = -gain / abs(bm) if bm else 0.0
    spread_b = (b3 - b1) / abs(bm) if bm else 0.0
    spread_c = (c3 - c1) / abs(cm) if cm else 0.0
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if (won >= 0.9 and gain > (b3 - b1)) or (all_better and len(base) > 1):
        label = "improved"
    elif max(spread_b, spread_c) > bound:
        label = "unresolved"
    elif worse_share > bound:
        label = "regression"
    else:
        label = "within bound"
    return {"base": (b1, bm, b3), "change": (c1, cm, c3), "won": won,
            "pairs": len(pairs), "delta": -worse_share, "label": label}


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base, change = load_runs(args.base), load_runs(args.change)
    regressions = 0
    failures = 0
    header = f"{'workload':16} {'metric':16} {'base q1/med/q3':>36} {'change q1/med/q3':>36} {'gain':>8} {'won':>9}  verdict"
    print(header)
    for workload in sorted(set(base) | set(change)):
        if workload not in base or workload not in change:
            print(f"{workload:16} only in {'base' if workload in base else 'change'}; not compared")
            continue
        for runs, side in ((base[workload], "base"), (change[workload], "change")):
            incorrect, failed = failure_shares(runs)
            if incorrect or failed:
                print(f"{workload:16} {side}: {incorrect:.0%} of {len(runs)} runs not correct, "
                      f"{failed:.2%} of operations failed")
        base_shares, change_shares = failure_shares(base[workload]), failure_shares(change[workload])
        if any(c > b for b, c in zip(base_shares, change_shares)):
            failures += 1
            print(f"{workload:16} failed: the change fails more than the base; not compared")
            continue
        for m in metrics:
            name = m["name"]
            usable = lambda r: name in r and r["_correct"]
            b = [r[name] for r in base[workload] if usable(r)]
            c = [r[name] for r in change[workload] if usable(r)]
            pairs = [(rb[name], rc[name]) for rb, rc in zip(base[workload], change[workload])
                     if usable(rb) and usable(rc)]
            if not b or not c:
                continue
            v = verdict(b, c, pairs, m["bound"], m["better"] == "lower")
            regressions += v["label"] == "regression"
            fmt = lambda q: "/".join(f"{x:.5g}" for x in q)
            print(f"{workload:16} {name:16} {fmt(v['base']):>36} {fmt(v['change']):>36} "
                  f"{100 * v['delta']:+7.2f}% {v['won']:5.0%} of {v['pairs']:<2} {v['label']}"
                  f" (bound {m['bound']:.0%})")
    return 1 if regressions or failures else 0


if __name__ == "__main__":
    sys.exit(main())
