"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 bench/run.py compare PARENT.jsonl CHANGE.jsonl

Each file holds the records that runs append to `results.jsonl`; records of
traced runs are skipped. Runs pair up in file order per workload: the i-th run
of the parent with the i-th run of the change. For each end-to-end metric of
BENCHMARK.json the table gives each side's median and quartiles, the pairs the
change won (ties count for neither) and a verdict:

    better      the change wins at least 9/10 of the pairs and its median is
                better than the parent's by more than the parent's quartile
                spread
    no worse    its median is not worse than the parent's by more than the
                metric's bound, or every run of it reads better than every
                run of the parent
    worse       its median is worse than the parent's by more than the bound
    unresolved  the parent's quartile spread, as a share of its median, is
                wider than the bound, so "no worse" cannot be told apart
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List


def load(path) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if not record["trace"]:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, higher_is_better: bool, bound: float):
    """(verdict, pairs won by the change, pairs, signed share the change is worse by)."""
    def better(x, y):
        return x > y if higher_is_better else x < y

    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if pm:
        worse_by = (cm - pm) / abs(pm) * (-1 if higher_is_better else 1) + 0.0
    else:
        worse_by = 0.0 if cm == pm else (float("-inf") if better(cm, pm) else float("inf"))
    if pairs and wins >= 0.9 * len(pairs) and better(cm, pm) and abs(cm - pm) > p3 - p1:
        result = "better"
    elif all(better(c, p) for c in change for p in parent):
        result = "no worse"
    elif pm and (p3 - p1) / abs(pm) > bound:
        result = "unresolved"
    elif worse_by > bound:
        result = "worse"
    else:
        result = "no worse"
    return result, wins, len(pairs), worse_by


def main(argv, spec) -> int:
    if len(argv) != 2:
        print("usage: run.py compare PARENT.jsonl CHANGE.jsonl", file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    print(f"{'workload':9s} {'metric':18s} {'unit':8s} "
          f"{'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
          f"{'won':>7s} {'worse by':>9s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in parent[workload]]
            b = [r["metrics"][m["name"]]["value"] for r in change[workload]]
            result, wins, pairs, worse_by = verdict(
                a, b, m["better"] == "higher", m["bound"])
            cells = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{workload:9s} {m['name']:18s} {m['unit']:8s} {cells[0]:>34s} "
                  f"{cells[1]:>34s} {wins:>3d}/{pairs:<3d} {worse_by:>+8.1%}  {result}")
    return 0
