"""Compare two sets of benchmark runs, or summarise one.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py RUNS.jsonl

Each file holds the lines ``run.py --record FILE`` appends.  Every
workload x metric gets its own row: the median and quartiles of each set
and the ratio of the medians, with the parent's median as the base.

Verdicts (runs are paired by seed):

* improved -- the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ, in the better direction, by more than
  the parent's quartile distance.
* regressed -- the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json.  Per-layer metrics have no bound:
  they regress by the mirror of the improved rule.
* unresolved -- neither, and the run-to-run spread (quartile distance over
  median, either set) is wider than the bound, unless every run of the
  change reads better than every run of the parent.  Per-layer metrics
  that are neither improved nor regressed are unresolved unless every run
  of both sets reads the same.
* unchanged -- neither, within the bound.

With one file, each row shows the spread and whether it is below a third
of the metric's bound, the steadiness the benchmark is tuned to.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, trace): {metric: {seed: value}}} from a record file."""
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            for name, m in rec["result"]["metrics"].items():
                runs.setdefault(key, {}).setdefault(name, {})[rec["seed"]] = m["value"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(parent, change, better, bound):
    """Verdict for one workload x metric; parent and change map seed -> value."""
    sign = 1.0 if better == "higher" else -1.0
    a, b = list(parent.values()), list(change.values())
    q1a, med_a, q3a = quartiles(a)
    med_b = statistics.median(b)
    gain = sign * (med_b - med_a)
    seeds = parent.keys() & change.keys()
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    losses = sum(sign * (change[s] - parent[s]) < 0 for s in seeds)
    if seeds and wins >= 0.9 * len(seeds) and gain > q3a - q1a:
        return "improved", wins, len(seeds)
    if bound is None:
        if seeds and losses >= 0.9 * len(seeds) and -gain > q3a - q1a:
            return "regressed", wins, len(seeds)
        same = len(set(a) | set(b)) == 1
        return ("unchanged" if same else "unresolved"), wins, len(seeds)
    if -gain > bound * abs(med_a):
        return "regressed", wins, len(seeds)
    all_better = min(sign * v for v in b) > max(sign * v for v in a)
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved", wins, len(seeds)
    return "unchanged", wins, len(seeds)


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    declared = {(m["name"], trace): m for trace, group in ((0, "end_to_end"), (1, "per_layer"))
                for m in bench[group]}
    sets = [load(p) for p in argv]
    keys = sorted(sets[0].keys() & sets[-1].keys(), key=lambda k: (k[1], k[0]))
    for workload, trace in keys:
        print(f"\n{workload} ({'per-layer, traced' if trace else 'end-to-end'})")
        for name, parent in sets[0][(workload, trace)].items():
            m = declared.get((name, trace))
            if m is None:
                continue
            bound = m.get("bound")
            q1, med, q3 = quartiles(list(parent.values()))
            row = f"  {name:22} {med:12.4f} [{q1:.4f}, {q3:.4f}] {m['unit']:5}"
            if len(sets) == 1:
                s = spread(list(parent.values()))
                steady = "" if bound is None else (
                    f"  bound {bound:.2f} {'steady' if s < bound / 3 else 'UNSTEADY'}")
                print(f"{row} n={len(parent)} spread {s:.4f}{steady}")
                continue
            change = sets[1][(workload, trace)].get(name, {})
            if not change:
                continue
            cq1, cmed, cq3 = quartiles(list(change.values()))
            ratio = f"{cmed / med:.4f}" if med else "n/a"
            v, wins, pairs = verdict(parent, change, m["better"], bound)
            print(f"{row} -> {cmed:12.4f} [{cq1:.4f}, {cq3:.4f}]  ratio {ratio} "
                  f"(base {med:.4g})  wins {wins}/{pairs}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
