#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per (metric, workload).

    python3 perfbench/compare.py <parent_runs_dir> <change_runs_dir> [--all]

Each directory holds run records as written by the benchmark under
.perfbench_out/runs/ (any depth; copy that tree aside between commits).
Only untraced records are compared. Runs of the two sets are paired by
seed where both have it, otherwise in order.

Each row gives both sides' median and quartiles (statistics.quantiles,
n=4), the change's win fraction over the pairs (ties count for
neither), and a verdict:

  improved            the change wins at least 9/10 of the pairs and the
                      medians differ, in its favour, by more than the
                      parent's own quartile spread;
  worse beyond bound  the change's median is worse than the parent's by
                      more than the metric's bound in BENCHMARK.json;
  unresolved          the parent's spread is wider than the bound and
                      the change does not win every pair;
  within bound        otherwise.

--all adds the workload-specific named metrics, which have no bound and
are reported without a bound verdict.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(dirpath):
    runs = []
    for path in sorted(glob.glob(os.path.join(dirpath, "**", "*.json"), recursive=True)):
        try:
            with open(path) as f:
                rec = json.load(f)
        except (OSError, ValueError):
            continue
        if isinstance(rec, dict) and rec.get("trace") == 0 and "workload" in rec:
            runs.append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(a_runs, b_runs, key):
    by_seed_a = {r["seed"]: r[key] for r in a_runs if key in r}
    by_seed_b = {r["seed"]: r[key] for r in b_runs if key in r}
    common = sorted(set(by_seed_a) & set(by_seed_b))
    if common:
        return [(by_seed_a[s], by_seed_b[s]) for s in common]
    a = [r[key] for r in a_runs if key in r]
    b = [r[key] for r in b_runs if key in r]
    return list(zip(a, b))


def verdict(a, b, prs, better, bound):
    _, med_a, _ = quartiles(a)
    q1a, _, q3a = quartiles(a)
    _, med_b, _ = quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for x, y in prs if sign * (y - x) > 0)
    losses = sum(1 for x, y in prs if sign * (y - x) < 0)
    win_frac = wins / len(prs) if prs else 0.0
    gain = sign * (med_b - med_a)
    if bound is None:
        return win_frac, "-"
    if prs and win_frac >= 0.9 and gain > (q3a - q1a):
        return win_frac, "improved"
    if med_a != 0 and -gain > bound * abs(med_a):
        return win_frac, "worse beyond bound"
    spread = (q3a - q1a) / abs(med_a) if med_a else float("inf")
    if spread > bound and not (prs and losses == 0 and wins == len(prs)):
        return win_frac, "unresolved"
    return win_frac, "within bound"


def main(argv):
    args = [a for a in argv if not a.startswith("--")]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    show_all = "--all" in argv
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    a_runs, b_runs = load(args[0]), load(args[1])
    if not a_runs or not b_runs:
        print("compare: no untraced run records in one of the directories", file=sys.stderr)
        return 1
    metrics = [("e2e." + m["name"], m["better"], m["bound"], m["unit"]) for m in spec["end_to_end"]]
    if show_all:
        names = sorted({k for r in a_runs + b_runs for k in r if k.startswith("named.")})
        metrics += [(k, "higher" if k.endswith(("per_s", "gbps")) else "lower", None, "") for k in names]
    header = (
        f"{'metric':<28} {'workload':<14} {'n':>5} "
        f"{'parent med [q1, q3]':>34} {'change med [q1, q3]':>34} {'win':>5}  verdict"
    )
    print(header)
    print("-" * len(header))
    for w in spec["workloads"]:
        wa = [r for r in a_runs if r["workload"] == w["name"]]
        wb = [r for r in b_runs if r["workload"] == w["name"]]
        for key, better, bound, _unit in metrics:
            a = [r[key] for r in wa if key in r]
            b = [r[key] for r in wb if key in r]
            if not a or not b:
                continue
            prs = pairs(wa, wb, key)
            q1a, ma, q3a = quartiles(a)
            q1b, mb, q3b = quartiles(b)
            win, v = verdict(a, b, prs, better, bound)
            print(
                f"{key.split('.', 1)[1]:<28} {w['name']:<14} {len(a):>2}/{len(b):<2} "
                f"{ma:>12.4g} [{q1a:>9.4g}, {q3a:>9.4g}] "
                f"{mb:>12.4g} [{q1b:>9.4g}, {q3b:>9.4g}] {win:>5.2f}  {v}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
