#!/usr/bin/env python3
"""Compares two sets of rtoffload_bench run records.

    python3 rtoffload_bench/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds the JSON records run.py writes (.bench_out/runs/ by
default; move or --out them per commit). Records pair up by (workload,
seed, traced); run both sides with the same seeds and run length. For
every workload and metric it prints each side's median and quartiles,
the pairs the new side won, lost and tied, and a verdict:

  improved    new wins >= 90% of pairs (ties count for neither) and the
              medians differ by more than the base's own quartile spread;
  regressed   end-to-end: new median worse than the base's by more than
              the metric's bound; per-layer: new loses >= 90% of pairs
              and the medians differ by more than the base's spread;
  unresolved  fewer than five pairs, or an end-to-end metric whose base
              spread exceeds its bound, unless every new run beats every
              base run;
  unchanged   otherwise.

Deterministic counts must repeat exactly for every shared seed, else the
verdict is `changed`. Exits 1 on any regressed or changed metric.
"""

import argparse
import glob
import json
import os
import statistics
import sys

# Fewer pairs than this give no timing verdict (the method asks for ten).
MIN_PAIRS = 5

DETERMINISTIC = {
    "sim.events", "sim.pool_slots_peak", "sim.allocs_per_event",
    "batch.fast_share", "batch.bail_share", "batch.ineligible_share",
    "mckp.dp_cells_per_solve", "mckp.items_kept_frac",
    "odm.offloaded_frac", "odm.infeasible", "health.mode_changes_per_rep",
}


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        key = (rec["workload"], bool(rec["trace"]))
        runs.setdefault(key, []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare_metric(name, spec, base, new):
    """Returns (row text, verdict) for one metric over paired records."""
    lower = spec["better"] == "lower"
    bound = spec.get("bound")
    a = {r["seed"]: r["metrics"][name]["value"] for r in base}
    b = {r["seed"]: r["metrics"][name]["value"] for r in new}
    shared = sorted(set(a) & set(b))
    pairs = ([(a[s], b[s]) for s in shared] if shared
             else list(zip([a[s] for s in sorted(a)], [b[s] for s in sorted(b)])))
    better = (lambda x, y: y < x) if lower else (lambda x, y: y > x)
    wins = sum(1 for x, y in pairs if better(x, y))
    losses = sum(1 for x, y in pairs if better(y, x))
    ties = len(pairs) - wins - losses
    qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
    med_a, med_b = qa[1], qb[1]
    spread = qa[2] - qa[0]
    worse = (med_b - med_a) if lower else (med_a - med_b)
    rel_worse = worse / abs(med_a) if med_a else (0.0 if worse == 0 else float("inf"))

    if name in DETERMINISTIC:
        verdict = "same" if shared and all(a[s] == b[s] for s in shared) else "changed"
    elif len(pairs) < MIN_PAIRS:
        verdict = "unresolved"
    elif wins >= 0.9 * len(pairs) and abs(med_b - med_a) > spread:
        verdict = "improved"
    elif bound is not None:
        all_better = all(better(x, y) for x in a.values() for y in b.values())
        if med_a and spread / abs(med_a) > bound and not all_better:
            verdict = "unresolved"
        elif rel_worse > bound:
            verdict = "regressed"
        else:
            verdict = "unchanged"
    elif losses >= 0.9 * len(pairs) and abs(med_b - med_a) > spread:
        verdict = "regressed"
    else:
        verdict = "unchanged"
    delta = (med_b - med_a) / abs(med_a) * 100 if med_a else 0.0
    row = (f"{name:40s} {med_a:14.6g} [{qa[0]:.4g}, {qa[2]:.4g}]  "
           f"{med_b:14.6g} [{qb[0]:.4g}, {qb[2]:.4g}]  {delta:+7.2f}%  "
           f"{wins}/{losses}/{ties}  {verdict}")
    return row, verdict


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    base, new = load(args.base), load(args.new)
    bad = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for traced, metrics in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            key = (workload, traced)
            if key not in base or key not in new:
                continue
            print(f"== {workload} ({'per-layer, traced' if traced else 'end-to-end'}; "
                  f"{len(base[key])} base runs, {len(new[key])} new runs)")
            print(f"{'metric':40s} {'base median':>14s} [q1, q3]  {'new median':>14s} "
                  f"[q1, q3]  {'delta':>8s}  w/l/t  verdict")
            for spec in metrics:
                row, verdict = compare_metric(spec["name"], spec, base[key], new[key])
                bad += verdict in ("regressed", "changed")
                print(row)
    print(f"{bad} regressed or changed metrics")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
