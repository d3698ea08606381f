#!/usr/bin/env python3
"""Summarises two labelled sets of rows of a benchmark trajectory file.

    python3 scripts/bench_summary.py --workload seq-shallow --labels parent change

Run from the repository root. It reads BENCH_<workload>.json (rows written
by scripts/bench_record.py) and, for each of the two labels, takes the
label's latest set: its rows with the same SHA and source digest as the
label's last row, so older sets that reused a label are left out. Untraced
rows are paired by seed. For each end-to-end metric of BENCHMARK.json it
prints each label's median and quartiles, the relative change of the
medians, whether that change is inside the metric's regression bound, the
pairs the second label won (ties count for neither) and whether the gain
rule is met: at least ten pairs, at least nine tenths of them won, and the
medians differ by more than the first label's interquartile range. If both
sets hold a traced run of the same seed, it then prints every per-layer
metric that is not zero in both traced runs, side by side. Last, for each
label's traced runs, it prints EdgePush's ns_per_touch and
touches_per_query as multiples of the node method's (LocalPush, or
PowForPush where the workload runs no LocalPush).
"""
import argparse
import json
import statistics
import sys


def latest_set(rows, label):
    mine = [r for r in rows if r["label"] == label]
    if not mine:
        sys.exit(f"[bench_summary] no rows labelled {label!r}")
    last = mine[-1]
    return [r for r in mine if (r["sha"], r["source_digest"]) == (last["sha"], last["source_digest"])]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def by_seed(rows, trace):
    # a later row of the same seed replaces an earlier one
    return {r["seed"]: r for r in rows if r["trace"] == trace}


def describe(label, rows):
    r = rows[0]
    flag = ", uncommitted changes" if r["dirty"] else ""
    failed = sum(x["failed"] for x in rows)
    attempted = sum(x["attempted"] for x in rows)
    correct = all(x["correct"] for x in rows)
    return (f"{label}: {r['sha'][:7]}{flag}, source digest {r['source_digest']}, "
            f"{len(rows)} rows, correct {correct}, failed {failed}/{attempted}")


def edge_over_node(metrics):
    """EdgePush ÷ node method for ns_per_touch and touches_per_query."""
    node = "localpush" if metrics.get("localpush.touches_per_query") else "powforpush"
    ratios = []
    for name in ("ns_per_touch", "touches_per_query"):
        edge, base = metrics.get(f"edgepush.{name}", 0), metrics.get(f"{node}.{name}", 0)
        ratios.append(f"{name} {edge:.4g} / {base:.4g} = {edge / base:.3f}x" if base else f"{name} n/a")
    return node, ratios


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--labels", nargs=2, required=True, metavar=("BASE", "CHANGE"))
    args = p.parse_args()

    with open(f"BENCH_{args.workload}.json") as f:
        rows = json.load(f)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    base_label, change_label = args.labels
    base_rows, change_rows = latest_set(rows, base_label), latest_set(rows, change_label)
    print(describe(base_label, base_rows))
    print(describe(change_label, change_rows))

    base, change = by_seed(base_rows, 0), by_seed(change_rows, 0)
    seeds = sorted(set(base) & set(change))
    print(f"untraced pairs: {len(seeds)} (seeds {', '.join(map(str, seeds))})")
    if not seeds:
        return 1
    print(f"{'metric':<20} {base_label + ' median [q1-q3]':<28} {change_label + ' median [q1-q3]':<28} "
          f"{'change':>8} {'in bound':>8} {'won':>7} {'gain rule':>9}")
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        xs = [base[s]["metrics"][name] for s in seeds]
        ys = [change[s]["metrics"][name] for s in seeds]
        bq, cq = quartiles(xs), quartiles(ys)
        rel = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        worse = rel if lower else -rel
        won = sum((y < x) if lower else (y > x) for x, y in zip(xs, ys))
        gain = cq[1] < bq[1] if lower else cq[1] > bq[1]
        met = len(seeds) >= 10 and won >= 0.9 * len(seeds) and gain and abs(cq[1] - bq[1]) > bq[2] - bq[0]
        print(f"{name:<20} " + f"{bq[1]:.4g} [{bq[0]:.4g}-{bq[2]:.4g}]".ljust(28) +
              f" {cq[1]:.4g} [{cq[0]:.4g}-{cq[2]:.4g}]".ljust(29) +
              f" {rel:>+8.1%} {('yes' if worse <= m['bound'] else 'NO'):>8} "
              f"{won:>3}/{len(seeds):<3} {('met' if met else 'not met'):>9}")

    base_t, change_t = by_seed(base_rows, 1), by_seed(change_rows, 1)
    for seed in sorted(set(base_t) & set(change_t)):
        print(f"traced seed {seed}: {base_label} -> {change_label}")
        bm, cm = base_t[seed]["metrics"], change_t[seed]["metrics"]
        for name in bm:
            if name in cm and (bm[name] or cm[name]):
                print(f"  {name:<40} {bm[name]:>14.6g} {cm[name]:>14.6g}")
    for label, label_rows in ((base_label, base_rows), (change_label, change_rows)):
        for seed, row in sorted(by_seed(label_rows, 1).items()):
            node, ratios = edge_over_node(row["metrics"])
            print(f"{label} traced seed {seed}, EdgePush / {node}: " + "; ".join(ratios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
