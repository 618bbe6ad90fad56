#!/usr/bin/env python3
"""Compares benchmark runs of a parent and a change (benchmark/README.md).

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmark/compare.py --spread DIR

Each directory holds the result files that benchmark/run.py keeps in
build-bench/results/ (<workload>-seed<N>-trace0.json), one per run. Runs of
the two sides pair up by (workload, seed). Take them in alternating order,
parent first for one seed and change first for the next, with at least ten
seeds per workload.

For every (end-to-end metric, workload) the comparison prints each side's
median and quartiles, the share of pairs the change wins (ties count for
neither side) and a verdict:

  improved    at least 10 pairs, the change wins at least 9/10 of them, and
              its median beats the parent's by more than the parent's
              interquartile range;
  unresolved  either side's interquartile range, as a share of its median,
              is wider than the metric's bound in BENCHMARK.json, and not
              every change run beats every parent run;
  regressed   the change's median is worse than the parent's by more than
              the bound;
  no change   otherwise.

Exits 1 when any pair regressed. --spread prints, as JSON, the median,
quartiles and interquartile share of every (workload, metric) in one
directory: the form of benchmark/calibration.json.
"""
import argparse
import json
import pathlib
import statistics
import sys

SPEC = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory):
    """{workload: {seed: result}} for the untraced runs in `directory`."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace") or result.get("smoke"):
            continue
        runs.setdefault(result["workload"], {})[result["seed"]] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(directory):
    spec = json.loads(SPEC.read_text())
    runs = load_runs(directory)
    out = {"host": None, "seconds": None, "seeds": None, "metrics": {}}
    for workload, by_seed in sorted(runs.items()):
        results = [by_seed[s] for s in sorted(by_seed)]
        host = {k: v for k, v in results[0]["host"].items() if k != "seed"}
        out["host"] = out["host"] or host
        out["seconds"] = results[0]["seconds"]
        out["seeds"] = sorted(by_seed)
        rows = out["metrics"].setdefault(workload, {})
        for metric in spec["end_to_end"]:
            values = [r["end_to_end"][metric["name"]] for r in results]
            q1, med, q3 = quartiles(values)
            rows[metric["name"]] = {
                "runs": len(values), "median": med, "q1": q1, "q3": q3,
                "iqr_share": (q3 - q1) / med, "bound": metric["bound"]}
    print(json.dumps(out, indent=1))


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gain = sign * (cm - pm)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if pairs >= 10 and wins >= 0.9 * pairs and gain > p3 - p1:
        word = "improved"
    elif max((p3 - p1) / pm, (c3 - c1) / cm) > bound and not all_better:
        word = "unresolved"
    elif -gain > bound * pm:
        word = "regressed"
    else:
        word = "no change"
    return (p1, pm, p3), (c1, cm, c3), wins, pairs, word


def compare(parent_dir, change_dir):
    spec = json.loads(SPEC.read_text())
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    print(f"{'workload':20s} {'metric':16s} {'pairs':>5s} "
          f"{'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
          f"{'wins':>6s}  verdict")
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parent[workload][s]["end_to_end"][name] for s in seeds]
            c = [change[workload][s]["end_to_end"][name] for s in seeds]
            (p1, pm, p3), (c1, cm, c3), wins, pairs, word = verdict(
                p, c, metric["better"], metric["bound"])
            regressed |= word == "regressed"
            print(f"{workload:20s} {name:16s} {pairs:5d} "
                  f"{pm:12.5g} [{p1:9.5g}, {p3:9.5g}] "
                  f"{cm:12.5g} [{c1:9.5g}, {c3:9.5g}] "
                  f"{wins:3d}/{pairs:<2d}  {word}")
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spread", metavar="DIR",
                        help="print the spread of the runs in DIR as JSON")
    parser.add_argument("dirs", nargs="*", metavar="PARENT_DIR CHANGE_DIR")
    args = parser.parse_args()
    if args.spread:
        spread(args.spread)
        return 0
    if len(args.dirs) != 2:
        parser.error("need PARENT_DIR and CHANGE_DIR (or --spread DIR)")
    return compare(*args.dirs)


if __name__ == "__main__":
    sys.exit(main())
