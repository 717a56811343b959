#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py --parent P1.json P2.json ... --change C1.json C2.json ...

Each file is a result written by ``bench/run.py --out`` (one workload, or
every workload when run without ``--workload``). The k-th parent run of a
workload pairs with its k-th change run, so run the two sides in
alternating order. Only untraced runs are compared, one row per workload
and end-to-end metric of ``BENCHMARK.json``:

* each side's median with its quartiles (``statistics.quantiles``);
* *unresolved* when either side's quartile spread, as a share of its
  median, exceeds the metric's bound — unless every change run reads
  better than every parent run;
* *win* when the change wins at least 90% of the pairs (ties count for
  neither side), its median is better by more than the parent's own
  quartile spread, and no more ops failed than at the parent;
* *regression* when the change's median is worse than the parent's by
  more than the bound; *within bound* otherwise.

Needs at least 10 pairs per workload; exits 1 if a workload has fewer or
any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9
ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    """Untraced records per workload, in the order given."""
    runs = defaultdict(list)
    for path in paths:
        data = json.loads(Path(path).read_text())
        for record in data.get("runs", [data]):
            if not record["trace"]:
                runs[record["workload"]].append(record)
    return runs


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _cell(values) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def verdict(parent, change, better, bound, failures_rose):
    """One row's verdict from paired values of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    gain = sign * (p_med - c_med)  # > 0 when the change is better
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    if spread > bound:
        if not failures_rose and max(sign * c for c in change) < min(sign * p for p in parent):
            return "win (every run)", wins
        return "unresolved", wins
    if not failures_rose and wins >= WIN_SHARE * len(parent) and gain > p_q3 - p_q1:
        return "win", wins
    if -gain > bound * p_med:
        return "regression", wins
    return "within bound", wins


def host_warnings(records):
    hosts = {(r["host"]["nproc"], r["host"]["python"]) for r in records}
    calibrations = [r["host"]["calibration_s"] for r in records]
    warnings = []
    if len(hosts) > 1:
        warnings.append(f"results come from different hosts (nproc, python): {sorted(hosts)}")
    low, high = min(calibrations), max(calibrations)
    if high > 1.1 * low:
        warnings.append(
            f"calibration loop ranges {low:.3f}-{high:.3f} s: host speed varied by "
            f"{high / low - 1:.0%} across runs"
        )
    return warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parents, changes = load(args.parent), load(args.change)

    all_records = [r for side in (parents, changes) for rs in side.values() for r in rs]
    for warning in host_warnings(all_records):
        print(f"warning: {warning}")
    regressions = 0
    print(f"{'workload':14} {'metric':14} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'delta':>7} {'wins':>7}  verdict")
    for workload in sorted(set(parents) | set(changes)):
        pairs = min(len(parents[workload]), len(changes[workload]))
        if pairs < MIN_PAIRS:
            print(f"{workload:14} only {pairs} pairs; need {MIN_PAIRS}")
            regressions += 1
            continue
        parent, change = parents[workload][:pairs], changes[workload][:pairs]
        failures_rose = sum(r["failed"] for r in change) > sum(r["failed"] for r in parent)
        if failures_rose:
            print(f"{workload:14} more ops failed than at the parent: no win counts")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name] for r in parent]
            c = [r["metrics"][name] for r in change]
            result, wins = verdict(p, c, metric["better"], metric["bound"], failures_rose)
            regressions += result == "regression"
            p_med, c_med = statistics.median(p), statistics.median(c)
            print(
                f"{workload:14} {name:14} {_cell(p):>36} {_cell(c):>36} "
                f"{(c_med - p_med) / p_med:>+7.1%} {wins:>3}/{pairs:<3}  {result}"
            )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
