#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench/compare.py PARENT_RUNS CHANGE_RUNS

Each argument is a JSON-lines file written by ``bench/run.py --out`` (or a
directory of them).  Untraced records are paired per workload in file
order, so run the two commits alternately (parent, change, parent, ...)
at the same seed, at least ten times each.  Runs past the shorter side's
count are ignored, and a pair in which either run did not measure a metric
is left out for that metric only.

Each (end-to-end metric, workload) gets one verdict, using the metric's
direction and bound from ``BENCHMARK.json``:

* ``improved``: at least ten pairs, the change wins at least
  nine in ten of them (ties count for neither side), and the medians
  differ, in the better direction, by more than the parent's
  interquartile range;
* ``unresolved``: the parent's own interquartile range, as a share of its
  median, is wider than the bound, unless every change run reads better
  than every parent run;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound (with a wide spread: only if every change run is worse);
* ``unchanged``: otherwise.

The exit code is 1 when any metric regressed or when the change fails a
larger share of its operations and checks than the parent (``failed_frac``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9
MIN_PAIRS = 10


def load_runs(path: Path) -> List[dict]:
    """Untraced run records from a JSON-lines file or a directory of them."""
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for file in files:
        with open(file) as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return [record for record in records if not record.get("trace")]


def quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    *,
    better: str,
    bound: float,
) -> str:
    """The rule above, for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) > 0: a is worse
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = quartiles(parent)
    iqr = q3 - q1
    scale = abs(p_med) or 1.0
    worse_by = sign * (c_med - p_med) / scale
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) > 0 for c in change for p in parent)

    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (p_med - c_med) > iqr
    ):
        return "improved"
    if iqr / scale > bound and not all_better:
        return "regressed" if worse_by > bound and all_worse else "unresolved"
    if worse_by > bound:
        return "regressed"
    return "unchanged"


def failed_frac(records: Iterable[dict]) -> float:
    records = list(records)
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def _by_workload(records: List[dict]) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = {}
    for record in records:
        grouped.setdefault(record["workload"], []).append(record)
    return grouped


def paired_values(parent: List[dict], change: List[dict], name: str):
    """The metric's parent and change values, pair by pair in run order.

    A pair is kept only when both runs measured the metric (a run that
    failed to has ``None``), so a missing value never shifts later pairs.
    """
    pairs = [
        (p["metrics"][name]["value"], c["metrics"][name]["value"])
        for p, c in zip(parent, change)
    ]
    kept = [(p, c) for p, c in pairs if p is not None and c is not None]
    return [p for p, _ in kept], [c for _, c in kept]


def compare(parent: List[dict], change: List[dict], spec: dict):
    """Rows of ``(workload, {metric: verdict}, parent failed_frac, change failed_frac)``
    plus one detail line per (workload, metric)."""
    parents, changes = _by_workload(parent), _by_workload(change)
    rows, lines = [], []
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parents or workload not in changes:
            continue
        p_runs, c_runs = parents[workload], changes[workload]
        verdicts = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_values, c_values = paired_values(p_runs, c_runs, name)
            if not p_values:
                verdicts[name] = "unresolved"
                lines.append(f"{workload:<16} {name:<20} not measured -> unresolved")
                continue
            verdicts[name] = verdict(
                p_values,
                c_values,
                better=metric["better"],
                bound=metric["bound"],
            )
            pq, cq = quartiles(p_values), quartiles(c_values)
            lines.append(
                f"{workload:<16} {name:<20} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}] "
                f"n={len(p_values)}  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] "
                f"n={len(c_values)}  spread {(pq[2] - pq[0]) / (abs(pq[1]) or 1.0):.3f} "
                f"bound {metric['bound']}  -> {verdicts[name]}"
            )
        rows.append((workload, verdicts, failed_frac(p_runs), failed_frac(c_runs)))
    return rows, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    rows, lines = compare(load_runs(args.parent), load_runs(args.change), spec)
    if not rows:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 2
    metrics = [m["name"] for m in spec["end_to_end"]]
    print(f"{'workload':<16} " + " ".join(f"{m:<20}" for m in metrics) + " failed_frac")
    status = 0
    for workload, verdicts, p_failed, c_failed in rows:
        if "regressed" in verdicts.values() or c_failed > p_failed:
            status = 1
        cells = " ".join(f"{verdicts[m]:<20}" for m in metrics)
        print(f"{workload:<16} {cells} {p_failed:.4g} -> {c_failed:.4g}")
    print()
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
