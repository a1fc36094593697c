#!/usr/bin/env python3
"""Per-seed quality references for the benchmark workloads.

    python3 bench/reference.py [--seeds FIRST-LAST] [--workload NAME ...]

``rpp_peak_reduction`` is deterministic for a seed, so ``run.py`` checks
it against ``quality_reference.json`` whenever a workload runs with its
default parameters at a seed the table holds (``quality_matches_reference``,
within ``TOLERANCE`` absolute).  A change that buys time with placement
quality then fails a check, and so raises ``failed_frac``, instead of
moving a metric inside its bound.

This script rewrites the table's entries for the given workloads and seeds
(default: every workload, seeds 0-99 and the committed seed).  Rewrite it
only with a change that is meant to alter placement decisions.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict

BENCH_DIR = Path(__file__).resolve().parent
TABLE_PATH = BENCH_DIR / "quality_reference.json"
#: Absolute tolerance on the peak-reduction fraction (0.1 percentage point).
TOLERANCE = 0.001


def load() -> Dict[str, Dict[str, float]]:
    with open(TABLE_PATH) as handle:
        return json.load(handle)


def check(workload: str, seed: int, quality: float) -> Dict[str, bool]:
    """``{"quality_matches_reference": ok}``, or nothing for an unlisted seed."""
    expected = load().get(workload, {}).get(str(seed))
    if expected is None:
        return {}
    return {"quality_matches_reference": abs(quality - expected) <= TOLERANCE}


def measure(workload: str, seed: int) -> float:
    """The quality a default run of ``workload`` reports at ``seed``."""
    import workloads

    bench = workloads.make(workload, seed)
    try:
        bench.setup()
        bench.prepare()
        for _ in range(bench.QUALITY_PASSES):
            bench.run_pass()
            bench.after_pass()
        quality, checks = bench.finish()
    finally:
        bench.close()
    failed = sorted(name for name, ok in checks.items() if not ok)
    if failed:
        raise RuntimeError(f"{workload} seed {seed}: checks failed: {failed}")
    return quality


def _seed_range(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seed_range, help="FIRST-LAST (default: 0-99 and 303)")
    parser.add_argument("--workload", action="extend", nargs="+", help="default: all")
    args = parser.parse_args(argv)

    import run

    run.use_program()
    import workloads

    names = args.workload or [w["name"] for w in run.load_spec()["workloads"]]
    seeds = list(args.seeds) if args.seeds else [*range(100), workloads.COMMITTED_SEED]
    table = load() if TABLE_PATH.exists() else {}
    for name in names:
        entries = table.setdefault(name, {})
        for seed in seeds:
            entries[str(seed)] = measure(name, seed)
            print(f"{name} {seed} {entries[str(seed)]!r}", flush=True)
            with open(TABLE_PATH, "w") as handle:
                json.dump(table, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
