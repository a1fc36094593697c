"""Synthesis golden: the synthesized fleets, pinned bit-for-bit.

``synthesis_golden.json`` holds sha256 digests of the training and test
matrices :class:`~repro.traces.synthesis.TraceSynthesizer` produces for the
three paper datacenters at paper scale (1440 instances, 10-minute steps)
and for DC3 at fleet scale (10k instances, 30-minute steps), each at its
committed spec seed.  Every downstream number (placements, peak
reductions, the EXPERIMENTS.md tables) starts from these matrices, so
performance work on synthesis must leave every digest unchanged.

Regenerate only for a change meant to alter the synthesized traces, and say
so in the commit message::

    PYTHONPATH=src python tests/traces/test_synthesis_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict

import pytest

from repro.datasets import facebook
from repro.traces import synthesis
from repro.traces.traceset import TraceSet

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "synthesis_golden.json"
#: Case name → (spec factory, instances, step minutes).  Seeds are the
#: factories' defaults, the ones EXPERIMENTS.md and the benchmark report.
CASES = {
    "DC1-1440-10m": (facebook.dc1_spec, 1440, 10),
    "DC2-1440-10m": (facebook.dc2_spec, 1440, 10),
    "DC3-1440-10m": (facebook.dc3_spec, 1440, 10),
    "DC3-10000-30m": (facebook.dc3_spec, 10000, 30),
}


def traceset_digest(traces: TraceSet) -> str:
    """sha256 over a trace set's grid, ids and float64 matrix bytes."""
    h = hashlib.sha256()
    grid = traces.grid
    h.update(f"{grid.start_minute}\t{grid.step_minutes}\t{grid.n_samples}\n".encode())
    for trace_id in traces.ids:
        h.update(f"{trace_id}\n".encode())
    h.update(traces.matrix.tobytes())
    return h.hexdigest()


def fingerprint(name: str) -> Dict[str, str]:
    """Digests of one case's training and test matrices."""
    factory, n_instances, step_minutes = CASES[name]
    spec = factory(n_instances=n_instances)
    records = facebook.build_datacenter(spec, weeks=3, step_minutes=step_minutes).records
    return {
        "seed": str(spec.seed),
        "training": traceset_digest(synthesis.training_trace_set(records)),
        "test": traceset_digest(synthesis.test_trace_set(records)),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_synthesis_matches_golden(golden, name):
    assert fingerprint(name) == golden[name]


if __name__ == "__main__":
    document = {name: fingerprint(name) for name in sorted(CASES)}
    GOLDEN_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
