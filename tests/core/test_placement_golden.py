"""Placement golden: the planner's decisions, pinned bit-for-bit.

``placement_golden.json`` holds sha256 digests of what
:class:`~repro.core.placement.WorkloadAwarePlacer` decides for the three
paper datacenters (1440 instances, 10-minute steps, spec seed 7): the
instance → leaf assignment, every node's cluster labels, and the
assignment after an RPP remap (``max_swaps=30``).  Performance work on
clustering, placement or the topology must leave every digest unchanged.

Regenerate only for a change meant to alter placement decisions, and say
so in the commit message::

    PYTHONPATH=src python tests/core/test_placement_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, Mapping

import pytest

from repro.core.pipeline import SmoothOperator, SmoothOperatorConfig
from repro.core.placement import PlacementConfig
from repro.core.remapping import RemapConfig
from repro.datasets import facebook
from repro.infra.topology import Level

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "placement_golden.json"
SCALE = {"n_instances": 1440, "step_minutes": 10, "seed": 7}
SPECS = {"DC1": facebook.dc1_spec, "DC2": facebook.dc2_spec, "DC3": facebook.dc3_spec}


def mapping_digest(mapping: Mapping[str, str]) -> str:
    """Order-independent sha256 of an instance → leaf mapping."""
    h = hashlib.sha256()
    for instance_id, leaf in sorted(mapping.items()):
        h.update(f"{instance_id}\t{leaf}\n".encode())
    return h.hexdigest()


def labels_digest(labels: Mapping[str, Mapping[str, int]]) -> str:
    """Order-independent sha256 of per-node cluster labels."""
    h = hashlib.sha256()
    for node_name in sorted(labels):
        for instance_id, label in sorted(labels[node_name].items()):
            h.update(f"{node_name}\t{instance_id}\t{label}\n".encode())
    return h.hexdigest()


def fingerprint(name: str) -> Dict[str, str]:
    """Digests of one datacenter's placement, labels and remapped placement."""
    spec = SPECS[name](n_instances=SCALE["n_instances"], seed=SCALE["seed"])
    dc = facebook.build_datacenter(spec, weeks=3, step_minutes=SCALE["step_minutes"])
    operator = SmoothOperator(
        SmoothOperatorConfig(
            placement=PlacementConfig(),
            remap=RemapConfig(level=Level.RPP, max_swaps=30),
        )
    )
    outcome = operator.optimize(dc.records, dc.topology)
    return {
        "placement": mapping_digest(outcome.placement.assignment.as_mapping()),
        "cluster_labels": labels_digest(outcome.placement.cluster_labels),
        "remap": mapping_digest(outcome.remap.assignment.as_mapping()),
    }


@pytest.fixture(scope="module")
def golden():
    document = json.loads(GOLDEN_PATH.read_text())
    assert document["scale"] == SCALE, "golden captured at another scale"
    return document


@pytest.mark.parametrize("name", sorted(SPECS))
def test_placement_matches_golden(golden, name):
    assert fingerprint(name) == golden["datacenters"][name]


if __name__ == "__main__":
    document = {
        "scale": SCALE,
        "datacenters": {name: fingerprint(name) for name in sorted(SPECS)},
    }
    GOLDEN_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
