"""Placement golden: the planner's decisions, pinned bit-for-bit.

``placement_golden.json`` holds sha256 digests of what
:class:`~repro.core.placement.WorkloadAwarePlacer` decides for the three
paper datacenters (1440 instances, 10-minute steps, spec seed 7): the
instance → leaf assignment, every node's cluster labels, and the
assignment after an RPP remap (``max_swaps=30``) together with that remap's
accepted swaps.  For DC3 it also pins the placer under each non-default
configuration in :data:`CONFIGURATIONS`, a serial suite-scoped
re-placement of the oblivious baseline, and a suite-sharded RPP remap of
that baseline (:data:`SHARDED_REMAP`, its assignment and swaps, checked
serially and on two workers).  At fleet scale (:data:`FLEET_SCALE`) it pins
the default placer's assignment and cluster labels for DC3, whose RPP →
rack problems cluster 208 points into k = 56 groups; the 1440-instance
fleets reach k ≤ 16.  Performance work on clustering, placement, remapping
or the topology must leave every digest unchanged.

Regenerate only for a change meant to alter placement decisions, and say
so in the commit message::

    PYTHONPATH=src python tests/core/test_placement_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, Mapping, Sequence

import pytest

from repro.core.pipeline import SmoothOperator, SmoothOperatorConfig
from repro.core.placement import PlacementConfig, WorkloadAwarePlacer, scoped_placement
from repro.core.remapping import RemapConfig, RemappingEngine, Swap
from repro.datasets import facebook
from repro.infra.assignment import Assignment
from repro.infra.topology import Level
from repro.traces import training_trace_set

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "placement_golden.json"
SCALE = {"n_instances": 1440, "step_minutes": 10, "seed": 7}
SPECS = {"DC1": facebook.dc1_spec, "DC2": facebook.dc2_spec, "DC3": facebook.dc3_spec}
#: The fleet of ``bench/``'s ``fleet-dc3`` workload: DC3 at 10,000 instances,
#: 30-minute steps, spec seed 303.
FLEET_SCALE = {"n_instances": 10000, "step_minutes": 30, "seed": 303}

#: Non-default placer configurations, pinned on DC3.  Each takes a branch
#: the default does not: one basis for every node, a smaller basis, and
#: coarser and finer clusterings per node.
CONFIGURATIONS = {
    "rebuild_basis_per_node=False": PlacementConfig(rebuild_basis_per_node=False),
    "top_m_services=3": PlacementConfig(top_m_services=3),
    "clusters_per_child=1": PlacementConfig(clusters_per_child=1),
    "clusters_per_child=4": PlacementConfig(clusters_per_child=4),
}
SCOPED = "scoped_placement(Level.SUITE)"
#: The suite-sharded RPP remap with every other field at its default (50
#: swaps per suite), applied to the oblivious baseline.
SHARDED_REMAP = "remap(shard_level=Level.SUITE)"
SHARDED_REMAP_CONFIG = RemapConfig(level=Level.RPP, shard_level=Level.SUITE)


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


def swaps_digest(swaps: Sequence[Swap]) -> str:
    """sha256 of accepted swaps in acceptance order: both ids, both nodes,
    and both gains as ``float.hex``, so a gain that moves by one ulp shows."""
    h = hashlib.sha256()
    for swap in swaps:
        h.update(
            f"{swap.instance_a}\t{swap.node_a}\t{swap.instance_b}\t{swap.node_b}\t"
            f"{float(swap.gain_a).hex()}\t{float(swap.gain_b).hex()}\n".encode()
        )
    return h.hexdigest()


def build(name: str, scale: Mapping[str, int] = SCALE) -> facebook.Datacenter:
    spec = SPECS[name](n_instances=scale["n_instances"], seed=scale["seed"])
    return facebook.build_datacenter(spec, weeks=3, step_minutes=scale["step_minutes"])


def fingerprint(name: str) -> Dict[str, str]:
    """Digests of one datacenter's placement, labels, remapped placement and
    the remap's swaps."""
    dc = build(name)
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
        "remap_swaps": swaps_digest(outcome.remap.swaps),
    }


def configuration_fingerprint(
    dc: facebook.Datacenter, label: str, *, workers: int = 1
) -> Dict[str, str]:
    """Digests of one :data:`CONFIGURATIONS` placement, of :data:`SCOPED`,
    or of :data:`SHARDED_REMAP` (run on ``workers`` processes)."""
    if label == SHARDED_REMAP:
        result = RemappingEngine(SHARDED_REMAP_CONFIG).run(
            dc.baseline, training_trace_set(dc.records), workers=workers
        )
        return {
            "remap": mapping_digest(result.assignment.as_mapping()),
            "remap_swaps": swaps_digest(result.swaps),
        }
    if label == SCOPED:
        scoped = scoped_placement(dc.records, dc.baseline, Level.SUITE, PlacementConfig())
        return {"placement": mapping_digest(scoped.as_mapping())}
    return placer_fingerprint(dc, CONFIGURATIONS[label])


def placer_fingerprint(dc: facebook.Datacenter, config: PlacementConfig) -> Dict[str, str]:
    """Digests of one placement and its per-node cluster labels."""
    result = WorkloadAwarePlacer(config).place(dc.records, dc.topology)
    return {
        "placement": mapping_digest(result.assignment.as_mapping()),
        "cluster_labels": labels_digest(result.cluster_labels),
    }


def fleet_fingerprint() -> Dict[str, str]:
    """Digests of the default placer on DC3 at :data:`FLEET_SCALE`."""
    return placer_fingerprint(build("DC3", FLEET_SCALE), PlacementConfig())


@pytest.fixture(scope="module")
def golden():
    document = json.loads(GOLDEN_PATH.read_text())
    assert document["scale"] == SCALE, "golden captured at another scale"
    return document


@pytest.fixture(scope="module")
def dc3():
    return build("DC3")


@pytest.mark.parametrize("name", sorted(SPECS))
def test_placement_matches_golden(golden, name):
    assert fingerprint(name) == golden["datacenters"][name]


@pytest.mark.parametrize("label", sorted([*CONFIGURATIONS, SCOPED, SHARDED_REMAP]))
def test_configuration_matches_golden(golden, dc3, label):
    expected = golden["configurations"]["DC3"][label]
    assert configuration_fingerprint(dc3, label) == expected


def test_fleet_placement_matches_golden(golden):
    assert golden["fleet"]["scale"] == FLEET_SCALE, "fleet golden at another scale"
    assert fleet_fingerprint() == golden["fleet"]["DC3"]


def test_pooled_sharded_remap_matches_golden(golden, dc3):
    from repro.engine.parallel import shutdown_pools

    try:
        fingerprint = configuration_fingerprint(dc3, SHARDED_REMAP, workers=2)
    finally:
        shutdown_pools()
    assert fingerprint == golden["configurations"]["DC3"][SHARDED_REMAP]


def test_sharded_remap_builds_one_assignment(dc3, monkeypatch):
    """The accepted swaps (145 on this fleet) are applied to one copy of the
    mapping, not replayed through one ``Assignment`` build each."""
    built = []
    init = Assignment.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    traces = training_trace_set(dc3.records)
    monkeypatch.setattr(Assignment, "__init__", counting_init)
    result = RemappingEngine(SHARDED_REMAP_CONFIG).run(dc3.baseline, traces)
    assert result.n_swaps > 1
    assert len(built) <= 1


if __name__ == "__main__":
    dc = build("DC3")
    document = {
        "scale": SCALE,
        "datacenters": {name: fingerprint(name) for name in sorted(SPECS)},
        "configurations": {
            "DC3": {
                label: configuration_fingerprint(dc, label)
                for label in [*CONFIGURATIONS, SCOPED, SHARDED_REMAP]
            }
        },
        "fleet": {"scale": FLEET_SCALE, "DC3": fleet_fingerprint()},
    }
    GOLDEN_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
