"""The breadth-first placer against the depth-first walk it replaced.

:class:`DepthFirstPlacer` keeps the placer's former recursive walk
(``place``, ``_place_under`` and the one-node ``_cluster``) verbatim as the
oracle.  :class:`~repro.core.placement.WorkloadAwarePlacer` now walks the
tree a round at a time and clusters the same-shape problems of a round as
one stack; every comparison below holds it to the oracle's mapping and
cluster labels (dict order included), each leaf's member order and the
basis services, or to the same ``AssignmentError`` message.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro import obs
from repro.core.clustering import balanced_kmeans
from repro.core.asynchrony import score_matrix
from repro.core import placement
from repro.core.placement import (
    PlacementConfig,
    PlacementResult,
    WorkloadAwarePlacer,
    _FleetRows,
    _require_unique_ids,
)
from repro.datasets import build_datacenter, facebook
from repro.infra import Level, PowerTopology, build_topology, two_level_spec
from repro.infra.assignment import Assignment, AssignmentError
from repro.infra.topology import PowerNode
from repro.traces import InstanceRecord, TraceSet, hadoop_profile, web_profile


class DepthFirstPlacer(WorkloadAwarePlacer):
    """The recursive walk, one ``balanced_kmeans`` call per node."""

    def place(
        self, records: Sequence[InstanceRecord], topology: PowerTopology
    ) -> PlacementResult:
        if not records:
            raise ValueError("nothing to place")
        _require_unique_ids(records)
        capacity = topology.total_leaf_capacity()
        if capacity is not None and len(records) > capacity:
            raise AssignmentError(
                f"{len(records)} instances exceed total leaf capacity {capacity}"
            )
        with obs.span("place", instances=len(records)):
            fleet = _FleetRows(records)
            global_basis = fleet.services.basis(self.config.top_m_services)
            mapping: Dict[str, str] = {}
            diagnostics: Dict[str, Dict[str, int]] = {}
            self._place_under(
                topology,
                topology.root,
                fleet,
                np.arange(len(records)),
                global_basis,
                mapping,
                diagnostics,
            )
            assignment = Assignment(topology, mapping)
            obs.count("place.instances_placed", len(mapping))
            return PlacementResult(
                assignment=assignment,
                basis_services=list(global_basis.ids),
                cluster_labels=diagnostics,
            )

    def _place_under(
        self,
        topology: PowerTopology,
        node: PowerNode,
        fleet: _FleetRows,
        rows: np.ndarray,
        basis: Optional[TraceSet],
        mapping: Dict[str, str],
        diagnostics: Dict[str, Dict[str, int]],
    ) -> None:
        if len(rows) == 0:
            return
        if node.is_leaf:
            if node.capacity is not None and len(rows) > node.capacity:
                raise AssignmentError(
                    f"leaf {node.name} receives {len(rows)} instances, "
                    f"capacity {node.capacity}"
                )
            for row in rows.tolist():
                mapping[fleet.ids[row]] = node.name
            return
        if len(node.children) == 1:
            self._place_under(
                topology, node.children[0], fleet, rows, basis, mapping, diagnostics
            )
            return

        obs.count("place.nodes_clustered")
        if basis is None:
            basis = fleet.services.basis(self.config.top_m_services, rows)
        clusters, labels = self._cluster(node, fleet, rows, basis)
        diagnostics[node.name] = {
            fleet.ids[row]: label for row, label in zip(rows.tolist(), labels.tolist())
        }
        shares = self._child_shares(topology, node, len(rows))
        buckets = self._deal_round_robin(node, fleet, clusters, shares)
        child_basis = None if self.config.rebuild_basis_per_node else basis
        for child, bucket in zip(node.children, buckets):
            self._place_under(
                topology, child, fleet, bucket, child_basis, mapping, diagnostics
            )

    def _cluster(
        self,
        node: PowerNode,
        fleet: _FleetRows,
        rows: np.ndarray,
        basis: TraceSet,
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        scores = score_matrix(fleet.traces, basis, rows=rows)
        q = len(node.children)
        h = min(len(rows), q * self.config.clusters_per_child)
        h = max(h, 1)
        result = balanced_kmeans(
            scores,
            h,
            seed=self._node_seed(node),
            n_init=self.config.kmeans_n_init,
            max_iter=self.config.kmeans_max_iter,
        )
        clusters = [
            fleet.deal_order(rows[result.labels == label]) for label in range(result.k)
        ]
        return clusters, result.labels


def outcome(placer, records, topology):
    """Everything a placement decides, order included, or its error."""
    try:
        result = placer.place(records, topology)
    except AssignmentError as error:
        return ("raised", type(error), str(error))
    return (
        list(result.assignment.as_mapping().items()),
        [(node, list(labels.items())) for node, labels in result.cluster_labels.items()],
        [result.assignment.instances_on_leaf(leaf.name) for leaf in topology.leaves()],
        result.basis_services,
    )


def assert_same_walk(records, topology, config=PlacementConfig()):
    expected = outcome(DepthFirstPlacer(config), records, topology)
    assert outcome(WorkloadAwarePlacer(config), records, topology) == expected
    return expected


CONFIGURATIONS = [
    PlacementConfig(),
    PlacementConfig(clusters_per_child=1),
    PlacementConfig(clusters_per_child=4),
    PlacementConfig(top_m_services=3),
    PlacementConfig(rebuild_basis_per_node=False),
]


@pytest.mark.parametrize(
    "spec, n_instances",
    [
        (facebook.dc1_spec, 96),
        (facebook.dc2_spec, 240),
        (facebook.dc3_spec, 480),
        (facebook.dc1_spec, 480),
    ],
)
@pytest.mark.parametrize("config", CONFIGURATIONS, ids=repr)
def test_paper_datacenters(spec, n_instances, config):
    dc = build_datacenter(spec(n_instances=n_instances, seed=7), step_minutes=60)
    assert_same_walk(dc.records, dc.topology, config)


@pytest.mark.parametrize("config", CONFIGURATIONS, ids=repr)
def test_demo_fleet(demo_datacenter, config):
    assert_same_walk(demo_datacenter.records, demo_datacenter.topology, config)


def test_stacks_hold_at_most_stack_size_problems(monkeypatch):
    """The placer clusters a stack as soon as it holds ``stack_size``
    problems: with room for two, DC3's rounds of same-shape nodes go in
    calls of at most two, and the placement is still the depth-first
    walk's."""
    sizes: List[int] = []

    def counted(points, k, **kwargs):
        sizes.append(len(points))
        return balanced_kmeans(points, k, **kwargs)

    monkeypatch.setattr(placement, "stack_size", lambda n, d, k: 2)
    monkeypatch.setattr(placement, "balanced_kmeans", counted)
    dc = build_datacenter(facebook.dc3_spec(n_instances=480, seed=7), step_minutes=60)
    assert_same_walk(dc.records, dc.topology)
    assert max(sizes) == 2 and sizes.count(2) >= 2


def leaf(name: str, capacity: Optional[int]) -> PowerNode:
    return PowerNode(name, Level.RACK, capacity=capacity)


def node(name: str, level: str, *children: PowerNode) -> PowerNode:
    parent = PowerNode(name, level)
    for child in children:
        parent.add_child(child)
    return parent


def uneven_tree() -> PowerTopology:
    """Capacity binds unevenly, so ``_child_shares`` waterfills at the
    root and at ``a``; ``b`` is a single-child chain and ``c`` holds one
    unbounded leaf."""
    return PowerTopology(
        node(
            "dc",
            Level.DATACENTER,
            node("a", Level.SUITE, leaf("a0", 2), leaf("a1", 9), leaf("a2", 3)),
            node("b", Level.SUITE, node("b-rpp", Level.RPP, leaf("b0", 4))),
            node("c", Level.SUITE, leaf("c0", None), leaf("c1", 1)),
        )
    )


@pytest.mark.parametrize("config", CONFIGURATIONS, ids=repr)
def test_capacity_bound_tree(synthesizer, config):
    records = synthesizer.fleet([(web_profile(), 14), (hadoop_profile(), 10)])
    expected = assert_same_walk(records, uneven_tree(), config)
    occupancy = {leaf_name: 0 for leaf_name in ("a0", "a1", "a2", "b0", "c0", "c1")}
    for _, leaf_name in expected[0]:
        occupancy[leaf_name] += 1
    # The even split gives each suite 8: b holds 4, so the root waterfills
    # the rest to a, whose 12 fill a0 and a2 and overflow to a1.
    assert (occupancy["b0"], occupancy["a0"], occupancy["a1"], occupancy["a2"]) == (4, 2, 7, 3)


@pytest.mark.parametrize("config", CONFIGURATIONS, ids=repr)
def test_chains_and_empty_children(synthesizer, config):
    # Three instances on a tree of eight leaves under two-level chains:
    # most children receive no rows.
    records = synthesizer.service_instances(web_profile(), 3)
    wide = build_topology(two_level_spec("wide", leaves=8, leaf_capacity=4))
    assert_same_walk(records, wide, config)
    chain = PowerTopology(
        node(
            "dc",
            Level.DATACENTER,
            node("s", Level.SUITE, node("m", Level.MSB, leaf("r0", 2), leaf("r1", 2))),
        )
    )
    assert_same_walk(records, chain, config)


def failing_shares(monkeypatch, fail_at):
    """Make ``_child_shares`` raise at the nodes in ``fail_at``, and
    otherwise send every row of ``a`` to its first leaf, past its capacity."""
    original = WorkloadAwarePlacer._child_shares

    def shares(topology, node, n):
        if node.name in fail_at:
            raise AssignmentError(f"subtree of {node.name} cannot hold {n} instances")
        if node.name == "a":
            return [n] + [0] * (len(node.children) - 1)
        return original(topology, node, n)

    monkeypatch.setattr(WorkloadAwarePlacer, "_child_shares", staticmethod(shares))


@pytest.mark.parametrize(
    "fail_at, raised",
    [
        # ``c`` fails a round before a's overfull leaf does, but the leaf
        # comes first in pre-order, so a depth-first walk meets it first.
        ({"c"}, "leaf a0 receives 12 instances, capacity 2"),
        ({"a", "c"}, "subtree of a cannot hold 12 instances"),
        ({"c", "dc"}, "subtree of dc cannot hold 24 instances"),
    ],
)
def test_the_first_error_in_preorder_is_raised(synthesizer, monkeypatch, fail_at, raised):
    records = synthesizer.fleet([(web_profile(), 14), (hadoop_profile(), 10)])
    failing_shares(monkeypatch, fail_at)
    assert assert_same_walk(records, uneven_tree()) == ("raised", AssignmentError, raised)
