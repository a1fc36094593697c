"""Workload-aware hierarchical service placement (Sec. 3.5).

The placer walks the power tree top-down.  At each internal node it

1. extracts the S-traces of the top power-consumer services among the
   instances to be placed under that node,
2. computes every instance's I-to-S asynchrony-score vector,
3. runs balanced k-means into ``h`` equal-size clusters (``h`` a multiple of
   the child count ``q``),
4. deals each cluster's members round-robin across the children so every
   child receives ``|c_j| / q`` instances of every cluster,

then does the same at each child until instances reach leaf power nodes.
Synchronous instances (same cluster) end up spread evenly; each node's
aggregate peak drops.

The records' training traces are read as one fleet matrix (the
synthesized fleet's own, or one copy per placement for any other records),
and a node works on the index array of its rows in that matrix: every basis,
score and deal order above is read from the matrix by row index, with no
per-node copy of the traces.

The walk is breadth-first.  One round takes every node that received rows
in the round before; the k-means problems of its nodes that share a shape
run as one stack (:func:`~repro.core.clustering.balanced_kmeans` gives each
the bits it would get alone), while bases, scores and deals stay per node.
The mapping and the per-node cluster labels are written in the tree's
pre-order at the end, so every decision, its dict order and the error
raised for a tree that cannot hold its rows are what a depth-first walk
gives.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..infra.assignment import Assignment, AssignmentError
from ..infra.topology import PowerNode, PowerTopology
from ..traces.instance import InstanceRecord
from ..traces.service import ServiceRows
from ..traces.service import extract_basis_traces  # noqa: F401  (wrapped by bench/layers.py)
from ..traces.synthesis import fleet_trace_set
from ..traces.traceset import TraceSet
from .asynchrony import score_matrix
from .clustering import ClusteringResult, balanced_kmeans, stack_size


@dataclass(frozen=True)
class PlacementConfig:
    """Tuning knobs for the workload-aware placer.

    Attributes
    ----------
    top_m_services:
        Size of the S-trace basis |B| (the paper uses the top ~10 power
        consumers; clamped to the number of distinct services present).
    clusters_per_child:
        ``h = q × clusters_per_child`` clusters at a node with ``q``
        children (the paper configures h as a multiple of q).
    seed:
        Root seed; per-node seeds are derived deterministically from it.
    rebuild_basis_per_node:
        Re-extract S-traces from the local instance subset at every
        recursion step (matches Sec. 3.5's description).  When False the
        datacenter-level basis is reused throughout, which is faster.

    Scoring runs in the calling process at
    :func:`~repro.core.asynchrony.score_matrix`'s defaults: float64,
    bit-exact, in bounded chunks.
    """

    top_m_services: int = 10
    clusters_per_child: int = 2
    seed: int = 0
    kmeans_n_init: int = 3
    kmeans_max_iter: int = 50
    rebuild_basis_per_node: bool = True

    def __post_init__(self) -> None:
        if self.top_m_services <= 0:
            raise ValueError("top_m_services must be positive")
        if self.clusters_per_child <= 0:
            raise ValueError("clusters_per_child must be positive")


@dataclass
class PlacementResult:
    """An assignment plus the diagnostics gathered while deriving it."""

    assignment: Assignment
    basis_services: List[str]
    #: node name → cluster label per instance id placed under that node
    cluster_labels: Dict[str, Dict[str, int]] = field(default_factory=dict)


def scoped_placement(
    records: Sequence[InstanceRecord],
    baseline: Assignment,
    scope_level: str,
    config: Optional[PlacementConfig] = None,
) -> Assignment:
    """Re-place each ``scope_level`` subtree independently, keeping every
    instance inside the subtree that currently powers it.

    The paper's Figure 9 works exactly this way (the placement is applied
    to the subtree of one node N, "our placement policy does not move
    service instances into or out of the subtree").  Operationally this is
    the cheap variant: migrations stay within a suite or SB, no cross-room
    moves.  The cost is that cross-subtree imbalance in the original
    placement cannot be fixed — the global placer's reductions upper-bound
    the scoped ones.
    """
    _require_unique_ids(records)
    by_id = {record.instance_id: record for record in records}
    missing = [i for i in baseline.instance_ids() if i not in by_id]
    if missing:
        raise ValueError(f"records missing for placed instances: {missing[:5]}")

    placer = WorkloadAwarePlacer(config)
    mapping: Dict[str, str] = {}
    for node in baseline.topology.nodes_at_level(scope_level):
        member_ids = baseline.instances_under(node.name)
        if member_ids:
            local = placer.place([by_id[i] for i in member_ids], PowerTopology(node))
            mapping.update(local.assignment.as_mapping())
    return Assignment(baseline.topology, mapping)


def _require_unique_ids(records: Sequence[InstanceRecord]) -> None:
    """Raise ``ValueError`` naming the first instance id that repeats."""
    seen = set()
    for record in records:
        if record.instance_id in seen:
            raise ValueError(f"duplicate instance id {record.instance_id!r}")
        seen.add(record.instance_id)


class _FleetRows:
    """The records being placed, as one validated matrix.

    The matrix is the fleet's own training matrix when ``records`` is a
    :class:`~repro.traces.synthesis.Fleet`, and a copy of the records'
    training traces otherwise (:func:`~repro.traces.synthesis.fleet_trace_set`).
    Each row's facts are computed here, once: its service and energy (held
    by :class:`~repro.traces.service.ServiceRows`), its peak, and the rank
    of its instance id among all ids.  A node of the walk is an index
    array of rows.
    """

    def __init__(self, records: Sequence[InstanceRecord]) -> None:
        self.traces = fleet_trace_set(records)
        self.ids = self.traces.ids
        self.services = ServiceRows(
            self.traces.grid,
            self.traces.matrix,
            [record.service for record in records],
        )
        self.peaks = self.traces.peaks()
        self.id_rank = np.empty(len(self.ids), dtype=np.intp)
        self.id_rank[sorted(range(len(self.ids)), key=self.ids.__getitem__)] = (
            np.arange(len(self.ids))
        )

    def deal_order(self, members: np.ndarray) -> np.ndarray:
        """``members`` by descending peak, ties by instance id."""
        return members[np.lexsort((self.id_rank[members], -self.peaks[members]))]


class WorkloadAwarePlacer:
    """SmoothOperator's placement engine (Figure 7, steps 2-4)."""

    def __init__(self, config: Optional[PlacementConfig] = None) -> None:
        self.config = config if config is not None else PlacementConfig()

    # ------------------------------------------------------------------
    def place(
        self, records: Sequence[InstanceRecord], topology: PowerTopology
    ) -> PlacementResult:
        """Derive a workload-aware assignment of ``records`` onto ``topology``."""
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
            leaves, labels, errors = self._walk(topology, fleet, global_basis)
            # Written in the tree's pre-order (``topology.nodes()``), as a
            # depth-first walk would meet the nodes: the error raised is the
            # one it would raise, and both dicts iterate as it would fill them.
            mapping: Dict[str, str] = {}
            diagnostics: Dict[str, Dict[str, int]] = {}
            for node in topology.nodes():
                if node.name in errors:
                    raise errors[node.name]
                if node.name in labels:
                    rows, node_labels = labels[node.name]
                    diagnostics[node.name] = {
                        fleet.ids[row]: label
                        for row, label in zip(rows.tolist(), node_labels.tolist())
                    }
                if node.name in leaves:
                    for row in leaves[node.name].tolist():
                        mapping[fleet.ids[row]] = node.name
            assignment = Assignment(topology, mapping)
            obs.count("place.instances_placed", len(mapping))
            return PlacementResult(
                assignment=assignment,
                basis_services=list(global_basis.ids),
                cluster_labels=diagnostics,
            )

    # ------------------------------------------------------------------
    def _walk(
        self, topology: PowerTopology, fleet: _FleetRows, basis: TraceSet
    ) -> Tuple[
        Dict[str, np.ndarray],
        Dict[str, Tuple[np.ndarray, np.ndarray]],
        Dict[str, AssignmentError],
    ]:
        """Place the fleet's rows down the tree breadth-first.

        Each round clusters the nodes that received rows in the round
        before (see :meth:`_cluster_round`) and deals their rows to their
        children.  A single-child node hands its rows and basis down as-is,
        and a node with no rows places nothing.  ``basis`` is what the
        root's rows are scored against; with ``rebuild_basis_per_node``
        every clustered node below it extracts its own from its rows.

        Returns, by node name: each leaf's rows, each clustered node's rows
        and their cluster labels, and each node whose rows could not be
        placed, with the error (its subtree is not walked).
        """
        leaves: Dict[str, np.ndarray] = {}
        labels: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        errors: Dict[str, AssignmentError] = {}
        frontier = [(topology.root, np.arange(len(fleet.ids)), basis)]
        while frontier:
            clustered = []
            for node, rows, node_basis in frontier:
                while len(node.children) == 1:
                    node = node.children[0]
                if len(rows) == 0:
                    continue
                if not node.is_leaf:
                    clustered.append((node, rows, node_basis))
                elif node.capacity is not None and len(rows) > node.capacity:
                    errors[node.name] = AssignmentError(
                        f"leaf {node.name} receives {len(rows)} instances, "
                        f"capacity {node.capacity}"
                    )
                else:
                    leaves[node.name] = rows
            frontier = []
            results = self._cluster_round(fleet, clustered)
            for (node, rows, node_basis), result in zip(clustered, results):
                labels[node.name] = (rows, result.labels)
                # Deterministic intra-cluster order: deal the power-hungriest
                # instances first so the heaviest members spread widest.
                clusters = [
                    fleet.deal_order(rows[result.labels == label])
                    for label in range(result.k)
                ]
                try:
                    shares = self._child_shares(topology, node, len(rows))
                    buckets = self._deal_round_robin(node, fleet, clusters, shares)
                except AssignmentError as error:
                    errors[node.name] = error
                    continue
                child_basis = None if self.config.rebuild_basis_per_node else node_basis
                frontier.extend(
                    (child, bucket, child_basis)
                    for child, bucket in zip(node.children, buckets)
                )
        return leaves, labels, errors

    def _cluster_round(
        self,
        fleet: _FleetRows,
        nodes: List[Tuple[PowerNode, np.ndarray, Optional[TraceSet]]],
    ) -> List[ClusteringResult]:
        """Cluster each node's rows in asynchrony-score space.

        Each node is scored against its basis (extracted from its rows when
        ``None``) into ``h = q × clusters_per_child`` clusters (at most its
        row count).  Nodes whose problems share a shape (rows, basis size,
        ``h``) go to :func:`balanced_kmeans` as one stack, each with its own
        seed, which gives every node the clustering it would get alone.  A
        stack is clustered as soon as it holds :func:`stack_size` problems,
        so a round keeps the scores of at most one stack per shape.
        """
        scores: Dict[int, np.ndarray] = {}
        pending: Dict[Tuple[int, int, int], List[int]] = {}
        results: Dict[int, ClusteringResult] = {}

        def cluster(shape: Tuple[int, int, int], members: List[int]) -> None:
            stacked = balanced_kmeans(
                np.stack([scores.pop(index) for index in members]),
                shape[2],
                seed=[self._node_seed(nodes[index][0]) for index in members],
                n_init=self.config.kmeans_n_init,
                max_iter=self.config.kmeans_max_iter,
            )
            results.update(zip(members, stacked))

        for index, (node, rows, basis) in enumerate(nodes):
            obs.count("place.nodes_clustered")
            if basis is None:
                basis = fleet.services.basis(self.config.top_m_services, rows)
            scores[index] = score_matrix(fleet.traces, basis, rows=rows)
            h = max(min(len(rows), len(node.children) * self.config.clusters_per_child), 1)
            shape = (len(rows), len(basis), h)
            pending.setdefault(shape, []).append(index)
            if len(pending[shape]) == stack_size(*shape):
                cluster(shape, pending.pop(shape))
        for shape, members in pending.items():
            cluster(shape, members)
        return [results[index] for index in range(len(nodes))]

    def _node_seed(self, node: PowerNode) -> int:
        return (self.config.seed * 2654435761 + zlib.crc32(node.name.encode())) % (2**32)

    # ------------------------------------------------------------------
    @staticmethod
    def _child_shares(topology: PowerTopology, node: PowerNode, n: int) -> List[int]:
        """How many of the node's ``n`` instances each child should receive.

        Even split, adjusted down where a child's subtree capacity binds and
        the overflow pushed to children with room.
        """
        q = len(node.children)
        capacities = [
            topology.total_leaf_capacity(child.name) for child in node.children
        ]
        shares = [n // q + (1 if i < n % q else 0) for i in range(q)]
        # Waterfill overflow from capacity-bound children.
        for _ in range(q):
            overflow = 0
            for i, capacity in enumerate(capacities):
                if capacity is not None and shares[i] > capacity:
                    overflow += shares[i] - capacity
                    shares[i] = capacity
            if overflow == 0:
                break
            for i, capacity in enumerate(capacities):
                if overflow == 0:
                    break
                room = float("inf") if capacity is None else capacity - shares[i]
                take = int(min(room, overflow))
                shares[i] += take
                overflow -= take
            if overflow > 0:
                raise AssignmentError(
                    f"subtree of {node.name} cannot hold {n} instances"
                )
        return shares

    @staticmethod
    def _deal_round_robin(
        node: PowerNode,
        fleet: _FleetRows,
        clusters: List[np.ndarray],
        shares: List[int],
    ) -> List[np.ndarray]:
        """Deal each cluster's rows across children like cards.

        Iterating cluster-by-cluster and child-by-child gives every child
        ``≈ |c_j| / q`` members of each cluster j — the paper's round-robin
        heuristic.  Children that reached their share are skipped.
        """
        q = len(node.children)
        buckets: List[List[int]] = [[] for _ in range(q)]
        child_cursor = 0
        for cluster in clusters:
            for row in cluster.tolist():
                placed = False
                for _ in range(q):
                    index = child_cursor % q
                    child_cursor += 1
                    if len(buckets[index]) < shares[index]:
                        buckets[index].append(row)
                        placed = True
                        break
                if not placed:
                    raise AssignmentError(
                        f"no child of {node.name} can take instance "
                        f"{fleet.ids[row]}"
                    )
        return [np.array(bucket, dtype=np.intp) for bucket in buckets]
