"""Fragmentation metrics over placements (Sec. 2.2).

Couples the infrastructure's power view with the asynchrony machinery to
report, per level of the tree: sums of peaks, per-node asynchrony scores,
and slack statistics.  These are the quantities SmoothOperator monitors to
decide when a placement has gone stale (Sec. 3.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .. import obs
from ..infra.aggregation import NodePowerView
from ..infra.assignment import Assignment
from ..traces.traceset import TraceSet, add_rows


@dataclass(frozen=True)
class LevelFragmentation:
    """Fragmentation summary for one level of the power tree."""

    level: str
    sum_of_peaks: float
    node_peaks: Dict[str, float]
    node_asynchrony: Dict[str, float]

    @property
    def mean_asynchrony(self) -> float:
        if not self.node_asynchrony:
            return 0.0
        return float(np.mean(list(self.node_asynchrony.values())))

    @property
    def min_asynchrony(self) -> float:
        if not self.node_asynchrony:
            return 0.0
        return float(min(self.node_asynchrony.values()))

    def worst_node(self) -> Optional[str]:
        """The most fragmented node: lowest asynchrony score (Sec. 3.6)."""
        if not self.node_asynchrony:
            return None
        return min(self.node_asynchrony.items(), key=lambda item: item[1])[0]


def node_asynchrony_scores(
    assignment: Assignment,
    traces: TraceSet,
    level: str,
    *,
    view: Optional[NodePowerView] = None,
) -> Dict[str, float]:
    """Asynchrony score of every node at ``level`` under ``assignment``.

    Score of a node = Σ member peaks / peak of the node's aggregate trace.
    Nodes with no members are skipped.  Passing a :class:`NodePowerView`
    built from the same assignment and traces reuses its cached per-node
    aggregates instead of re-summing every member row per node — callers
    that already hold a view (e.g. :func:`fragmentation_report`) aggregate
    each node exactly once.
    """
    member_peaks = traces.peaks()
    scores: Dict[str, float] = {}
    for node in assignment.topology.nodes_at_level(level):
        members = assignment.instances_under(node.name)
        if not members:
            continue
        indices = [traces.index_of(instance_id) for instance_id in members]
        sum_peaks = float(member_peaks[indices].sum())
        if view is not None:
            aggregate_peak = view.node_peak(node.name)
            obs.count("metrics.node_aggregate_reused")
        else:
            aggregate_peak = float(add_rows(traces.matrix[indices]).max())
            obs.count("metrics.node_aggregate_recomputed")
        scores[node.name] = sum_peaks / aggregate_peak if aggregate_peak > 0 else 1.0
    return scores


class AsynchronyIndex:
    """Per-node asynchrony scores at one level, maintained under deltas.

    Reads a :class:`~repro.infra.aggregation.NodePowerView` and keeps the
    level's scores current as :class:`~repro.engine.delta.FleetDelta`\\ s
    arrive: only the dirtied nodes are re-scored, with the identical
    expression :func:`node_asynchrony_scores` uses in its view-backed
    path, so :meth:`scores` is bit-identical to a full recompute over a
    freshly rebuilt view.  Register it on a
    :class:`~repro.engine.delta.PlacementState` after its view, which
    re-sums the dirty nodes first.
    """

    def __init__(self, view: NodePowerView, level: str) -> None:
        self.view = view
        self.level = level
        nodes = view.topology.nodes_at_level(level)
        if not nodes:
            raise ValueError(f"topology has no nodes at level {level!r}")
        self._member_peaks = view.traces.peaks()
        self._scores: Dict[str, Optional[float]] = {
            node.name: self._score_node(node.name) for node in nodes
        }

    # ------------------------------------------------------------------
    def _score_node(self, node_name: str) -> Optional[float]:
        """Score one node — ``None`` when it is empty (skipped, like the full pass)."""
        rows = self.view.rows_under(node_name)
        if not rows:
            return None
        sum_peaks = float(self._member_peaks[rows].sum())
        aggregate_peak = self.view.node_peak(node_name)
        obs.count("metrics.node_aggregate_reused")
        return sum_peaks / aggregate_peak if aggregate_peak > 0 else 1.0

    # ------------------------------------------------------------------
    def apply_delta(self, delta, dirty) -> None:
        """Patch the refreshed rows' peaks and re-score the dirty level nodes."""
        traces = self.view.traces
        for instance_id in delta.trace_updates:
            # Patch the cached per-member peaks for rewritten rows; max is
            # exact, so the patched entry equals a fresh traces.peaks().
            row = traces.index_of(instance_id)
            self._member_peaks[row] = traces.matrix[row].max()
        refreshed = 0
        for name in dirty:
            if name in self._scores:
                self._scores[name] = self._score_node(name)
                refreshed += 1
        obs.count("delta.scores_recomputed", refreshed)

    def scores(self) -> Dict[str, float]:
        """Current per-node scores, in level-node order, empty nodes skipped."""
        return {
            name: score
            for name, score in self._scores.items()
            if score is not None
        }


def fragmentation_report(
    assignment: Assignment, traces: TraceSet
) -> Dict[str, LevelFragmentation]:
    """Per-level fragmentation summary of a placement."""
    with obs.span("fragmentation_report"):
        view = NodePowerView(assignment.topology, assignment, traces)
        report: Dict[str, LevelFragmentation] = {}
        for level in assignment.topology.levels():
            peaks = view.peaks_at_level(level)
            report[level] = LevelFragmentation(
                level=level,
                sum_of_peaks=float(sum(peaks.values())),
                node_peaks=peaks,
                node_asynchrony=node_asynchrony_scores(
                    assignment, traces, level, view=view
                ),
            )
        return report


def required_budget(view: NodePowerView, level: str, *, under_provision: float = 0.0) -> float:
    """Total budget needed at ``level`` to supply the placement (Figure 11).

    With ``under_provision = u``, each node is provisioned at the
    ``(100-u)``-th percentile of its aggregate trace instead of its peak.
    """
    if not 0 <= under_provision < 100:
        raise ValueError("under_provision must be in [0, 100)")
    q = 100.0 - under_provision
    total = 0.0
    for node in view.topology.nodes_at_level(level):
        total += view.node_percentile(node.name, q)
    return total
