"""Power aggregation over the tree: per-node traces, peaks, fragmentation.

Given a topology, a placement, and the fleet's traces, a
:class:`NodePowerView` computes the aggregate power trace at every node
bottom-up (each node's trace is the sum of its children's).  All of the
paper's fragmentation metrics — per-level sums of peaks (Sec. 2.2 metric 1),
power/energy slack (metric 2) — read off this view.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .. import obs
from ..traces.series import PowerTrace
from ..traces.traceset import TraceSet, add_rows
from .assignment import Assignment
from .topology import PowerNode, PowerTopology


class NodePowerView:
    """Aggregate power at every node of a tree under one placement.

    Beyond the one-shot bottom-up build, the view is an incremental index:
    registered on a :class:`~repro.engine.delta.PlacementState`, its
    :meth:`apply_delta` takes each delta the state has checked, with the
    dirty nodes the state found, and recomputes only those nodes — each
    with the *identical* expression the full build uses, so the
    incrementally maintained aggregates (and the cached per-node peaks)
    stay bit-identical to a from-scratch rebuild.

    Members are held as row indices into ``traces.matrix``.  Every node's
    aggregate is a row of one ``(nodes, T)`` array in the matrix's dtype,
    in breadth-first order, so each internal node's children are adjacent
    rows: that ``(children, T)`` slice is the node's block, and the node
    re-sums it into its own row in place.  So a delta maps no member ids
    to rows and allocates no array per recomputed node.  The arrays
    behind :meth:`node_trace` are overwritten by the next delta; hold a
    copy, never the array.
    """

    def __init__(
        self,
        topology: PowerTopology,
        assignment: Assignment,
        traces: TraceSet,
    ) -> None:
        if assignment.topology is not topology:
            # Allow equal-but-distinct topologies only if node names agree.
            theirs = {n.name for n in assignment.topology.nodes()}
            ours = {n.name for n in topology.nodes()}
            if theirs != ours:
                raise ValueError("assignment refers to a different topology")
        missing = [i for i in assignment.instance_ids() if i not in traces]
        if missing:
            raise ValueError(f"assignment places instances without traces: {missing[:5]}")
        self.topology = topology
        self.traces = traces
        # Live membership, as rows of ``traces.matrix`` in arrival order;
        # :meth:`materialized_assignment` reads the current placement.
        self._leaf_rows: Dict[str, List[int]] = {
            leaf.name: [
                traces.index_of(i) for i in assignment.instances_on_leaf(leaf.name)
            ]
            for leaf in topology.leaves()
        }
        #: node name → its aggregate, a row of one ``(nodes, T)`` array.
        self._node_values: Dict[str, np.ndarray] = {}
        #: internal node name → its children's rows of that array.
        self._blocks: Dict[str, np.ndarray] = {}
        self._depth: Dict[str, int] = {}
        self._peaks: Dict[str, float] = {}
        self._layout()
        self._aggregate(topology.root)

    def _layout(self) -> None:
        """Give every node a row of one array, in breadth-first order.

        Breadth-first order puts each node's children in adjacent rows,
        so those rows are the node's block; the root's row is in no
        block.
        """
        root = self.topology.root
        order = [root]
        depth = self._depth
        depth[root.name] = 0
        first_child: Dict[str, int] = {}
        for node in order:  # grows while it is walked
            first_child[node.name] = len(order)
            order.extend(node.children)
            for child in node.children:
                depth[child.name] = depth[node.name] + 1
        values = np.empty(
            (len(order), self.traces.grid.n_samples), dtype=self.traces.matrix.dtype
        )
        for row, node in enumerate(order):
            self._node_values[node.name] = values[row]
            if not node.is_leaf:
                start = first_child[node.name]
                self._blocks[node.name] = values[start : start + len(node.children)]

    def _aggregate(self, node: PowerNode) -> None:
        for child in node.children:
            self._aggregate(child)
        self._compute_node(node.name)

    def _compute_node(self, name: str) -> None:
        """Re-sum one node's aggregate in place, from its rows or its block.

        The single source of truth for both the full build and the
        incremental path — sharing the expression is what makes the two
        bit-identical.
        """
        rows = self._leaf_rows.get(name)
        source = self.traces.matrix[rows] if rows is not None else self._blocks[name]
        add_rows(source, out=self._node_values[name])

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def apply_delta(self, delta, dirty) -> None:
        """Apply a delta that :class:`~repro.engine.delta.PlacementState`
        has checked, with the ``dirty`` nodes it found.

        Moves each moved row between its leaves' row lists, then re-sums
        exactly the dirty nodes — touched leaves from member rows, their
        ancestors from child aggregates, deepest first — and invalidates
        the cached peaks of those nodes.
        """
        index_of = self.traces.index_of
        for move in delta.moves:
            row = index_of(move.instance_id)
            if move.src_leaf is not None:
                self._leaf_rows[move.src_leaf].remove(row)
            if move.dst_leaf is not None:
                self._leaf_rows[move.dst_leaf].append(row)
        # Children before parents: recompute deepest nodes first.
        for name in sorted(dirty, key=self._depth.__getitem__, reverse=True):
            self._compute_node(name)
            self._peaks.pop(name, None)
        obs.count("delta.view_nodes_recomputed", len(dirty))

    def member_ids(self, leaf_name: str) -> List[str]:
        """Current members of a leaf, in arrival order (a copy)."""
        if leaf_name not in self._leaf_rows:
            raise KeyError(f"{leaf_name!r} is not a leaf")
        ids = self.traces.ids
        return [ids[row] for row in self._leaf_rows[leaf_name]]

    def rows_under(self, node_name: str) -> List[int]:
        """Rows of ``traces.matrix`` under ``node_name`` (a copy).

        Leaves in topology order, members in arrival order — the order of
        :meth:`members_under`.
        """
        rows: List[int] = []
        for leaf in self.topology.leaves_under(node_name):
            rows.extend(self._leaf_rows[leaf.name])
        return rows

    def members_under(self, node_name: str) -> List[str]:
        """Current members of the subtree rooted at ``node_name`` (a copy).

        Leaves in topology order, members in arrival order — the order
        :meth:`Assignment.instances_under` gives on the materialized
        assignment.
        """
        ids = self.traces.ids
        return [ids[row] for row in self.rows_under(node_name)]

    def materialized_assignment(self) -> Assignment:
        """The current (post-delta) placement as an immutable Assignment.

        Leaves in topology order, members in arrival order — rebuilding a
        view from the result reproduces this view's state bit-for-bit.
        """
        ids = self.traces.ids
        mapping = {
            ids[row]: leaf_name
            for leaf_name, rows in self._leaf_rows.items()
            for row in rows
        }
        return Assignment(self.topology, mapping)

    # ------------------------------------------------------------------
    def node_trace(self, node_name: str) -> PowerTrace:
        self.topology.node(node_name)  # validate
        return PowerTrace(self.traces.grid, self._node_values[node_name].copy())

    def node_peak(self, node_name: str) -> float:
        self.topology.node(node_name)
        try:
            return self._peaks[node_name]
        except KeyError:
            peak = float(self._node_values[node_name].max())
            self._peaks[node_name] = peak
            return peak

    def node_mean(self, node_name: str) -> float:
        self.topology.node(node_name)
        return float(self._node_values[node_name].mean())

    # ------------------------------------------------------------------
    # fragmentation metrics (Sec. 2.2)
    # ------------------------------------------------------------------
    def peaks_at_level(self, level: str) -> Dict[str, float]:
        return {
            node.name: self.node_peak(node.name)
            for node in self.topology.nodes_at_level(level)
        }

    def sum_of_peaks(self, level: str) -> float:
        """Σ over level nodes of each node's aggregate peak — metric 1."""
        return float(sum(self.peaks_at_level(level).values()))

    def sum_of_peaks_by_level(self) -> Dict[str, float]:
        return {level: self.sum_of_peaks(level) for level in self.topology.levels()}

    def node_percentile(self, node_name: str, q: float) -> float:
        """The ``q``-th percentile of the node's aggregate trace."""
        self.topology.node(node_name)
        return float(np.percentile(self._node_values[node_name], q))

    # ------------------------------------------------------------------
    # slack metrics (Sec. 2.2 Eq. 1-2; requires budgets on nodes)
    # ------------------------------------------------------------------
    def power_slack(self, node_name: str) -> np.ndarray:
        node = self.topology.node(node_name)
        if node.budget_watts is None:
            raise ValueError(f"node {node_name} has no budget assigned")
        return self.node_trace(node_name).power_slack(node.budget_watts)

    def energy_slack(self, node_name: str) -> float:
        node = self.topology.node(node_name)
        if node.budget_watts is None:
            raise ValueError(f"node {node_name} has no budget assigned")
        return self.node_trace(node_name).energy_slack(node.budget_watts)

    def utilization(self, node_name: str) -> float:
        """Mean power / budget at a node — fraction of budget doing work."""
        node = self.topology.node(node_name)
        if node.budget_watts is None:
            raise ValueError(f"node {node_name} has no budget assigned")
        if node.budget_watts == 0:
            return 0.0
        return self.node_mean(node_name) / node.budget_watts


def peak_reduction_by_level(
    before: NodePowerView, after: NodePowerView
) -> Dict[str, float]:
    """Fractional sum-of-peaks reduction per level (Figure 10's y-axis).

    Positive values mean ``after`` fragments less than ``before``.
    """
    reductions: Dict[str, float] = {}
    for level in before.topology.levels():
        peak_before = before.sum_of_peaks(level)
        peak_after = after.sum_of_peaks(level)
        if peak_before == 0:
            reductions[level] = 0.0
        else:
            reductions[level] = (peak_before - peak_after) / peak_before
    return reductions
