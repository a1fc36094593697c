"""Incremental placement adaptation via differential-score swaps (Sec. 3.6).

Mid/long-term workload drift slowly degrades a placement.  Rather than
re-running the full placer, SmoothOperator identifies the most fragmented
power node (lowest asynchrony score), finds its worst-fitting instance (the
lowest *differential asynchrony score*, Sec. 3.6), and swaps it with an
instance from another node — accepting the swap only if the differential
scores improve at *both* nodes involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..obs import events as obs_events
from ..infra.assignment import Assignment, AssignmentError
from ..infra.topology import PowerTopology
from ..traces.traceset import TraceSet, sum_rows
from .asynchrony import differential_rows

#: One shard of a remap: each level node's ``(name, member ids, rows of the
#: trace matrix)``, members in membership order.
_Shard = List[Tuple[str, List[str], List[int]]]


@dataclass(frozen=True)
class RemapConfig:
    """Tuning for the adaptation loop.

    Attributes
    ----------
    level:
        Tree level at which node fragmentation is evaluated (typically the
        RPP level — the leaves' parents — where fragmentation bites).
    max_swaps:
        Upper bound on accepted swaps per run.
    candidate_nodes:
        How many peer nodes (highest asynchrony first) to consider as swap
        partners for the worst node.
    candidate_instances:
        How many instances per partner node to evaluate.
    min_improvement:
        A swap must raise each node's differential score by at least this
        much to be accepted (hysteresis against churn).
    shard_level:
        When set (e.g. ``Level.SUITE`` or ``Level.MSB``), the swap loop
        runs independently inside each ``shard_level`` subtree: swaps never
        cross a shard boundary, ``max_swaps`` applies per shard, and shards
        are embarrassingly parallel (pass ``workers`` to
        :meth:`RemappingEngine.run`).  Mirrors the operational reality that
        migrations within a suite are cheap while cross-suite moves are
        not.  ``None`` (default) makes the whole tree the one shard.
    """

    level: str
    max_swaps: int = 50
    candidate_nodes: int = 4
    candidate_instances: int = 16
    min_improvement: float = 1e-3
    shard_level: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_swaps < 0:
            raise ValueError("max_swaps cannot be negative")
        if self.candidate_nodes <= 0 or self.candidate_instances <= 0:
            raise ValueError("candidate counts must be positive")
        if self.min_improvement < 0:
            raise ValueError("min_improvement cannot be negative")
        if self.shard_level == self.level:
            raise ValueError("shard_level must differ from the swap level")


@dataclass(frozen=True)
class Swap:
    """One accepted instance exchange."""

    instance_a: str
    node_a: str
    instance_b: str
    node_b: str
    gain_a: float
    gain_b: float


@dataclass
class RemapResult:
    """Outcome of an adaptation run."""

    assignment: Assignment
    swaps: List[Swap] = field(default_factory=list)

    @property
    def n_swaps(self) -> int:
        return len(self.swaps)


class _NodeGroup:
    """One level node's members as rows of the trace matrix, with score caches.

    A group keeps its members' ids and their row indices into ``matrix`` in
    membership order, its aggregate ``total`` (:func:`~repro.traces.sum_rows`
    of the member rows, the ``total += row`` loop's bits) and each member's
    row peak.  Ids are only carried, never looked up: the rows arrive
    resolved.  Scoring gathers the members into one ``(m, T)`` block when
    it needs them and keeps no copy: with the rows held per group, a
    fleet's global remap would hold a second copy of the fleet.  Swaps are
    applied *exactly*: :meth:`swap_member` rebuilds ``total`` from the new
    member rows, so there is no incremental-patch drift, and the caches of
    the two groups a swap touches are dropped.  The swap loop's
    per-iteration cost depends on the two affected groups, not the fleet.
    """

    __slots__ = (
        "name",
        "members",
        "rows",
        "matrix",
        "total",
        "peaks",
        "_asynchrony",
        "_self_diffs",
        "_ranked",
    )

    def __init__(
        self, name: str, members: List[str], rows: List[int], matrix: np.ndarray
    ) -> None:
        self.name = name
        self.members = list(members)
        self.rows = list(rows)
        self.matrix = matrix
        self.recompute()

    def recompute(self) -> None:
        """Rebuild ``total`` and the row peaks from member rows; drop caches."""
        block = self.matrix[self.rows]
        self.total = sum_rows(block)
        self.peaks = block.max(axis=1)
        self._asynchrony: Optional[float] = None
        self._self_diffs: Optional[np.ndarray] = None
        self._ranked: Optional[List[int]] = None

    def asynchrony(self) -> float:
        if self._asynchrony is None:
            if not self.members:
                self._asynchrony = 1.0
            else:
                # The builtin sum over Python floats in member order: on
                # Python >= 3.12 it is compensated, so a numpy reduction
                # would not keep that version's bits.
                sum_peaks = sum(self.peaks.tolist())
                aggregate_peak = float(self.total.max())
                self._asynchrony = (
                    sum_peaks / aggregate_peak if aggregate_peak > 0 else 1.0
                )
        return self._asynchrony

    def self_differentials(self) -> np.ndarray:
        """AD of every member against the rest of its own group, in member
        order; one block evaluation, cached until the group changes."""
        if self._self_diffs is None:
            block = self.matrix[self.rows]
            self._self_diffs = differential_rows(
                block, self.peaks, self.total, block, len(self.members) - 1
            )
        return self._self_diffs

    def ranked(self) -> List[int]:
        """Member positions by self-differential, lowest first, ties by id.

        The members most synchronous with their own node contribute most to
        its peak, so moving them out is likeliest to help both sides.
        """
        if self._ranked is None:
            scores = self.self_differentials().tolist()
            self._ranked = sorted(
                range(len(self.members)),
                key=lambda k: (scores[k], self.members[k]),
            )
        return self._ranked

    def swap_member(self, position: int, incoming: str, row: int) -> None:
        """Replace the member at ``position`` with ``incoming`` (matrix row
        ``row``), appended last; the aggregate is rebuilt from the rows."""
        del self.members[position]
        del self.rows[position]
        self.members.append(incoming)
        self.rows.append(row)
        self.recompute()


class RemappingEngine:
    """Runs the Sec. 3.6 differential-score swap loop."""

    def __init__(self, config: RemapConfig) -> None:
        self.config = config

    def run(
        self, assignment: Assignment, traces: TraceSet, *, workers: int = 1
    ) -> RemapResult:
        """Iteratively swap instances out of the most fragmented node.

        The loop runs once per shard: each :attr:`RemapConfig.shard_level`
        subtree, or the whole tree when that is ``None``.  With more than
        one shard, ``workers > 1`` fans the shards out across the
        persistent pool, each reading a shared-memory copy of
        ``traces.matrix`` (shards are independent, so the result is
        identical for any worker count); a single shard always runs here.
        """
        with obs.span(
            "remap",
            level=self.config.level,
            max_swaps=self.config.max_swaps,
            workers=workers,
        ):
            shards = self._shards(assignment, traces)
            if workers <= 1 or len(shards) <= 1:
                swaps = [
                    swap
                    for shard in shards
                    for swap in self._remap_shard(shard, traces.matrix)
                ]
            else:
                swaps = self._run_shards_pooled(shards, traces.matrix, workers)
            return RemapResult(assignment=_apply_swaps(assignment, swaps), swaps=swaps)

    # ------------------------------------------------------------------
    def _shards(self, assignment: Assignment, traces: TraceSet) -> List[_Shard]:
        """Each shard's level nodes with their members resolved to rows of
        ``traces.matrix``, in shard order.

        Without a shard level the whole tree is the one shard, read from
        the assignment's own topology.
        """
        topology = assignment.topology
        if self.config.shard_level is None:
            subtrees = [topology]
        else:
            subtrees = [
                PowerTopology(shard)
                for shard in topology.nodes_at_level(self.config.shard_level)
            ]
        shards = []
        for subtree in subtrees:
            shard = []
            for node in subtree.nodes_at_level(self.config.level):
                members = assignment.instances_under(node.name)
                if members:
                    rows = [traces.index_of(instance_id) for instance_id in members]
                    shard.append((node.name, members, rows))
            if shard:
                shards.append(shard)
        return shards

    def _run_shards_pooled(
        self, shards: List[_Shard], matrix: np.ndarray, workers: int
    ) -> List[Swap]:
        """Fan shard swap loops out over a shared-memory copy of ``matrix``."""
        # Lazy imports: repro.engine imports repro.core via the chaos
        # harness, so the reverse edge must not exist at module scope.
        from ..engine.parallel import get_pool
        from ..engine.sharedmem import SharedMatrix

        pool = get_pool(workers)
        with SharedMatrix.create(matrix) as shared:
            tasks = [(shared.handle, shard, self.config) for shard in shards]
            obs.count("remap.shards", len(tasks))
            shard_swaps = pool.map_shards(
                _remap_shard_task, tasks, label="remap.shard"
            )
        return [swap for swaps in shard_swaps for swap in swaps]

    # ------------------------------------------------------------------
    def _remap_shard(self, shard: _Shard, matrix: np.ndarray) -> List[Swap]:
        """The Sec. 3.6 loop over one shard's groups; its accepted swaps."""
        groups = {
            name: _NodeGroup(name, members, rows, matrix)
            for name, members, rows in shard
        }
        if len(groups) < 2:
            return []
        swaps: List[Swap] = []
        for _ in range(self.config.max_swaps):
            obs.count("remap.swaps_attempted")
            found = self._best_swap(groups, matrix)
            if found is None:
                # No candidate cleared the hysteresis threshold: the loop
                # converged.  Recorded so operators can see *why* it stopped.
                obs_events.emit(
                    obs_events.SWAP_REJECT,
                    source="remapping",
                    level=self.config.level,
                    swaps_accepted=len(swaps),
                    min_improvement=self.config.min_improvement,
                )
                break
            swap, position_a, position_b = found
            group_a, group_b = groups[swap.node_a], groups[swap.node_b]
            row_a = group_a.rows[position_a]
            group_a.swap_member(position_a, swap.instance_b, group_b.rows[position_b])
            group_b.swap_member(position_b, swap.instance_a, row_a)
            swaps.append(swap)
            obs.count("remap.swaps_accepted")
            obs_events.emit(
                obs_events.SWAP_ACCEPT,
                source="remapping",
                instance_a=swap.instance_a,
                node_a=swap.node_a,
                instance_b=swap.instance_b,
                node_b=swap.node_b,
                gain_a=swap.gain_a,
                gain_b=swap.gain_b,
            )
        return swaps

    # ------------------------------------------------------------------
    def _best_swap(
        self, groups: Dict[str, _NodeGroup], matrix: np.ndarray
    ) -> Optional[Tuple[Swap, int, int]]:
        """The first swap that clears the threshold, with the positions of
        its outgoing member in ``node_a`` and incoming member in ``node_b``."""
        # Cached per-group scores: only the two groups the previous swap
        # touched were invalidated, so ranking the fleet costs O(groups),
        # not O(instances).
        ranked = sorted(groups.values(), key=lambda g: g.asynchrony())
        worst = ranked[0]
        if len(worst.members) < 2:
            return None

        # Worst-fitting member of the worst node (the first, on a tie).
        diffs = worst.self_differentials()
        position = int(np.argmin(diffs))
        outgoing_values = matrix[worst.rows[position]]
        outgoing_score_here = diffs[position]
        threshold = self.config.min_improvement

        partners = [g for g in reversed(ranked) if g.name != worst.name]
        for partner in partners[: self.config.candidate_nodes]:
            if len(partner.members) < 2:
                continue
            candidates = partner.ranked()[: self.config.candidate_instances]
            incoming_values = matrix[[partner.rows[k] for k in candidates]]
            # Scores after each hypothetical exchange, one row per candidate.
            incoming_at_worst = differential_rows(
                incoming_values,
                partner.peaks[candidates],
                worst.total,
                outgoing_values[None, :],
                len(worst.members) - 1,
            )
            outgoing_at_partner = differential_rows(
                outgoing_values[None, :],
                worst.peaks[position],
                partner.total,
                incoming_values,
                len(partner.members) - 1,
            )
            gain_worst = incoming_at_worst - outgoing_score_here
            gain_partner = outgoing_at_partner - partner.self_differentials()[candidates]
            passing = np.flatnonzero(
                (gain_worst > threshold) & (gain_partner > threshold)
            )
            # Candidates count up to the first that clears the threshold,
            # as if they were evaluated one at a time in rank order.
            evaluated = int(passing[0]) + 1 if len(passing) else len(candidates)
            obs.count("remap.candidates_evaluated", evaluated)
            if len(passing):
                first = int(passing[0])
                incoming = candidates[first]
                swap = Swap(
                    instance_a=worst.members[position],
                    node_a=worst.name,
                    instance_b=partner.members[incoming],
                    node_b=partner.name,
                    gain_a=float(gain_worst[first]),
                    gain_b=float(gain_partner[first]),
                )
                return swap, position, incoming
        return None


# ----------------------------------------------------------------------
# shard execution helpers
# ----------------------------------------------------------------------
def _apply_swaps(assignment: Assignment, swaps: List[Swap]) -> Assignment:
    """Exchange each swap's two leaves in acceptance order; one Assignment.

    The swaps go into one copy of the mapping.  Reassigning a key keeps its
    place in the dict, so every leaf lists its members in the order a
    swap-by-swap replay through :meth:`Assignment.with_swap` produces.
    Shards touch disjoint instances, so the result does not depend on the
    order the shards finished in.
    """
    if not swaps:
        return assignment
    mapping = assignment.as_mapping()
    for swap in swaps:
        leaf_a = mapping[swap.instance_a]
        leaf_b = mapping[swap.instance_b]
        if leaf_a == leaf_b:
            raise AssignmentError(
                f"{swap.instance_a} and {swap.instance_b} share leaf {leaf_a}; "
                "swap is a no-op"
            )
        mapping[swap.instance_a] = leaf_b
        mapping[swap.instance_b] = leaf_a
    return Assignment(assignment.topology, mapping)


def _remap_shard_task(
    handle: object, shard: _Shard, config: RemapConfig
) -> List[Swap]:
    """One shard of a sharded remap, run in a pool worker.

    ``shard`` carries names, ids and row indices only; the loop reads the
    trace matrix in place through the shared-memory ``handle``.
    """
    from ..engine.sharedmem import attached_view

    return RemappingEngine(config)._remap_shard(shard, attached_view(handle))
