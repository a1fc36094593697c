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
from typing import Dict, List, Optional

import numpy as np

from .. import obs
from ..obs import events as obs_events
from ..infra.assignment import Assignment, AssignmentError
from ..infra.topology import PowerTopology
from ..traces.traceset import TraceSet, sum_rows
from .asynchrony import differential_rows

#: Conventional period for the opt-in verification knob
#: (``RemapConfig.verify_every``).  Historically this forced a periodic
#: exact recomputation to correct the float drift of incremental ``+=``
#: aggregate patches; ``_NodeGroup.swap_member`` now applies each swap
#: exactly (a group-scoped recompute from member rows), so the period
#: only controls how often the optional cross-check harness runs.
RECOMPUTE_EVERY = 64


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
    verify_every:
        Opt-in verification knob.  Every this many accepted swaps touching
        a group, cross-check the group's exactly-maintained aggregate and
        score caches against an independent from-scratch recomputation and
        raise if they diverge.  Swap application is exact, so this is a
        debugging/auditing harness, not a correctness requirement;
        :data:`RECOMPUTE_EVERY` is the conventional period.  ``None``
        (default) disables the checks.
    """

    level: str
    max_swaps: int = 50
    candidate_nodes: int = 4
    candidate_instances: int = 16
    min_improvement: float = 1e-3
    shard_level: Optional[str] = None
    verify_every: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_swaps < 0:
            raise ValueError("max_swaps cannot be negative")
        if self.candidate_nodes <= 0 or self.candidate_instances <= 0:
            raise ValueError("candidate counts must be positive")
        if self.min_improvement < 0:
            raise ValueError("min_improvement cannot be negative")
        if self.shard_level == self.level:
            raise ValueError("shard_level must differ from the swap level")
        if self.verify_every is not None and self.verify_every <= 0:
            raise ValueError("verify_every must be positive when set")


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

    A group keeps its members' ids and matrix row indices in membership
    order, its aggregate ``total`` (:func:`~repro.traces.sum_rows` of the
    member rows, the ``total += row`` loop's bits) and each member's row
    peak.  Scoring gathers the members into one ``(m, T)`` block when it
    needs them and keeps no copy: with the rows held per group, a fleet's
    global remap would hold a second copy of the fleet.  Swaps are applied
    *exactly*: :meth:`swap_member` rebuilds ``total`` from the new member
    rows, so there is no incremental-patch drift, and the caches of the two
    groups a swap touches are dropped.  The swap loop's per-iteration cost
    depends on the two affected groups, not the fleet.
    """

    __slots__ = (
        "name",
        "members",
        "rows",
        "total",
        "peaks",
        "_asynchrony",
        "_self_diffs",
        "_ranked",
        "_swaps_since_verify",
    )

    def __init__(self, name: str, members: List[str], traces: TraceSet) -> None:
        self.name = name
        self.members = list(members)
        self.rows = [traces.index_of(instance_id) for instance_id in self.members]
        self._swaps_since_verify = 0
        self.recompute(traces)

    def recompute(self, traces: TraceSet) -> None:
        """Rebuild ``total`` and the row peaks from member rows; drop caches."""
        block = traces.matrix[self.rows]
        self.total = sum_rows(block)
        self.peaks = block.max(axis=1)
        self._asynchrony: Optional[float] = None
        self._self_diffs: Optional[np.ndarray] = None
        self._ranked: Optional[List[int]] = None

    def verify(self, traces: TraceSet) -> None:
        """Cross-check cached state against an independent recomputation.

        The opt-in ``RemapConfig.verify_every`` harness: raises if the
        exactly-maintained ``total``, the row peaks or the cached
        asynchrony diverge from a member-by-member rebuild.
        """
        expected = np.zeros(traces.grid.n_samples)
        for instance_id in self.members:
            expected += traces.row(instance_id)
        if not np.array_equal(self.total, expected):
            raise RuntimeError(
                f"group {self.name}: aggregate diverged from member rows"
            )
        peaks = [float(traces.row(instance_id).max()) for instance_id in self.members]
        if self.peaks.tolist() != peaks:
            raise RuntimeError(f"group {self.name}: row peaks diverged")
        aggregate_peak = float(expected.max())
        fresh = sum(peaks) / aggregate_peak if aggregate_peak > 0 else 1.0
        if self._asynchrony is not None and self._asynchrony != fresh:
            raise RuntimeError(
                f"group {self.name}: cached asynchrony diverged "
                f"({self._asynchrony} != {fresh})"
            )
        obs.count("remap.verifications")

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

    def self_differentials(self, traces: TraceSet) -> np.ndarray:
        """AD of every member against the rest of its own group, in member
        order; one block evaluation, cached until the group changes."""
        if self._self_diffs is None:
            block = traces.matrix[self.rows]
            self._self_diffs = differential_rows(
                block, self.peaks, self.total, block, len(self.members) - 1
            )
        return self._self_diffs

    def ranked(self, traces: TraceSet) -> List[int]:
        """Member positions by self-differential, lowest first, ties by id.

        The members most synchronous with their own node contribute most to
        its peak, so moving them out is likeliest to help both sides.
        """
        if self._ranked is None:
            scores = self.self_differentials(traces).tolist()
            self._ranked = sorted(
                range(len(self.members)),
                key=lambda k: (scores[k], self.members[k]),
            )
        return self._ranked

    def differential(self, instance_values: np.ndarray, *, exclude: Optional[str], traces: TraceSet) -> float:
        """AD of a (possibly external) instance against this node.

        ``exclude`` removes one current member from the group first — used
        to evaluate an incoming instance against the group it would join
        after the outgoing member departs.  The one-row case of the swap
        loop's block kernel.
        """
        excluded = 0.0 if exclude is None else traces.row(exclude)
        count = len(self.members) - (exclude is not None)
        return float(
            differential_rows(
                instance_values[None, :],
                instance_values.max(),
                self.total,
                excluded,
                count,
            )[0]
        )

    def swap_member(self, outgoing: str, incoming: str, traces: TraceSet) -> None:
        """Apply a swap exactly: new membership, aggregate rebuilt from rows."""
        position = self.members.index(outgoing)
        del self.members[position]
        del self.rows[position]
        self.members.append(incoming)
        self.rows.append(traces.index_of(incoming))
        self._swaps_since_verify += 1
        self.recompute(traces)


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
        persistent pool over a shared-memory view of ``traces`` (shards
        are independent, so the result is identical for any worker count);
        a single shard always runs here.
        """
        with obs.span(
            "remap",
            level=self.config.level,
            max_swaps=self.config.max_swaps,
            workers=workers,
        ):
            shards = self._shards(assignment)
            if workers <= 1 or len(shards) <= 1:
                swaps = [
                    swap
                    for members_by_node in shards
                    for swap in self._remap_shard(members_by_node, traces)
                ]
            else:
                swaps = self._run_shards_pooled(shards, traces, workers)
            return RemapResult(assignment=_apply_swaps(assignment, swaps), swaps=swaps)

    # ------------------------------------------------------------------
    def _shards(self, assignment: Assignment) -> List[Dict[str, List[str]]]:
        """Per-shard ``{level-node name: member ids}`` maps, shard order.

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
            members_by_node = {}
            for node in subtree.nodes_at_level(self.config.level):
                members = assignment.instances_under(node.name)
                if members:
                    members_by_node[node.name] = members
            if members_by_node:
                shards.append(members_by_node)
        return shards

    def _run_shards_pooled(
        self,
        shards: List[Dict[str, List[str]]],
        traces: TraceSet,
        workers: int,
    ) -> List[Swap]:
        """Fan shard swap loops out over a shared-memory trace view."""
        # Lazy imports: repro.engine imports repro.core via the chaos
        # harness, so the reverse edge must not exist at module scope.
        from ..engine.parallel import get_pool
        from ..engine.sharedmem import SharedMatrix

        pool = get_pool(workers)
        with SharedMatrix.create(traces.matrix) as shared:
            tasks = []
            for members_by_node in shards:
                groups_spec = tuple(
                    (
                        name,
                        tuple(
                            (instance_id, traces.index_of(instance_id))
                            for instance_id in members
                        ),
                    )
                    for name, members in members_by_node.items()
                )
                tasks.append((shared.handle, traces.grid, groups_spec, self.config))
            obs.count("remap.shards", len(tasks))
            shard_swaps = pool.map_shards(
                _remap_shard_task, tasks, label="remap.shard"
            )
        return [swap for swaps in shard_swaps for swap in swaps]

    # ------------------------------------------------------------------
    def _remap_shard(
        self, members_by_node: Dict[str, List[str]], traces: TraceSet
    ) -> List[Swap]:
        """The Sec. 3.6 loop over one shard's groups; its accepted swaps."""
        groups = {
            name: _NodeGroup(name, members, traces)
            for name, members in members_by_node.items()
        }
        if len(groups) < 2:
            return []
        swaps: List[Swap] = []
        for _ in range(self.config.max_swaps):
            obs.count("remap.swaps_attempted")
            swap = self._best_swap(groups, traces)
            if swap is None:
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
            groups[swap.node_a].swap_member(swap.instance_a, swap.instance_b, traces)
            groups[swap.node_b].swap_member(swap.instance_b, swap.instance_a, traces)
            if self.config.verify_every is not None:
                for group in (groups[swap.node_a], groups[swap.node_b]):
                    if group._swaps_since_verify >= self.config.verify_every:
                        group.verify(traces)
                        group._swaps_since_verify = 0
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
        self, groups: Dict[str, _NodeGroup], traces: TraceSet
    ) -> Optional[Swap]:
        # Cached per-group scores: only the two groups the previous swap
        # touched were invalidated, so ranking the fleet costs O(groups),
        # not O(instances).
        ranked = sorted(groups.values(), key=lambda g: g.asynchrony())
        worst = ranked[0]
        if len(worst.members) < 2:
            return None

        # Worst-fitting member of the worst node (the first, on a tie).
        diffs = worst.self_differentials(traces)
        position = int(np.argmin(diffs))
        outgoing = worst.members[position]
        outgoing_values = traces.matrix[worst.rows[position]]
        outgoing_score_here = diffs[position]
        threshold = self.config.min_improvement

        partners = [g for g in reversed(ranked) if g.name != worst.name]
        for partner in partners[: self.config.candidate_nodes]:
            if len(partner.members) < 2:
                continue
            candidates = partner.ranked(traces)[: self.config.candidate_instances]
            incoming_values = traces.matrix[[partner.rows[k] for k in candidates]]
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
            gain_partner = (
                outgoing_at_partner - partner.self_differentials(traces)[candidates]
            )
            passing = np.flatnonzero(
                (gain_worst > threshold) & (gain_partner > threshold)
            )
            # Candidates count up to the first that clears the threshold,
            # as if they were evaluated one at a time in rank order.
            evaluated = int(passing[0]) + 1 if len(passing) else len(candidates)
            obs.count("remap.candidates_evaluated", evaluated)
            if len(passing):
                first = int(passing[0])
                return Swap(
                    instance_a=outgoing,
                    node_a=worst.name,
                    instance_b=partner.members[candidates[first]],
                    node_b=partner.name,
                    gain_a=float(gain_worst[first]),
                    gain_b=float(gain_partner[first]),
                )
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
    handle: object,
    grid: object,
    groups_spec: "tuple",
    config: RemapConfig,
) -> List[Swap]:
    """One shard of a sharded remap, run in a pool worker.

    ``groups_spec`` is ``((node_name, ((instance_id, row), ...)), ...)`` —
    names and row indices only; the trace matrix arrives through the
    shared-memory ``handle``.  The shard's rows are gathered into a local
    TraceSet (a copy bounded by shard size, not fleet size).
    """
    from ..engine.sharedmem import attached_view

    view = attached_view(handle)
    ids = [
        instance_id
        for _, members in groups_spec
        for instance_id, _ in members
    ]
    rows = [
        row
        for _, members in groups_spec
        for _, row in members
    ]
    traces = TraceSet(grid, ids, view[np.asarray(rows)], dtype=view.dtype)
    members_by_node = {
        name: [instance_id for instance_id, _ in members]
        for name, members in groups_spec
    }
    return RemappingEngine(config)._remap_shard(members_by_node, traces)
