"""Continuous fragmentation monitoring (the Sec. 3.6 control loop's sensor).

"Our framework continuously records the I-traces and the S-traces, and
dynamically re-evaluates the severity of the fragmentation problem by
monitoring the sum of peaks of power traces at each level of power
infrastructure."  A :class:`FragmentationMonitor` ingests periodic trace
snapshots, tracks each level's sum of peaks and worst node against the
values observed at deployment time, and raises advisories when drift
exceeds configured thresholds — the trigger for running the remapping
engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .. import obs
from ..core.metrics import AsynchronyIndex
from ..engine.delta import PlacementState
from ..infra.aggregation import NodePowerView
from ..infra.assignment import Assignment
from ..obs import events as obs_events
from ..obs import telemetry as obs_telemetry
from ..traces.traceset import TraceSet


@dataclass(frozen=True)
class MonitorConfig:
    """Drift thresholds.

    An advisory fires when a level's sum of peaks grows by more than
    ``sum_of_peaks_tolerance`` (fractional) over its deployment-time
    reference, or when any node's asynchrony score falls below
    ``min_asynchrony``.
    """

    level: str
    sum_of_peaks_tolerance: float = 0.05
    min_asynchrony: float = 1.02

    def __post_init__(self) -> None:
        if self.sum_of_peaks_tolerance < 0:
            raise ValueError("tolerance cannot be negative")
        if self.min_asynchrony < 1.0:
            raise ValueError("asynchrony scores are never below 1.0")


@dataclass(frozen=True)
class Advisory:
    """One monitoring finding: what drifted, where, and how badly."""

    kind: str  # "sum_of_peaks" or "node_asynchrony"
    level: str
    node_name: Optional[str]
    observed: float
    reference: float

    @property
    def severity(self) -> float:
        """Fractional drift beyond the reference (higher = worse)."""
        if self.reference == 0:
            return 0.0
        return abs(self.observed - self.reference) / abs(self.reference)


@dataclass
class Snapshot:
    """One monitoring observation."""

    label: str
    sum_of_peaks: float
    worst_node: Optional[str]
    min_asynchrony: float
    advisories: List[Advisory] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        return not self.advisories


class FragmentationMonitor:
    """Tracks a placement's fragmentation over successive trace snapshots.

    Two feeds are supported.  Snapshot mode (:meth:`observe`) ingests a
    whole new trace set and re-measures the fleet.  Delta mode
    (:meth:`observe_delta`) ingests a
    :class:`~repro.engine.delta.FleetDelta` — one swap, move, or in-place
    trace refresh — through the monitor's own
    :class:`~repro.engine.delta.PlacementState`, which checks it and
    re-scores only the dirtied nodes through the monitor's persistent
    incremental view and :class:`~repro.core.metrics.AsynchronyIndex`, so
    :meth:`needs_remapping` stays current at O(affected subtree) per
    placement action instead of O(fleet).
    """

    def __init__(self, assignment: Assignment, config: MonitorConfig) -> None:
        self.assignment = assignment
        self.config = config
        self._reference_sum_of_peaks: Optional[float] = None
        self._state: Optional[PlacementState] = None
        self._view: Optional[NodePowerView] = None
        self._index: Optional[AsynchronyIndex] = None
        self.history: List[Snapshot] = []

    # ------------------------------------------------------------------
    def calibrate(self, traces: TraceSet) -> Snapshot:
        """Record the deployment-time reference from the first snapshot."""
        snapshot = self._measure("calibration", traces, check=False)
        self._reference_sum_of_peaks = snapshot.sum_of_peaks
        self.history.append(snapshot)
        return snapshot

    def observe(self, label: str, traces: TraceSet) -> Snapshot:
        """Ingest a new snapshot and evaluate drift against the reference."""
        if self._reference_sum_of_peaks is None:
            raise RuntimeError("monitor must be calibrated before observing")
        snapshot = self._measure(label, traces, check=True)
        self.history.append(snapshot)
        self._emit_advisories(label, snapshot)
        return snapshot

    def observe_delta(self, label: str, delta) -> Snapshot:
        """Ingest one placement delta and re-evaluate drift incrementally.

        Applies the delta through the monitor's placement state, which
        checks it and re-sums and re-scores only the dirty subtree,
        evaluates the same thresholds as :meth:`observe`, and feeds the
        dirtied budgeted nodes' aggregate traces to the active flight
        recorder — so precursor detection and violation events keep
        flowing without re-scoring the fleet.
        """
        if self._reference_sum_of_peaks is None or self._state is None:
            raise RuntimeError("monitor must be calibrated before observing")
        dirty = self._state.apply(delta)
        snapshot = self._snapshot_from_cache(label, check=True)
        self.history.append(snapshot)
        self._emit_advisories(label, snapshot)
        obs_telemetry.record_delta(self._view, dirty)
        obs.count("monitor.delta_observations")
        return snapshot

    def apply_delta(self, delta, dirty) -> None:
        """Subscriber-protocol hook for :class:`~repro.engine.delta.PlacementState`.

        The delta goes through the monitor's own state, like
        :meth:`observe_delta`; ``dirty`` is not read.
        """
        self.observe_delta(f"delta:{len(self.history)}", delta)

    def _emit_advisories(self, label: str, snapshot: Snapshot) -> None:
        # Mirror the findings into the structured event log (no-op unless
        # recording), so monitoring drift shows up alongside violations and
        # swaps instead of living only in returned Snapshot objects.
        for advisory in snapshot.advisories:
            obs_events.emit(
                obs_events.ADVISORY,
                severity="advisory",
                source="analysis.monitoring",
                label=label,
                drift=advisory.kind,
                level=advisory.level,
                node=advisory.node_name,
                observed=advisory.observed,
                reference=advisory.reference,
                drift_severity=advisory.severity,
            )

    def needs_remapping(self) -> bool:
        """True if the most recent snapshot raised any advisory."""
        return bool(self.history) and not self.history[-1].healthy

    # ------------------------------------------------------------------
    def _measure(self, label: str, traces: TraceSet, *, check: bool) -> Snapshot:
        # A whole-fleet snapshot rebuilds the persistent incremental state
        # (the traces changed wholesale).  If deltas moved instances since
        # the last snapshot, carry the *current* placement forward.
        if self._state is not None:
            self.assignment = self._state.assignment()
        topology = self.assignment.topology
        state = self._state = PlacementState(topology, traces, self.assignment)
        self._view = state.register(NodePowerView(topology, self.assignment, traces))
        self._index = state.register(AsynchronyIndex(self._view, self.config.level))
        return self._snapshot_from_cache(label, check=check)

    def _snapshot_from_cache(self, label: str, *, check: bool) -> Snapshot:
        assert self._view is not None and self._index is not None
        sum_of_peaks = self._view.sum_of_peaks(self.config.level)
        scores = self._index.scores()
        worst = min(scores, key=scores.get) if scores else None
        min_score = min(scores.values()) if scores else 1.0

        advisories: List[Advisory] = []
        if check:
            reference = self._reference_sum_of_peaks
            assert reference is not None
            if sum_of_peaks > reference * (1.0 + self.config.sum_of_peaks_tolerance):
                advisories.append(
                    Advisory(
                        kind="sum_of_peaks",
                        level=self.config.level,
                        node_name=None,
                        observed=sum_of_peaks,
                        reference=reference,
                    )
                )
            for node_name, score in scores.items():
                if score < self.config.min_asynchrony:
                    advisories.append(
                        Advisory(
                            kind="node_asynchrony",
                            level=self.config.level,
                            node_name=node_name,
                            observed=score,
                            reference=self.config.min_asynchrony,
                        )
                    )
        return Snapshot(
            label=label,
            sum_of_peaks=sum_of_peaks,
            worst_node=worst,
            min_asynchrony=min_score,
            advisories=advisories,
        )
