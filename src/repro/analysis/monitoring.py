"""Continuous fragmentation monitoring (the Sec. 3.6 control loop's sensor).

"Our framework continuously records the I-traces and the S-traces, and
dynamically re-evaluates the severity of the fragmentation problem by
monitoring the sum of peaks of power traces at each level of power
infrastructure."  A :class:`FragmentationMonitor` reads the live
aggregates and scores of one :class:`~repro.engine.delta.PlacementState`,
tracks its level's sum of peaks and worst node against the values observed
at calibration time, and raises advisories when drift exceeds configured
thresholds — the trigger for running the remapping engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .. import obs
from ..core.metrics import AsynchronyIndex
from ..obs import events as obs_events
from ..obs import telemetry as obs_telemetry


@dataclass(frozen=True)
class MonitorConfig:
    """Drift thresholds.

    An advisory fires when the monitored level's sum of peaks grows by
    more than ``sum_of_peaks_tolerance`` (fractional) over its calibration
    reference, or when any node's asynchrony score falls below
    ``min_asynchrony``.
    """

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
    """Tracks a placement's fragmentation as its state changes.

    The monitor owns no placement and no aggregate: it reads an
    :class:`~repro.core.metrics.AsynchronyIndex` and the
    :class:`~repro.infra.aggregation.NodePowerView` that index reads
    (``index.view``), both registered on the
    :class:`~repro.engine.delta.PlacementState` that owns the placement,
    and judges the index's level.  It calibrates when it is built, so
    ``history[0]`` is the ``"calibration"`` snapshot.  New telemetry
    arrives as trace rows rewritten in place and announced with
    ``state.update_traces``, a remap as swaps through ``state.swap``;
    :meth:`observe` then evaluates the live state.  Registered on the
    state itself (after its index), the monitor observes every delta
    through :meth:`apply_delta`, so :meth:`needs_remapping` stays current
    at O(affected subtree) per placement action instead of O(fleet).
    """

    def __init__(self, index: AsynchronyIndex, config: MonitorConfig) -> None:
        self.index = index
        self.config = config
        self.history: List[Snapshot] = []
        self.calibrate()

    # ------------------------------------------------------------------
    def calibrate(self) -> Snapshot:
        """Take the live state as the new reference, e.g. after a remap."""
        snapshot = self._snapshot("calibration", reference=None)
        self._reference_sum_of_peaks = snapshot.sum_of_peaks
        self.history.append(snapshot)
        return snapshot

    def observe(self, label: str) -> Snapshot:
        """Evaluate the live state's drift against the reference."""
        snapshot = self._snapshot(label, reference=self._reference_sum_of_peaks)
        self.history.append(snapshot)
        self._emit_advisories(label, snapshot)
        return snapshot

    def apply_delta(self, delta, dirty) -> None:
        """Subscriber-protocol hook for :class:`~repro.engine.delta.PlacementState`.

        The state has applied the delta and its view and index have
        caught up, so the monitor observes the new state and feeds the
        ``dirty`` budgeted nodes' aggregate traces to the active flight
        recorder — precursor detection and violation events keep flowing
        without re-scoring the fleet.
        """
        self.observe(f"delta:{len(self.history)}")
        obs_telemetry.record_delta(self.index.view, dirty)
        obs.count("monitor.delta_observations")

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
        return not self.history[-1].healthy

    # ------------------------------------------------------------------
    def _snapshot(self, label: str, *, reference: Optional[float]) -> Snapshot:
        """The live state's numbers; advisories only against a ``reference``."""
        level = self.index.level
        sum_of_peaks = self.index.view.sum_of_peaks(level)
        scores = self.index.scores()
        worst = min(scores, key=scores.get) if scores else None
        min_score = min(scores.values()) if scores else 1.0

        advisories: List[Advisory] = []
        if reference is not None:
            if sum_of_peaks > reference * (1.0 + self.config.sum_of_peaks_tolerance):
                advisories.append(
                    Advisory(
                        kind="sum_of_peaks",
                        level=level,
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
                            level=level,
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
