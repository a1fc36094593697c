"""Interval power models: per-instance nominal draw + spike radius.

Point-estimate peaks hide the behaviour that actually trips breakers:
an instance whose trace usually sits at ``p_c`` occasionally spikes to
``p_c + p_r``.  An :class:`UncertainPowerModel` derives both numbers from
trace history — the nominal from a high percentile of the observed trace
(robust to single-sample glitches), the radius from the gap between the
observed maximum and that nominal — and exposes them as vectors aligned
with the instance ids, ready for the Γ-sum accounting in
:mod:`repro.robust.headroom`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from ..traces.instance import InstanceRecord
from ..traces.synthesis import fleet_trace_set
from ..traces.traceset import TraceSet

#: Default percentile of the trace history taken as the nominal draw.  The
#: top 5% of samples are treated as spike territory, matching the StatProf
#: convention of provisioning against a high-but-not-max percentile.
DEFAULT_NOMINAL_PERCENTILE = 95.0


class UncertainPowerModel:
    """Per-instance power intervals ``[p_c - p_r, p_c + p_r]``.

    ``nominal`` (``p_c``) and ``radius`` (``p_r``) are parallel float
    vectors keyed by ``ids``.  Only the upward deviation matters for
    budget safety — the Γ-robust load of a node is ``Σ p_c`` plus the sum
    of its top-Γ radii — but the symmetric interval is kept so the model
    can also bound how far a node's draw may *undershoot* its plan.
    """

    __slots__ = ("ids", "nominal", "radius", "_index")

    def __init__(
        self,
        ids: Sequence[str],
        nominal: Iterable[float],
        radius: Iterable[float],
    ) -> None:
        nominal = np.asarray(nominal, dtype=np.float64)
        radius = np.asarray(radius, dtype=np.float64)
        if nominal.ndim != 1 or radius.ndim != 1:
            raise ValueError("nominal and radius must be 1-D vectors")
        if len(ids) != nominal.shape[0] or len(ids) != radius.shape[0]:
            raise ValueError(
                f"{len(ids)} ids inconsistent with nominal shape "
                f"{nominal.shape} / radius shape {radius.shape}"
            )
        if not (np.all(np.isfinite(nominal)) and np.all(np.isfinite(radius))):
            raise ValueError("nominal and radius must be finite")
        if np.any(nominal < 0):
            raise ValueError("nominal power cannot be negative")
        if np.any(radius < 0):
            raise ValueError("spike radius cannot be negative")
        self.ids = list(ids)
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("instance ids must be unique")
        self.nominal = nominal
        self.radius = radius
        self._index: Dict[str, int] = {iid: i for i, iid in enumerate(self.ids)}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_traceset(
        cls,
        traces: TraceSet,
        *,
        nominal_percentile: float = DEFAULT_NOMINAL_PERCENTILE,
        radius_scale: float = 1.0,
    ) -> "UncertainPowerModel":
        """Derive nominal + radius from a fleet's trace history.

        ``p_c`` is the per-trace ``nominal_percentile``-th percentile;
        ``p_r`` is ``radius_scale × (max - p_c)`` — how far beyond its
        nominal the instance has actually been observed to spike.
        ``radius_scale > 1`` hardens the model against spikes worse than
        history; ``radius_scale = 0`` degenerates to point estimates.
        """
        if not 0 <= nominal_percentile <= 100:
            raise ValueError("nominal_percentile must be in [0, 100]")
        if radius_scale < 0:
            raise ValueError("radius_scale cannot be negative")
        nominal = np.percentile(traces.matrix, nominal_percentile, axis=1)
        peaks = traces.matrix.max(axis=1)
        radius = np.maximum(peaks - nominal, 0.0) * radius_scale
        return cls(traces.ids, nominal, radius)

    @classmethod
    def from_records(
        cls,
        records: Sequence[InstanceRecord],
        *,
        nominal_percentile: float = DEFAULT_NOMINAL_PERCENTILE,
        radius_scale: float = 1.0,
    ) -> "UncertainPowerModel":
        """Derive the model from the records' *training* traces.

        Placement must never peek at the held-out test week; the spike
        radii come from the same history the placer sees.
        """
        return cls.from_traceset(
            fleet_trace_set(records),
            nominal_percentile=nominal_percentile,
            radius_scale=radius_scale,
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._index

    def index_of(self, instance_id: str) -> int:
        try:
            return self._index[instance_id]
        except KeyError:
            raise KeyError(f"no uncertainty model for instance {instance_id!r}")

    def nominal_of(self, instance_id: str) -> float:
        return float(self.nominal[self.index_of(instance_id)])

    def radius_of(self, instance_id: str) -> float:
        return float(self.radius[self.index_of(instance_id)])

    def upper(self, instance_id: str) -> float:
        """The instance's worst-case draw ``p_c + p_r``."""
        i = self.index_of(instance_id)
        return float(self.nominal[i] + self.radius[i])

    def interval(self, instance_id: str) -> Tuple[float, float]:
        """The interval ``[max(0, p_c - p_r), p_c + p_r]``.

        The lower end is floored at zero: power draw cannot be negative
        however large the modelled deviation.
        """
        i = self.index_of(instance_id)
        centre = float(self.nominal[i])
        spread = float(self.radius[i])
        return (max(0.0, centre - spread), centre + spread)

    def subset(self, instance_ids: Sequence[str]) -> "UncertainPowerModel":
        """The model restricted to ``instance_ids`` (order preserved)."""
        rows = [self.index_of(iid) for iid in instance_ids]
        return UncertainPowerModel(
            list(instance_ids), self.nominal[rows], self.radius[rows]
        )

    def with_spike_minority(
        self, fraction: float, spike_watts: float, *, seed: int = 0
    ) -> "UncertainPowerModel":
        """A copy where a seeded random minority gets radius ``spike_watts``.

        Trace history on this fleet yields small, homogeneous radii; real
        fleets have a heavy tail — a minority of deploy-wave / cache-flush
        prone services whose spikes dwarf the rest.  This models that tail
        explicitly: ``fraction`` of the instances (chosen by ``seed``, so
        scenarios are reproducible and placement-independent) have their
        radius replaced by the fixed amplitude ``spike_watts``.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if spike_watts < 0:
            raise ValueError("spike_watts cannot be negative")
        radius = self.radius.copy()
        count = min(int(round(fraction * len(self.ids))), len(self.ids))
        if count:
            rng = np.random.default_rng(seed)
            chosen = rng.choice(len(self.ids), size=count, replace=False)
            radius[chosen] = spike_watts
        return UncertainPowerModel(list(self.ids), self.nominal.copy(), radius)

    # ------------------------------------------------------------------
    # bulk views
    # ------------------------------------------------------------------
    def rows(self, instance_ids: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
        """``(nominal, radius)`` vectors for a member list, in list order."""
        rows = [self.index_of(iid) for iid in instance_ids]
        return self.nominal[rows], self.radius[rows]

    def total_upper(self) -> float:
        """Fleet-wide worst case: every instance at ``p_c + p_r`` at once."""
        return float((self.nominal + self.radius).sum())
