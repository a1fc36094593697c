"""Circuit-breaker model.

"When the aggregate power at a power node exceeds the power budget of that
node, after a short amount of time, the circuit breaker is tripped and the
power supply for the entire sub-tree is shut down" (Sec. 2.2).  Breakers
tolerate brief excursions; a trip requires the overload to persist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..obs import events as obs_events
from ..traces.series import PowerTrace
from .aggregation import NodePowerView


@dataclass(frozen=True)
class BreakerTrip:
    """One breaker trip event at a power node."""

    node_name: str
    start_index: int
    duration_samples: int
    peak_overload_watts: float


@dataclass(frozen=True)
class BreakerModel:
    """Trip detection parameters.

    ``tolerance_minutes`` is how long an overload must persist before the
    breaker opens; instantaneous blips below that are survived (production
    systems rely on power capping to shave them — Sec. 3.6).
    """

    tolerance_minutes: int = 10

    def __post_init__(self) -> None:
        if self.tolerance_minutes < 0:
            raise ValueError("tolerance cannot be negative")

    def trips(self, trace: PowerTrace, budget: float, node_name: str = "") -> List[BreakerTrip]:
        """All trip events for one node's aggregate trace against its budget."""
        if budget < 0:
            raise ValueError("budget cannot be negative")
        min_samples = max(
            1, int(np.ceil(self.tolerance_minutes / trace.grid.step_minutes))
        )
        over = trace.values > budget
        trips: List[BreakerTrip] = []
        run_start: Optional[int] = None
        for index, flag in enumerate(over):
            if flag and run_start is None:
                run_start = index
            elif not flag and run_start is not None:
                length = index - run_start
                if length >= min_samples:
                    trips.append(self._trip(trace, budget, node_name, run_start, length))
                run_start = None
        if run_start is not None:
            length = len(over) - run_start
            if length >= min_samples:
                trips.append(self._trip(trace, budget, node_name, run_start, length))
        return trips

    @staticmethod
    def _trip(
        trace: PowerTrace, budget: float, node_name: str, start: int, length: int
    ) -> BreakerTrip:
        segment = trace.values[start : start + length]
        return BreakerTrip(
            node_name=node_name,
            start_index=start,
            duration_samples=length,
            peak_overload_watts=float(segment.max() - budget),
        )


def audit_view(view: NodePowerView, model: Optional[BreakerModel] = None) -> Dict[str, List[BreakerTrip]]:
    """Trip events for every budgeted node in a power view.

    Nodes without budgets are skipped.  An empty dict means the placement is
    power-safe everywhere.
    """
    model = model if model is not None else BreakerModel()
    result: Dict[str, List[BreakerTrip]] = {}
    for node in view.topology.nodes():
        if node.budget_watts is None:
            continue
        trips = model.trips(view.node_trace(node.name), node.budget_watts, node.name)
        if trips:
            result[node.name] = trips
            for trip in trips:
                obs_events.emit(
                    obs_events.BREAKER_TRIP,
                    severity="critical",
                    source="infra.breaker",
                    node=trip.node_name,
                    start_index=trip.start_index,
                    duration_samples=trip.duration_samples,
                    peak_overload_watts=trip.peak_overload_watts,
                )
    return result


def power_safe(view: NodePowerView, model: Optional[BreakerModel] = None) -> bool:
    """True when no budgeted node of ``view`` trips a breaker.

    Convenience wrapper over :func:`audit_view` for safety assertions.  It
    runs the whole audit, breaker events included, so a caller that also
    wants the trips should call :func:`audit_view` once and test its
    result instead.
    """
    return not audit_view(view, model)
