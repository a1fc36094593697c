"""Shared simulation values: fleet description, results, artifacts.

:class:`FleetDescription` is the fleet the Sec. 4 scenarios reshape,
:class:`ScenarioResult` one scenario's time series, and
:class:`ReshapingComparison` the Figure 13/14 comparison of scenarios
against ``pre``.  :class:`RunArtifacts` is the uniform return type of
:meth:`repro.engine.Engine.run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from ..sim.power_model import ServerPowerModel
from ..traces.grid import TimeGrid
from ..traces.series import PowerTrace


@dataclass(frozen=True)
class FleetDescription:
    """The original fleet the reshaping runtime operates on.

    ``other_power`` carries the exogenous draw of servers that are neither
    LC nor Batch (storage, dev, ...) straight from their test traces.
    """

    n_lc: int
    n_batch: int
    lc_model: ServerPowerModel
    batch_model: ServerPowerModel
    budget_watts: float
    other_power: Optional[PowerTrace] = None

    def __post_init__(self) -> None:
        if self.n_lc <= 0:
            raise ValueError("fleet needs at least one LC server")
        if self.n_batch < 0:
            raise ValueError("n_batch cannot be negative")
        if self.budget_watts <= 0:
            raise ValueError("budget must be positive")


@dataclass
class ScenarioResult:
    """Time series and summaries for one simulated scenario."""

    name: str
    grid: TimeGrid
    budget_watts: float
    demand: np.ndarray
    lc_served: np.ndarray
    lc_dropped: np.ndarray
    load_on_original: np.ndarray
    per_server_load: np.ndarray
    n_lc_active: np.ndarray
    n_batch_active: np.ndarray
    batch_throughput: np.ndarray
    batch_freq: np.ndarray
    total_power: np.ndarray
    #: Conversion servers idling between modes (OS up, no work), per step.
    parked: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def lc_total(self) -> float:
        return float(self.lc_served.sum())

    def batch_total(self) -> float:
        return float(self.batch_throughput.sum())

    def dropped_fraction(self) -> float:
        total = float(self.demand.sum())
        if total == 0:
            return 0.0
        return float(self.lc_dropped.sum()) / total

    def power_slack(self) -> np.ndarray:
        """Instantaneous slack (Eq. 1); negative values mean overload."""
        return self.budget_watts - self.total_power

    def mean_slack(self) -> float:
        return float(self.power_slack().mean())

    def energy_slack(self) -> float:
        """Eq. 2 over the whole scenario, in watt-minutes."""
        return float(self.power_slack().sum()) * self.grid.step_minutes

    def overload_steps(self) -> int:
        return int(np.sum(self.total_power > self.budget_watts + 1e-9))

    def peak_power(self) -> float:
        return float(self.total_power.max())


@dataclass
class ReshapingComparison:
    """Figure 13/14-style comparison of reshaping scenarios against ``pre``."""

    pre: ScenarioResult
    scenarios: Dict[str, ScenarioResult] = field(default_factory=dict)

    def lc_improvement(self, name: str) -> float:
        base = self.pre.lc_total()
        if base == 0:
            return 0.0
        return self.scenarios[name].lc_total() / base - 1.0

    def batch_improvement(self, name: str) -> float:
        base = self.pre.batch_total()
        if base == 0:
            return 0.0
        return self.scenarios[name].batch_total() / base - 1.0

    def slack_reduction(
        self,
        name: str,
        mask: Optional[np.ndarray] = None,
        *,
        baseline: str = "pre",
    ) -> float:
        """Fractional reduction of mean power slack vs a baseline (Figure 14).

        ``mask`` restricts the comparison to a subset of steps (e.g. the
        off-peak / Batch-heavy hours).  ``baseline`` is ``"pre"`` or the
        name of another scenario; comparing ``"throttle_boost"`` against
        ``"lc_only"`` isolates what *dynamic reshaping itself* (conversion +
        throttling/boosting) does with the slack, separate from the static
        effect of simply hosting more servers.
        """
        base = self.pre if baseline == "pre" else self.scenarios[baseline]
        before = base.power_slack()
        after = self.scenarios[name].power_slack()
        if mask is not None:
            before = before[mask]
            after = after[mask]
        mean_before = float(before.mean())
        if mean_before <= 0:
            return 0.0
        return 1.0 - float(after.mean()) / mean_before


@dataclass
class RunArtifacts:
    """Everything one :meth:`Engine.run` produced.

    ``result`` is the scenario outcome (a :class:`ScenarioResult`, a
    :class:`~repro.engine.faults.ChaosRunResult`, or a chaos-harness
    outcome, depending on the spec).  ``events`` is the structured event
    log active during the run (``None`` when no recording was installed).
    """

    spec: Any
    result: Any
    events: Optional[Any] = None

    @property
    def scenario(self) -> Optional[ScenarioResult]:
        """The final :class:`ScenarioResult`, unwrapped from chaos results."""
        result = self.result
        if hasattr(result, "reshaping"):  # chaos-harness outcome
            result = result.reshaping
        if hasattr(result, "scenario"):  # ChaosRunResult
            result = result.scenario
        return result if isinstance(result, ScenarioResult) else None
