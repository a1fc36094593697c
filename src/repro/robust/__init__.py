"""Γ-robust placement and headroom accounting under power uncertainty.

The rest of the pipeline treats each instance's peak power as a point
estimate; real fleets spike, and synchronized spikes are exactly what trips
breakers (the paper's own motivation).  This package models every
instance's power as an interval ``[p_c - p_r, p_c + p_r]`` — a *nominal*
draw ``p_c`` plus a *spike radius* ``p_r``, both derived from trace
history — and budgets every power node so that at most ``Γ`` co-located
instances can spike to their maximum simultaneously without a violation
(Bertsimas–Sim Γ-robustness, specialised to the power tree):

* :mod:`repro.robust.uncertainty` — :class:`UncertainPowerModel`, the
  per-instance nominal + radius estimator;
* :mod:`repro.robust.headroom` — the exact Γ-sum (sorted top-Γ radii) with
  O(log n) incremental updates (:class:`GammaAccountant`,
  :class:`RobustHeadroomIndex`) plus vectorised whole-tree accounting;
* :mod:`repro.robust.placement` — :class:`RobustPlacer`, which seeds from
  the nominal workload-aware placement and trades similar-draw instances
  to spread spike radii without disturbing the asynchrony-optimised peaks
  (at ``Γ = 0`` it returns the nominal placement);
* :mod:`repro.robust.chaos` — the spike-burst chaos suite comparing
  robust vs. nominal placement, reporting violations and breaker trips
  avoided per watt of headroom sacrificed through the event log.
"""

from .uncertainty import UncertainPowerModel
from .headroom import (
    GammaAccountant,
    RobustHeadroomIndex,
    gamma_sum,
    robust_load,
    robust_node_headroom,
    robust_node_loads,
)
from .placement import (
    RobustPlacementConfig,
    RobustPlacementResult,
    RobustPlacer,
)
from .chaos import (
    SPIKE_SUITE,
    PlacementUnderSpikes,
    RobustScenarioOutcome,
    SpikeScenario,
    format_robust_table,
    run_robust_scenario,
    run_robust_suite,
    spike_scenario_by_name,
)

__all__ = [
    "GammaAccountant",
    "PlacementUnderSpikes",
    "RobustHeadroomIndex",
    "RobustPlacementConfig",
    "RobustPlacementResult",
    "RobustPlacer",
    "RobustScenarioOutcome",
    "SPIKE_SUITE",
    "SpikeScenario",
    "UncertainPowerModel",
    "format_robust_table",
    "gamma_sum",
    "robust_load",
    "robust_node_headroom",
    "robust_node_loads",
    "run_robust_scenario",
    "run_robust_suite",
    "spike_scenario_by_name",
]
