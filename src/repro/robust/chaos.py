"""Spike-burst chaos scenarios: robust vs. nominal placement, head to head.

Each :class:`SpikeScenario` pits two placements of the same fleet against
the adversary the Γ-robust accounting models.  The uncertainty model is
hardened with a *spike minority* — a seeded fraction of instances whose
radius is a fixed burst amplitude, the heavy tail (deploy waves, cache
flushes) that trace history on a well-behaved fleet underestimates.  Both
the placer and the injector see the same model: the adversary never steps
outside what the robust placement budgeted for.

At burst times, the ``burst_group`` largest-radius instances under every
target node simultaneously jump from their trace to ``trace + p_r`` — a
correlated spike at the protection boundary.  One burst per node is aimed
at that node's own aggregate peak (the worst possible moment for *that*
placement); the rest land at per-node seeded random times shared by both
placements.

Budgets are provisioned the way breakers are actually rated: each target
node gets ``(1 + budget_margin) ×`` its own clean aggregate peak, so any
violation the audit sees is spike-induced by construction, and the cost of
robustness is the extra capacity the robust placement needs to reach the
same margin (near zero for the robust placer's swaps, which preserve the
nominal peaks).  The safety outcome is measured through the existing observability
stack — :func:`repro.obs.telemetry.record_view` emits one ``violation``
event per contiguous over-budget run and
:func:`repro.infra.breaker.audit_view` one ``breaker_trip`` per persistent
overload — never recomputed on the side.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..obs import events as obs_events
from ..obs import telemetry as obs_telemetry
from ..analysis import experiments
from ..analysis.report import format_percent, format_table
from ..core.placement import PlacementConfig, WorkloadAwarePlacer
from ..infra.aggregation import NodePowerView
from ..infra.breaker import BreakerModel, audit_view
from ..infra.budget import preserved_budgets
from ..infra.topology import Level
from ..traces.traceset import TraceSet
from .placement import RobustPlacementConfig, RobustPlacer
from .uncertainty import UncertainPowerModel

__all__ = [
    "SPIKE_SUITE",
    "PlacementUnderSpikes",
    "RobustScenarioOutcome",
    "SpikeScenario",
    "format_robust_table",
    "run_robust_scenario",
    "run_robust_suite",
    "spike_scenario_by_name",
]


@dataclass(frozen=True)
class SpikeScenario:
    """One named robust-vs-nominal comparison under correlated spikes."""

    name: str
    description: str
    #: Protection level of the robust placement under test (0 = control:
    #: the robust placer falls back to the nominal placement).
    gamma: int
    #: How many top-radius instances per target node spike simultaneously.
    burst_group: int
    n_bursts: int = 3
    burst_duration_samples: int = 3
    #: Level whose budgeted nodes are attacked (and whose headroom is
    #: reported).
    target_level: str = Level.RPP
    #: Heavy-tail model: this fraction of instances (seeded draw) gets a
    #: spike radius of ``spike_watts`` — both in the model the placer sees
    #: and in the injected bursts.
    spiky_fraction: float = 0.10
    spike_watts: float = 230.0
    #: Breaker rating margin over each node's clean aggregate peak.
    budget_margin: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError("gamma cannot be negative")
        if self.burst_group <= 0:
            raise ValueError("burst_group must be positive")
        if self.n_bursts <= 0:
            raise ValueError("n_bursts must be positive")
        if self.burst_duration_samples <= 0:
            raise ValueError("burst_duration_samples must be positive")
        if not 0.0 <= self.spiky_fraction <= 1.0:
            raise ValueError("spiky_fraction must be in [0, 1]")
        if self.spike_watts < 0:
            raise ValueError("spike_watts cannot be negative")
        if self.budget_margin < 0:
            raise ValueError("budget_margin cannot be negative")


@dataclass
class PlacementUnderSpikes:
    """Safety + provisioning readout for one placement under the bursts."""

    label: str
    #: Over-budget samples summed over VIOLATION events at budgeted nodes.
    violation_steps: int
    violation_events: int
    breaker_trips: int
    #: Breaker capacity provisioned over the target nodes (Σ budgets).
    provisioned_watts: float
    #: Clean-week headroom (budget − aggregate peak) over target nodes.
    mean_headroom_watts: float
    min_headroom_watts: float
    event_counts: Dict[str, int] = field(default_factory=dict)


@dataclass
class RobustScenarioOutcome:
    """Everything one spike scenario measured."""

    scenario: SpikeScenario
    dc_name: str
    nominal: PlacementUnderSpikes
    robust: PlacementUnderSpikes
    #: Swap-loop iterations the robust placement needed.
    n_swaps: int = 0

    # ------------------------------------------------------------------
    @property
    def gamma(self) -> int:
        return self.scenario.gamma

    @property
    def avoided_violation_fraction(self) -> float:
        """Share of the nominal placement's violation steps the robust one
        avoided (vacuously 1.0 when the nominal placement never violated)."""
        if self.nominal.violation_steps == 0:
            return 1.0
        return 1.0 - self.robust.violation_steps / self.nominal.violation_steps

    @property
    def avoided_trip_fraction(self) -> float:
        if self.nominal.breaker_trips == 0:
            return 1.0
        return 1.0 - self.robust.breaker_trips / self.nominal.breaker_trips

    @property
    def headroom_sacrifice_fraction(self) -> float:
        """Extra breaker capacity the robust placement must provision to
        reach the same margin, relative to the nominal placement (can be
        negative when the robust placement happens to smooth better)."""
        if self.nominal.provisioned_watts <= 0:
            return 0.0
        return (
            self.robust.provisioned_watts / self.nominal.provisioned_watts
            - 1.0
        )

    @property
    def headroom_per_violation_avoided(self) -> float:
        """Watts of extra provisioned capacity per violation step avoided."""
        avoided = self.nominal.violation_steps - self.robust.violation_steps
        if avoided <= 0:
            return 0.0
        extra = max(
            self.robust.provisioned_watts - self.nominal.provisioned_watts,
            0.0,
        )
        return extra / avoided


# ----------------------------------------------------------------------
# the named suite
# ----------------------------------------------------------------------
SPIKE_SUITE: Tuple[SpikeScenario, ...] = (
    SpikeScenario(
        name="gamma_zero_control",
        description="Γ=0 control — robust placement degenerates to nominal",
        gamma=0,
        burst_group=2,
        seed=41,
    ),
    SpikeScenario(
        name="pair_spike",
        description="two top-radius instances per RPP spike at once (Γ=2)",
        gamma=2,
        burst_group=2,
        seed=42,
    ),
    SpikeScenario(
        name="quad_spike",
        description="four-way correlated bursts per RPP (Γ=4)",
        gamma=4,
        burst_group=4,
        seed=43,
    ),
    SpikeScenario(
        name="hardened_spikes",
        description="300 W spike tail under a 30% breaker margin (Γ=2)",
        gamma=2,
        burst_group=2,
        spike_watts=300.0,
        budget_margin=0.30,
        seed=44,
    ),
)


def spike_scenario_by_name(name: str) -> SpikeScenario:
    for scenario in SPIKE_SUITE:
        if scenario.name == name:
            return scenario
    raise KeyError(
        f"unknown spike scenario {name!r}; "
        f"known: {[s.name for s in SPIKE_SUITE]}"
    )


# ----------------------------------------------------------------------
# the head-to-head run
# ----------------------------------------------------------------------
def run_robust_scenario(
    scenario: SpikeScenario,
    *,
    dc_name: str = "DC1",
    n_instances: int = experiments.DEFAULT_N_INSTANCES,
    step_minutes: int = experiments.DEFAULT_STEP_MINUTES,
    weeks: int = experiments.DEFAULT_WEEKS,
) -> RobustScenarioOutcome:
    """Place twice (nominal / Γ-robust), spike both, compare the damage."""
    with obs.span("robust.scenario", scenario=scenario.name):
        obs.count("robust.scenarios_run")
        dc = experiments.get_datacenter(
            dc_name, n_instances=n_instances, step_minutes=step_minutes, weeks=weeks
        )
        test = dc.test_traces()
        model = UncertainPowerModel.from_records(dc.records).with_spike_minority(
            scenario.spiky_fraction, scenario.spike_watts, seed=scenario.seed
        )

        nominal_assignment = (
            WorkloadAwarePlacer(PlacementConfig(seed=0))
            .place(dc.records, dc.topology)
            .assignment
        )
        robust_result = RobustPlacer(
            RobustPlacementConfig(gamma=scenario.gamma)
        ).place(dc.records, dc.topology, model=model)

        # The audit mutates node budgets (breaker ratings per placement);
        # the datacenter object is cached across scenarios, so restore.
        with preserved_budgets(dc.topology):
            nominal = _evaluate_placement(
                "nominal", scenario, dc, nominal_assignment, model, test
            )
            robust = _evaluate_placement(
                "robust", scenario, dc, robust_result.assignment, model, test
            )
    return RobustScenarioOutcome(
        scenario=scenario,
        dc_name=dc_name,
        nominal=nominal,
        robust=robust,
        n_swaps=robust_result.n_swaps,
    )


def run_robust_suite(
    scenarios: Optional[Sequence[SpikeScenario]] = None,
    *,
    dc_name: str = "DC1",
    **kwargs,
) -> List[RobustScenarioOutcome]:
    """Run every scenario of the suite serially (they share the cached DC)."""
    scenarios = scenarios if scenarios is not None else SPIKE_SUITE
    return [
        run_robust_scenario(scenario, dc_name=dc_name, **kwargs)
        for scenario in scenarios
    ]


def format_robust_table(outcomes: Sequence[RobustScenarioOutcome]) -> str:
    """The suite's safety-vs-headroom trade as one aligned table."""
    rows = []
    for outcome in outcomes:
        rows.append(
            [
                outcome.scenario.name,
                outcome.gamma,
                outcome.nominal.violation_steps,
                outcome.robust.violation_steps,
                format_percent(outcome.avoided_violation_fraction, 1),
                outcome.nominal.breaker_trips,
                outcome.robust.breaker_trips,
                format_percent(outcome.headroom_sacrifice_fraction, 2),
                outcome.n_swaps,
            ]
        )
    return format_table(
        [
            "scenario",
            "gamma",
            "viol (nom)",
            "viol (rob)",
            "avoided",
            "trips (nom)",
            "trips (rob)",
            "capacity cost",
            "swaps",
        ],
        rows,
        title=(
            f"Spike chaos — {outcomes[0].dc_name}" if outcomes else "Spike chaos"
        ),
    )


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
def _burst_windows(
    scenario: SpikeScenario,
    node_name: str,
    clean_values: np.ndarray,
) -> List[Tuple[int, int]]:
    """Burst windows for one node: its own peak, then seeded random times.

    The random times depend only on the scenario seed and the node name, so
    both placements face the same background bursts; the peak-aimed burst
    tracks each placement's own worst moment, which is the *stronger* test.
    """
    n = len(clean_values)
    duration = min(scenario.burst_duration_samples, n)
    windows: List[Tuple[int, int]] = []
    peak_start = int(np.argmax(clean_values))
    peak_start = min(peak_start, n - duration)
    windows.append((peak_start, peak_start + duration))
    rng = np.random.default_rng(
        [scenario.seed, zlib.crc32(node_name.encode()) & 0x7FFFFFFF]
    )
    for _ in range(scenario.n_bursts - 1):
        start = int(rng.integers(0, n - duration + 1))
        windows.append((start, start + duration))
    return windows


def _spiked_traces(
    scenario: SpikeScenario,
    assignment,
    model: UncertainPowerModel,
    test: TraceSet,
    view: NodePowerView,
    target_nodes,
) -> TraceSet:
    """Test traces with the correlated bursts injected for one placement."""
    matrix = test.matrix.copy()
    for node in target_nodes:
        members = assignment.instances_under(node.name)
        if not members:
            continue
        spikers = sorted(members, key=lambda i: (-model.radius_of(i), i))[
            : scenario.burst_group
        ]
        windows = _burst_windows(
            scenario, node.name, view._node_values[node.name]
        )
        for instance_id in spikers:
            row = test.index_of(instance_id)
            radius = model.radius_of(instance_id)
            for start, stop in windows:
                matrix[row, start:stop] += radius
    return TraceSet(test.grid, list(test.ids), matrix)


def _evaluate_placement(
    label: str,
    scenario: SpikeScenario,
    dc,
    assignment,
    model: UncertainPowerModel,
    test: TraceSet,
) -> PlacementUnderSpikes:
    """Spike one placement and read the damage off the event log.

    Budgets are the breaker ratings this placement would be provisioned
    with: ``(1 + margin) ×`` each target node's clean aggregate peak.  Only
    the target nodes carry budgets during the audit, so every event the
    log sees is a target-level, spike-induced excursion.
    """
    target_nodes = list(dc.topology.nodes_at_level(scenario.target_level))
    clean_view = NodePowerView(dc.topology, assignment, test)
    budgets = {
        node.name: (1.0 + scenario.budget_margin)
        * clean_view.node_peak(node.name)
        for node in target_nodes
    }
    for node in dc.topology.nodes():
        node.budget_watts = budgets.get(node.name)
    headrooms = np.array(
        [
            budgets[node.name] - clean_view.node_peak(node.name)
            for node in target_nodes
        ]
    )
    spiked = _spiked_traces(
        scenario, assignment, model, test, clean_view, target_nodes
    )
    spiked_view = NodePowerView(dc.topology, assignment, spiked)
    with obs_events.recording() as log:
        obs_telemetry.record_view(spiked_view, prefix=f"{label}/")
        trips = audit_view(spiked_view, BreakerModel())
    violations = log.by_kind(obs_events.VIOLATION)
    return PlacementUnderSpikes(
        label=label,
        violation_steps=sum(
            int(event.fields.get("duration_samples", 0)) for event in violations
        ),
        violation_events=len(violations),
        breaker_trips=sum(len(t) for t in trips.values()),
        provisioned_watts=float(sum(budgets.values())),
        mean_headroom_watts=float(headrooms.mean()) if len(headrooms) else 0.0,
        min_headroom_watts=float(headrooms.min()) if len(headrooms) else 0.0,
        event_counts=log.counts_by_kind(),
    )
