"""The SmoothOperator end-to-end pipeline (Figure 7).

Ties the four framework steps together — trace construction, asynchrony
scoring, clustering, placement — plus the evaluation protocol of Sec. 5.1:
optimise on the averaged training traces, measure on the held-out test week.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from .. import obs
from ..infra.aggregation import NodePowerView, peak_reduction_by_level
from ..infra.assignment import Assignment
from ..infra.budget import provision_hierarchical
from ..infra.headroom import ExpansionPlan, plan_expansion
from ..infra.topology import PowerTopology
from ..traces.instance import InstanceRecord
from ..traces.synthesis import fleet_trace_set
from .placement import PlacementConfig, PlacementResult, WorkloadAwarePlacer
from .remapping import RemapConfig, RemappingEngine, RemapResult

if TYPE_CHECKING:  # layering: repro.robust imports repro.core, not vice versa
    from ..robust.placement import RobustPlacementConfig, RobustPlacementResult


@dataclass(frozen=True)
class SmoothOperatorConfig:
    """Configuration of the full pipeline.

    When ``robust`` is set, placement goes through
    :class:`repro.robust.placement.RobustPlacer` instead of the plain
    workload-aware placer — at ``gamma = 0`` the two coincide, so the
    default pipeline output is unchanged.

    Every stage runs in the calling process.  A suite-sharded remap on the
    worker pool is :meth:`RemappingEngine.run(..., workers=N)
    <repro.core.remapping.RemappingEngine.run>`, called directly.
    """

    placement: PlacementConfig = field(default_factory=PlacementConfig)
    remap: Optional[RemapConfig] = None
    robust: Optional["RobustPlacementConfig"] = None


@dataclass
class EvaluationReport:
    """Test-week comparison of a baseline and an optimised placement.

    All power numbers come from the held-out week; budgets are provisioned
    from the *baseline* placement's peaks (the infrastructure predates the
    optimisation and is not changed by it).
    """

    peak_reduction: Dict[str, float]
    sum_of_peaks_before: Dict[str, float]
    sum_of_peaks_after: Dict[str, float]
    expansion: ExpansionPlan

    @property
    def extra_server_fraction(self) -> float:
        """The paper's "% more machines hosted" headline."""
        return self.expansion.expansion_fraction


@dataclass
class OptimizationOutcome:
    """Everything produced by one SmoothOperator run."""

    placement: Optional[PlacementResult] = None
    remap: Optional[RemapResult] = None
    robust: Optional["RobustPlacementResult"] = None

    @property
    def assignment(self) -> Assignment:
        if self.remap is not None:
            return self.remap.assignment
        if self.robust is not None:
            return self.robust.assignment
        if self.placement is None:
            raise ValueError("empty OptimizationOutcome has no assignment")
        return self.placement.assignment


class SmoothOperator:
    """Facade over placement + optional remapping + evaluation.

    Each stage reads a synthesized :class:`~repro.traces.synthesis.Fleet`'s
    training or test matrix in place; other records are copied once per
    stage (:func:`~repro.traces.synthesis.fleet_trace_set`).
    """

    def __init__(self, config: Optional[SmoothOperatorConfig] = None) -> None:
        self.config = config if config is not None else SmoothOperatorConfig()
        self._placer = WorkloadAwarePlacer(self.config.placement)

    # ------------------------------------------------------------------
    def optimize(
        self, records: Sequence[InstanceRecord], topology: PowerTopology
    ) -> OptimizationOutcome:
        """Derive the workload-aware placement (and optionally remap).

        With a ``robust`` config, the Γ-robust placer runs instead (its
        Γ = 0 fallback *is* the workload-aware placement) and any remap
        pass is seeded from the robust assignment.
        """
        with obs.span("pipeline.optimize", instances=len(records)):
            placement: Optional[PlacementResult] = None
            robust: Optional["RobustPlacementResult"] = None
            if self.config.robust is not None:
                from ..robust.placement import RobustPlacer

                robust = RobustPlacer(self.config.robust).place(records, topology)
                placement = robust.fallback
                base = robust.assignment
            else:
                placement = self._placer.place(records, topology)
                base = placement.assignment
            remap: Optional[RemapResult] = None
            if self.config.remap is not None:
                engine = RemappingEngine(self.config.remap)
                remap = engine.run(base, fleet_trace_set(records))
            return OptimizationOutcome(
                placement=placement, remap=remap, robust=robust
            )

    # ------------------------------------------------------------------
    @staticmethod
    def evaluate(
        records: Sequence[InstanceRecord],
        baseline: Assignment,
        optimized: Assignment,
        *,
        budget_margin: float = 0.0,
        use_test_week: bool = True,
        per_server_watts: Optional[float] = None,
    ) -> EvaluationReport:
        """Compare two placements on held-out traces (Sec. 5.1 protocol).

        Budgets are provisioned bottom-up from the baseline placement —
        leaves at observed peak × (1 + ``budget_margin``), internal nodes at
        the sum of their children (Sec. 2.1) — then the optimised
        placement's reduced peaks leave headroom that :func:`plan_expansion`
        converts into extra hostable servers.

        ``per_server_watts`` defaults to the fleet's mean per-instance peak.
        """
        with obs.span("pipeline.evaluate", instances=len(records)):
            traces = fleet_trace_set(records, test=use_test_week)
            topology = baseline.topology
            before = NodePowerView(topology, baseline, traces)
            after = NodePowerView(topology, optimized, traces)

            provision_hierarchical(before, margin=budget_margin)
            if per_server_watts is None:
                per_server_watts = float(traces.peaks().mean())
            expansion = plan_expansion(after, per_server_watts)

            return EvaluationReport(
                peak_reduction=peak_reduction_by_level(before, after),
                sum_of_peaks_before=before.sum_of_peaks_by_level(),
                sum_of_peaks_after=after.sum_of_peaks_by_level(),
                expansion=expansion,
            )
