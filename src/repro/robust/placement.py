"""Γ-robust service placement: spike radii spread by swaps.

The workload-aware placer in :mod:`repro.core.placement` minimises the
*nominal* aggregate peak by spreading asynchronous instances; it is blind
to spikes.  :class:`RobustPlacer` works towards a budget property: after
placement, every budgeted power node should absorb any ``Γ`` of its
instances spiking to ``p_c + p_r`` simultaneously without breaching its
budget.  :attr:`RobustPlacementResult.robust_headroom` measures how far
each node gets (negative where it does not).

The placer starts from the nominal workload-aware placement and runs a
swap loop over per-leaf :class:`~repro.robust.headroom.GammaAccountant`
state: repeatedly trade the largest radius on the most
protection-burdened leaf against a smaller radius of similar nominal
draw elsewhere.  Swapping (instead of moving) spreads spike risk while
preserving the balanced clean peaks the seed placement earned.

At ``Γ = 0`` there is nothing robust to protect, so the placer returns
the nominal workload-aware placement and its asynchrony-aware peak
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from .. import obs
from ..core.placement import PlacementConfig, PlacementResult, WorkloadAwarePlacer
from ..infra.assignment import Assignment
from ..infra.topology import PowerTopology
from ..traces.instance import InstanceRecord
from .headroom import GammaAccountant, RobustHeadroomIndex
from .uncertainty import DEFAULT_NOMINAL_PERCENTILE, UncertainPowerModel

__all__ = [
    "RobustPlacementConfig",
    "RobustPlacementResult",
    "RobustPlacer",
]


@dataclass(frozen=True)
class RobustPlacementConfig:
    """Tuning knobs for the Γ-robust placer.

    Attributes
    ----------
    gamma:
        Protection level: how many co-located instances may spike to their
        maximum simultaneously without breaching any budget.  ``0`` falls
        back to the nominal workload-aware placement.
    nominal_percentile / radius_scale:
        Forwarded to :meth:`UncertainPowerModel.from_records` when no
        model is supplied explicitly.
    swap_nominal_tolerance_watts:
        Maximum nominal-draw mismatch the swap loop accepts between
        exchanged instances (large values spread radii faster but perturb
        the clean peaks more).
    max_swaps:
        Hard cap on swap-loop iterations.
    nominal:
        Configuration for the underlying workload-aware placer (the Γ=0
        fallback, and the seed placement of the swap loop).
    """

    gamma: int = 0
    nominal_percentile: float = DEFAULT_NOMINAL_PERCENTILE
    radius_scale: float = 1.0
    swap_nominal_tolerance_watts: float = 100.0
    max_swaps: int = 1000
    nominal: PlacementConfig = field(default_factory=PlacementConfig)

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError("gamma cannot be negative")
        if self.swap_nominal_tolerance_watts < 0:
            raise ValueError("swap tolerance cannot be negative")
        if self.max_swaps < 0:
            raise ValueError("max_swaps cannot be negative")


@dataclass
class RobustPlacementResult:
    """A placement plus the uncertainty bookkeeping that produced it."""

    assignment: Assignment
    model: UncertainPowerModel
    gamma: int
    #: Live Γ-accountants for every node under the final assignment.
    index: RobustHeadroomIndex
    #: node name → budget − Γ-robust load, for every budgeted node
    #: (negative where Γ simultaneous spikes would breach the budget).
    robust_headroom: Dict[str, float]
    #: Diagnostics of the nominal fallback run, present only at Γ = 0.
    fallback: Optional[PlacementResult] = None
    #: Swap-loop iterations actually performed.
    n_swaps: int = 0

    def min_headroom(self) -> float:
        """Scarcest budgeted robust headroom (inf if nothing is budgeted)."""
        if not self.robust_headroom:
            return float("inf")
        return min(self.robust_headroom.values())


class RobustPlacer:
    """Nominal placement with spike radii spread by Γ-aware swaps."""

    def __init__(self, config: Optional[RobustPlacementConfig] = None) -> None:
        self.config = config if config is not None else RobustPlacementConfig()

    # ------------------------------------------------------------------
    def place(
        self,
        records: Sequence[InstanceRecord],
        topology: PowerTopology,
        *,
        model: Optional[UncertainPowerModel] = None,
    ) -> RobustPlacementResult:
        """Derive a Γ-robust assignment of ``records`` onto ``topology``.

        ``model`` overrides the trace-derived uncertainty model — useful
        for what-if studies with hardened radii.
        """
        if not records:
            raise ValueError("nothing to place")
        if model is None:
            model = UncertainPowerModel.from_records(
                records,
                nominal_percentile=self.config.nominal_percentile,
                radius_scale=self.config.radius_scale,
            )
        if self.config.gamma == 0:
            return self._place_nominal(records, topology, model)
        return self._place_swap(records, topology, model)

    # ------------------------------------------------------------------
    def _place_swap(
        self,
        records: Sequence[InstanceRecord],
        topology: PowerTopology,
        model: UncertainPowerModel,
    ) -> RobustPlacementResult:
        """Seed from the nominal placement, then spread radii by swapping.

        Moving an instance between leaves would shift its whole nominal
        draw and unbalance the clean peaks the workload-aware seed earned;
        *swapping* two instances of similar nominal draw moves spike risk
        while leaving both leaves' nominal profiles nearly untouched.  Each
        round takes the leaf with the heaviest protection burden and trades
        its largest radius against a smaller one elsewhere.

        The burden is ranked lexicographically by ``(top-Γ sum, Σ radii)``.
        The second term matters: a leaf holding Γ+1 large radii has the same
        top-Γ sum before and after shedding one of them, so a pure top-Γ
        objective would call that swap worthless and strand the surplus
        spike where it sits.
        """
        gamma = self.config.gamma
        tolerance = self.config.swap_nominal_tolerance_watts
        nominal_result = WorkloadAwarePlacer(self.config.nominal).place(
            records, topology
        )
        mapping = dict(nominal_result.assignment.as_mapping())
        with obs.span("robust_place", instances=len(records), gamma=gamma):
            accountants: Dict[str, GammaAccountant] = {}
            for iid, leaf_name in mapping.items():
                accountants.setdefault(leaf_name, GammaAccountant(gamma)).add(
                    iid, model.nominal_of(iid), model.radius_of(iid)
                )

            def burden(leaf_name: str) -> tuple:
                acc = accountants[leaf_name]
                return (acc.top_sum, acc.radius_sum)

            n_swaps = 0
            frozen: set = set()
            while n_swaps < self.config.max_swaps:
                live = [name for name in accountants if name not in frozen]
                if not live:
                    break
                worst_name = max(live, key=burden)
                worst = accountants[worst_name]
                movers = sorted(
                    worst.members, key=lambda m: -model.radius_of(m)
                )[: gamma + 1]
                best = None
                for i in movers:
                    radius_i = model.radius_of(i)
                    nominal_i = model.nominal_of(i)
                    for other_name, other in accountants.items():
                        if other_name == worst_name:
                            continue
                        for j in other.members:
                            radius_j = model.radius_of(j)
                            if radius_j >= radius_i:
                                continue
                            nominal_j = model.nominal_of(j)
                            if abs(nominal_j - nominal_i) > tolerance:
                                continue
                            before = max(burden(worst_name), burden(other_name))
                            worst.remove(i)
                            other.remove(j)
                            worst.add(j, nominal_j, radius_j)
                            other.add(i, nominal_i, radius_i)
                            after = max(burden(worst_name), burden(other_name))
                            worst.remove(j)
                            other.remove(i)
                            worst.add(i, nominal_i, radius_i)
                            other.add(j, nominal_j, radius_j)
                            if after < before:
                                gain = (
                                    before[0] - after[0],
                                    before[1] - after[1],
                                )
                                if best is None or gain > best[0]:
                                    best = (gain, i, other_name, j)
                if best is None:
                    frozen.add(worst_name)
                    continue
                _, i, other_name, j = best
                other = accountants[other_name]
                radius_i, nominal_i = model.radius_of(i), model.nominal_of(i)
                radius_j, nominal_j = model.radius_of(j), model.nominal_of(j)
                worst.remove(i)
                other.remove(j)
                worst.add(j, nominal_j, radius_j)
                other.add(i, nominal_i, radius_i)
                mapping[i] = other_name
                mapping[j] = worst_name
                n_swaps += 1

            index = RobustHeadroomIndex(topology, model, gamma)
            for iid, leaf_name in mapping.items():
                index.place(iid, leaf_name)
            obs.count("robust_place.instances_placed", len(records))
            obs.count("robust_place.swaps", n_swaps)
            headroom = {
                node.name: index.accountants[node.name].headroom(
                    node.budget_watts
                )
                for node in topology.nodes()
                if node.budget_watts is not None
            }
            return RobustPlacementResult(
                assignment=Assignment(topology, mapping),
                model=model,
                gamma=gamma,
                index=index,
                robust_headroom=headroom,
                n_swaps=n_swaps,
            )

    # ------------------------------------------------------------------
    def _place_nominal(
        self,
        records: Sequence[InstanceRecord],
        topology: PowerTopology,
        model: UncertainPowerModel,
    ) -> RobustPlacementResult:
        """Γ = 0: delegate to the workload-aware placer, keep the robust
        bookkeeping so callers see one result shape at every Γ."""
        nominal_result = WorkloadAwarePlacer(self.config.nominal).place(
            records, topology
        )
        index = RobustHeadroomIndex(topology, model, 0)
        for iid, leaf_name in nominal_result.assignment.as_mapping().items():
            index.place(iid, leaf_name)
        headroom = {
            node.name: index.accountants[node.name].headroom(node.budget_watts)
            for node in topology.nodes()
            if node.budget_watts is not None
        }
        return RobustPlacementResult(
            assignment=nominal_result.assignment,
            model=model,
            gamma=0,
            index=index,
            robust_headroom=headroom,
            fallback=nominal_result,
        )
