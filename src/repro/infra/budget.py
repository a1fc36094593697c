"""Power-budget provisioning policies.

The paper never changes the physical infrastructure; budgets are fixed.  For
experiments we must *choose* those fixed budgets, and the natural choice —
the one the paper's "host more servers" arithmetic implies — is to provision
every node for the peak it sees under the *original* (oblivious) placement,
plus a safety margin.  Figure 11 additionally compares percentile-based
provisioning (StatProf) at several levels of aggressiveness.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping

from .aggregation import NodePowerView
from .topology import PowerTopology


@dataclass(frozen=True)
class PeakProvisioningPolicy:
    """Provision each node at ``peak × (1 + margin)``.

    ``margin`` models the safety headroom operators keep between observed
    peak and breaker limit.
    """

    margin: float = 0.0

    def __post_init__(self) -> None:
        if self.margin < 0:
            raise ValueError("margin cannot be negative")

    def budget_for(self, view: NodePowerView, node_name: str) -> float:
        return view.node_peak(node_name) * (1.0 + self.margin)


@dataclass(frozen=True)
class PercentileProvisioningPolicy:
    """Provision each node at the ``(100 - under_provision)``-th percentile
    of its aggregate trace, times ``(1 + margin)``.

    ``under_provision = u`` corresponds to the SmoOp(u, ·) configurations of
    Figure 11 (under-provisioning applied to the *aggregate* trace, unlike
    StatProf which applies it per instance before summing).
    """

    under_provision: float = 0.0
    margin: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.under_provision < 100:
            raise ValueError("under_provision must be in [0, 100)")
        if self.margin < 0:
            raise ValueError("margin cannot be negative")

    def budget_for(self, view: NodePowerView, node_name: str) -> float:
        q = 100.0 - self.under_provision
        return view.node_percentile(node_name, q) * (1.0 + self.margin)


@dataclass(frozen=True)
class GammaProvisioningPolicy:
    """Provision each node at its Γ-robust load × ``(1 + margin)``.

    The robust load is ``Σ p_c`` over the node's instances plus the sum of
    its top-Γ spike radii (Bertsimas–Sim): the budget survives any ``gamma``
    co-located instances spiking to ``p_c + p_r`` simultaneously.  ``model``
    is an :class:`repro.robust.uncertainty.UncertainPowerModel` (any object
    with a ``rows(ids) -> (nominal, radius)`` method works); at ``gamma = 0``
    this is plain Σ-nominal provisioning.
    """

    model: object
    gamma: int = 0
    margin: float = 0.0

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError("gamma cannot be negative")
        if self.margin < 0:
            raise ValueError("margin cannot be negative")

    def budget_for(self, view: NodePowerView, node_name: str) -> float:
        # Imported lazily: repro.robust sits above repro.infra in the
        # layering (it imports the topology/assignment machinery from here).
        from ..robust.headroom import robust_load

        members = view.members_under(node_name)
        if not members:
            return 0.0
        nominal, radius = self.model.rows(members)
        return robust_load(nominal, radius, self.gamma) * (1.0 + self.margin)


def compute_budgets(view: NodePowerView, policy) -> Dict[str, float]:
    """Budget for every node in the view's topology under ``policy``."""
    return {
        node.name: policy.budget_for(view, node.name)
        for node in view.topology.nodes()
    }


def apply_budgets(topology: PowerTopology, budgets: Mapping[str, float]) -> None:
    """Write budgets onto the topology's nodes (in place)."""
    for name, budget in budgets.items():
        if not 0 <= budget < math.inf:
            raise ValueError(f"budget for {name} must be finite and non-negative")
        topology.node(name).budget_watts = float(budget)


def provision_from_view(view: NodePowerView, *, margin: float = 0.0) -> Dict[str, float]:
    """Convenience: peak-provision every node from ``view`` and apply.

    Returns the budget mapping; also writes it onto the topology.
    """
    budgets = compute_budgets(view, PeakProvisioningPolicy(margin=margin))
    apply_budgets(view.topology, budgets)
    return budgets


def provision_hierarchical(
    view: NodePowerView, *, margin: float = 0.0
) -> Dict[str, float]:
    """Bottom-up provisioning: leaves at peak × (1+margin), parents at the
    sum of their children — "the power budget of each node is approximately
    the sum of the budgets of its children" (Sec. 2.1).

    This is the provisioning under which fragmentation manifests: every
    internal node holds budget its children cannot jointly use whenever
    their peaks are asynchronous.  Budgets are applied to the topology and
    returned.
    """
    if margin < 0:
        raise ValueError("margin cannot be negative")
    # Reverse pre-order meets every child before its parent.  A recursive
    # closure would refer to itself, a cycle that kept ``view`` alive until
    # the cyclic collector ran.
    budgets: Dict[str, float] = {}
    for node in reversed(view.topology.nodes()):
        if node.is_leaf:
            budgets[node.name] = view.node_peak(node.name) * (1.0 + margin)
        else:
            budgets[node.name] = sum(budgets[child.name] for child in node.children)
    apply_budgets(view.topology, budgets)
    return budgets


@contextmanager
def preserved_budgets(topology: PowerTopology) -> Iterator[None]:
    """Put every node's budget back as it was when the block exits.

    For code that provisions a shared topology (such as a cached
    datacenter's) for its own measurement only.  Unbudgeted nodes get
    ``None`` back; the restore runs on exceptions too.
    """
    saved = [(node, node.budget_watts) for node in topology.nodes()]
    try:
        yield
    finally:
        for node, budget in saved:
            node.budget_watts = budget
