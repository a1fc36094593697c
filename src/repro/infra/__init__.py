"""Power infrastructure substrate: topology, placement, aggregation, budgets.

Models the multi-level power delivery tree of Sec. 2.1 (Figure 2) together
with the bookkeeping the paper's analysis needs: instance→leaf assignments,
per-node aggregate traces, provisioning policies, headroom-driven expansion,
and circuit-breaker auditing.
"""

from .aggregation import NodePowerView, peak_reduction_by_level

# The capping loop lives in repro.engine.capping, next to the emergency
# fallback that drives it; re-exported here with the rest of the substrate.
from ..engine.capping import (
    CappingPolicy,
    CappingReport,
    CappingSimulator,
    NodeCappingStats,
    compare_capping,
)
from .persistence import (
    load_assignment,
    load_topology,
    save_assignment,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from .assignment import Assignment, AssignmentError
from .breaker import BreakerModel, BreakerTrip, audit_view, power_safe
from .budget import (
    GammaProvisioningPolicy,
    PeakProvisioningPolicy,
    PercentileProvisioningPolicy,
    apply_budgets,
    compute_budgets,
    preserved_budgets,
    provision_from_view,
    provision_hierarchical,
)
from .builder import LevelSpec, TopologySpec, build_topology, ocp_spec, two_level_spec
from .headroom import ExpansionPlan, HeadroomIndex, node_headroom, plan_expansion
from .topology import Level, PowerNode, PowerTopology, TopologyError

__all__ = [
    "CappingPolicy",
    "CappingReport",
    "CappingSimulator",
    "NodeCappingStats",
    "compare_capping",
    "save_topology",
    "load_topology",
    "save_assignment",
    "load_assignment",
    "topology_to_dict",
    "topology_from_dict",
    "Level",
    "PowerNode",
    "PowerTopology",
    "TopologyError",
    "LevelSpec",
    "TopologySpec",
    "build_topology",
    "ocp_spec",
    "two_level_spec",
    "Assignment",
    "AssignmentError",
    "NodePowerView",
    "peak_reduction_by_level",
    "GammaProvisioningPolicy",
    "PeakProvisioningPolicy",
    "PercentileProvisioningPolicy",
    "compute_budgets",
    "apply_budgets",
    "preserved_budgets",
    "provision_from_view",
    "provision_hierarchical",
    "ExpansionPlan",
    "HeadroomIndex",
    "node_headroom",
    "plan_expansion",
    "BreakerModel",
    "BreakerTrip",
    "audit_view",
    "power_safe",
]
