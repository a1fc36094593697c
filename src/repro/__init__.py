"""SmoothOperator reproduction (ASPLOS 2018).

A power-fragmentation-aware service placement framework for multi-level
datacenter power infrastructure, plus the dynamic power profile reshaping
runtime that exploits the unlocked headroom.

Quickstart::

    from repro import (
        small_demo_spec, build_datacenter, SmoothOperator,
    )

    dc = build_datacenter(small_demo_spec())
    operator = SmoothOperator()
    outcome = operator.optimize(dc.records, dc.topology)
    report = operator.evaluate(dc.records, dc.baseline, outcome.assignment)
    print(report.peak_reduction)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results.
"""

from .baselines import (
    StatProfConfig,
    oblivious_placement,
    random_placement,
    round_robin_placement,
)
from .core import (
    GreedyPeakPlacer,
    PlacementConfig,
    RemapConfig,
    SmoothOperator,
    SmoothOperatorConfig,
    WorkloadAwarePlacer,
    asynchrony_score,
    balanced_kmeans,
    optimal_leaf_placement,
    pairwise_asynchrony,
    scoped_placement,
)
from .datasets import (
    Datacenter,
    DatacenterSpec,
    build_datacenter,
    dc1_spec,
    dc2_spec,
    dc3_spec,
    small_demo_spec,
)
from . import obs
from .infra import (
    Assignment,
    CappingSimulator,
    NodePowerView,
    PowerTopology,
    TopologySpec,
    build_topology,
    ocp_spec,
    plan_expansion,
)
from .reshaping import (
    ConversionPolicy,
    ReactiveConversionRuntime,
    ThrottleBoostPolicy,
    learn_conversion_threshold,
)
from .traces import (
    PowerTrace,
    ServiceProfile,
    TimeGrid,
    TraceSet,
    TraceSynthesizer,
)

__version__ = "12.1.0"

__all__ = [
    "__version__",
    # observability
    "obs",
    # traces
    "TimeGrid",
    "PowerTrace",
    "TraceSet",
    "TraceSynthesizer",
    "ServiceProfile",
    # infra
    "PowerTopology",
    "TopologySpec",
    "build_topology",
    "ocp_spec",
    "Assignment",
    "NodePowerView",
    "plan_expansion",
    "CappingSimulator",
    # core
    "asynchrony_score",
    "pairwise_asynchrony",
    "balanced_kmeans",
    "GreedyPeakPlacer",
    "optimal_leaf_placement",
    "scoped_placement",
    "PlacementConfig",
    "WorkloadAwarePlacer",
    "RemapConfig",
    "SmoothOperator",
    "SmoothOperatorConfig",
    # baselines
    "oblivious_placement",
    "random_placement",
    "round_robin_placement",
    "StatProfConfig",
    # reshaping
    "ConversionPolicy",
    "ThrottleBoostPolicy",
    "ReactiveConversionRuntime",
    "learn_conversion_threshold",
    # datasets
    "Datacenter",
    "DatacenterSpec",
    "build_datacenter",
    "dc1_spec",
    "dc2_spec",
    "dc3_spec",
    "small_demo_spec",
]
