"""The unified simulation core.

One :class:`Engine` runs every Sec. 4 scenario: the clean reshaping
modes, the same modes under injected faults, and the emergency capping
fallback.  Scenarios are described declaratively by
:class:`ScenarioSpec` / :class:`ChaosSpec`, executed by :meth:`Engine.run`
through a pipeline of :class:`Policy` / :class:`Actuator` plugins, and
fanned out across processes by :func:`run_many`.  The golden parity suite
in ``tests/engine/`` pins the results bit for bit.
"""

from .delta import (  # noqa: F401  (import order: leaf modules first)
    FleetDelta,
    Move,
    PlacementState,
    dirty_nodes,
)
from .state import (  # noqa: F401
    FleetDescription,
    FleetState,
    ReshapingComparison,
    RunArtifacts,
    ScenarioResult,
)
from .capping import (  # noqa: F401
    DEFAULT_PRIORITY,
    CappingPolicy,
    CappingReport,
    CappingSimulator,
    NodeCappingStats,
    compare_capping,
)
from .faults import (  # noqa: F401
    BATCH_POOL,
    LC_POOL,
    ChaosRunResult,
    ConversionFaultModel,
    ConversionLog,
    FailureEvent,
    PowerSpikeSchedule,
    RecoveryReport,
    ServerFailureSchedule,
    SpikeEvent,
)
from .policy import (  # noqa: F401
    Actuator,
    ConversionFaultPolicy,
    ConversionPlanPolicy,
    EmergencyCapping,
    Policy,
    PowerSpikePolicy,
    RunContext,
    ServerFailurePolicy,
    StaticFleetPolicy,
    ThrottleBoostPlan,
)
from .spec import (  # noqa: F401
    MODES,
    ChaosSpec,
    ScenarioSpec,
    build_pipeline,
    chaos_spec,
)
from .chaos_infra import (  # noqa: F401
    InfraFault,
    InjectedFault,
)
from .deadline import (  # noqa: F401
    TaskDeadline,
    TaskTimeoutError,
    deadline_scope,
    get_default_deadline,
)
from .core import Engine  # noqa: F401
from .parallel import (  # noqa: F401
    RunFailure,
    WorkerPool,
    execute,
    get_pool,
    run_many,
    shutdown_pools,
    warm_pool,
)
from .sharedmem import (  # noqa: F401
    MatrixHandle,
    SharedMatrix,
    SharedTraceSet,
    ShardSpec,
    shard_ranges,
)

__all__ = [
    "Actuator",
    "BATCH_POOL",
    "CappingPolicy",
    "CappingReport",
    "CappingSimulator",
    "ChaosRunResult",
    "ChaosSpec",
    "ConversionFaultModel",
    "ConversionFaultPolicy",
    "ConversionLog",
    "ConversionPlanPolicy",
    "DEFAULT_PRIORITY",
    "EmergencyCapping",
    "Engine",
    "FailureEvent",
    "FleetDelta",
    "FleetDescription",
    "FleetState",
    "InfraFault",
    "InjectedFault",
    "LC_POOL",
    "MODES",
    "MatrixHandle",
    "Move",
    "NodeCappingStats",
    "PlacementState",
    "Policy",
    "PowerSpikePolicy",
    "PowerSpikeSchedule",
    "RecoveryReport",
    "ReshapingComparison",
    "RunArtifacts",
    "RunContext",
    "RunFailure",
    "ScenarioResult",
    "ScenarioSpec",
    "ServerFailurePolicy",
    "ServerFailureSchedule",
    "ShardSpec",
    "SharedMatrix",
    "SharedTraceSet",
    "SpikeEvent",
    "StaticFleetPolicy",
    "TaskDeadline",
    "TaskTimeoutError",
    "ThrottleBoostPlan",
    "WorkerPool",
    "build_pipeline",
    "chaos_spec",
    "compare_capping",
    "deadline_scope",
    "dirty_nodes",
    "execute",
    "get_default_deadline",
    "get_pool",
    "run_many",
    "shard_ranges",
    "shutdown_pools",
    "warm_pool",
]
