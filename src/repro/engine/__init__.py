"""The unified simulation core.

One :class:`Engine` runs every Sec. 4 scenario: the clean reshaping
modes, the same modes under injected faults, and the emergency capping
fallback.  Scenarios are described declaratively by
:class:`ScenarioSpec` / :class:`ChaosSpec`; :meth:`Engine.run` executes a
spec's mode directly, and :func:`run_many` fans specs out across
processes.  The golden parity suite in ``tests/engine/`` pins the results
bit for bit.
"""

from .delta import (  # noqa: F401  (import order: leaf modules first)
    FleetDelta,
    Move,
    PlacementState,
    dirty_nodes,
)
from .state import (  # noqa: F401
    FleetDescription,
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
    RecoveryReport,
    ServerFailureSchedule,
)
from .spec import (  # noqa: F401
    MODES,
    ChaosSpec,
    ScenarioSpec,
    chaos_spec,
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
    shard_ranges,
)

__all__ = [
    "BATCH_POOL",
    "CappingPolicy",
    "CappingReport",
    "CappingSimulator",
    "ChaosRunResult",
    "ChaosSpec",
    "ConversionFaultModel",
    "ConversionLog",
    "DEFAULT_PRIORITY",
    "Engine",
    "FailureEvent",
    "FleetDelta",
    "FleetDescription",
    "LC_POOL",
    "MODES",
    "MatrixHandle",
    "Move",
    "NodeCappingStats",
    "PlacementState",
    "RecoveryReport",
    "ReshapingComparison",
    "RunArtifacts",
    "RunFailure",
    "ScenarioResult",
    "ScenarioSpec",
    "ServerFailureSchedule",
    "SharedMatrix",
    "TaskDeadline",
    "TaskTimeoutError",
    "WorkerPool",
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
