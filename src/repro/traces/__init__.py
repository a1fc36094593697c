"""Time-series substrate: power traces, sampling grids, and synthesis.

This package implements Sec. 3.3 of the paper — instance power traces
(I-traces), multi-week averaging, and service power traces (S-traces) — plus
the synthetic telemetry generator that substitutes for production power
sensors (see DESIGN.md).
"""

from .forecast import (
    PredictabilityReport,
    mape,
    peak_error,
    peak_time_error_minutes,
    predictability_report,
    seasonal_naive_forecast,
)
from .io import (
    export_csv,
    import_csv,
    load_fleet,
    load_trace_set,
    save_fleet,
    save_trace_set,
)
from .perturbations import inject_outage, inject_surge, window_mask
from .grid import (
    MINUTES_PER_DAY,
    MINUTES_PER_HOUR,
    MINUTES_PER_WEEK,
    GridMismatchError,
    TimeGrid,
)
from .instance import (
    InstanceRecord,
    ServiceInstance,
    ServiceKind,
    average_instance_trace,
    group_by_service,
)
from .percentiles import (
    FIGURE6_BANDS,
    PercentileBand,
    band_summary,
    diurnal_range,
    percentile_bands,
)
from .profiles import (
    CANONICAL_PROFILES,
    ServiceProfile,
    Shape,
    cache_profile,
    db_profile,
    dev_profile,
    hadoop_profile,
    media_profile,
    search_profile,
    storage_profile,
    web_profile,
)
from .series import PowerTrace, normalize_traces
from .service import (
    build_service_traces,
    extract_basis_traces,
    service_power_trace,
    top_power_consumers,
    total_energy_by_service,
)
from .synthesis import (
    InstancePersonality,
    TraceSynthesizer,
    draw_personality,
    test_trace_set,
    training_trace_set,
)
from .traceset import TraceSet, add_rows, sum_rows

__all__ = [
    "seasonal_naive_forecast",
    "mape",
    "peak_error",
    "peak_time_error_minutes",
    "predictability_report",
    "PredictabilityReport",
    "save_trace_set",
    "load_trace_set",
    "save_fleet",
    "load_fleet",
    "export_csv",
    "import_csv",
    "inject_surge",
    "inject_outage",
    "window_mask",
    "MINUTES_PER_DAY",
    "MINUTES_PER_HOUR",
    "MINUTES_PER_WEEK",
    "GridMismatchError",
    "TimeGrid",
    "PowerTrace",
    "normalize_traces",
    "TraceSet",
    "add_rows",
    "sum_rows",
    "ServiceInstance",
    "ServiceKind",
    "InstanceRecord",
    "average_instance_trace",
    "group_by_service",
    "service_power_trace",
    "build_service_traces",
    "top_power_consumers",
    "total_energy_by_service",
    "extract_basis_traces",
    "ServiceProfile",
    "Shape",
    "CANONICAL_PROFILES",
    "web_profile",
    "cache_profile",
    "db_profile",
    "hadoop_profile",
    "search_profile",
    "dev_profile",
    "media_profile",
    "storage_profile",
    "TraceSynthesizer",
    "InstancePersonality",
    "draw_personality",
    "training_trace_set",
    "test_trace_set",
    "PercentileBand",
    "percentile_bands",
    "band_summary",
    "diurnal_range",
    "FIGURE6_BANDS",
]
