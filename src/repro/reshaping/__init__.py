"""Dynamic power profile reshaping (Sec. 4).

History-based server conversion on storage-disaggregated servers, proactive
throttling and boosting of batch clusters, fleet and demand derivation, and
a reactive conversion controller.  The scenarios themselves run through
:class:`repro.engine.Engine`.
"""

from .conversion import ConversionPolicy
from .fleet import (
    aggregate_trace,
    derive_demand,
    describe_fleet,
    estimate_server_model,
    split_by_kind,
)
from .lconv import ThresholdPolicy, learn_conversion_threshold, threshold_from_slo
from .reactive import ReactiveConfig, ReactiveConversionRuntime
from .throttling import ThrottleBoostPolicy

__all__ = [
    "ReactiveConfig",
    "ReactiveConversionRuntime",
    "threshold_from_slo",
    "ThresholdPolicy",
    "learn_conversion_threshold",
    "ConversionPolicy",
    "ThrottleBoostPolicy",
    "split_by_kind",
    "estimate_server_model",
    "aggregate_trace",
    "describe_fleet",
    "derive_demand",
]
