"""Observability: spans, metrics, telemetry, events, and one run document.

The substrate every perf-sensitive subsystem reports into:

* :mod:`repro.obs.spans` — a zero-dependency span tracer.  Instrumented
  code opens regions with ``obs.span("cluster")``; when a tracer is
  installed via :func:`tracing`, every end-to-end run yields a structured
  stage-by-stage profile (wall/CPU time per span, nested), and
  :func:`stage_timings` flattens it into one row per stage.  Installation
  and the open-span stack are thread-local.
* :mod:`repro.obs.metrics` — a process-global registry of counters,
  gauges, and histograms.  :func:`count` is always on and additionally
  attributes increments to the open span while profiling.
* :mod:`repro.obs.telemetry` — the power-tree flight recorder: compact
  numpy ring buffers of per-node utilization/slack/headroom/capped series
  keyed by topology path, plus sliding-window precursor detection.
* :mod:`repro.obs.events` — a structured, sequence-numbered event log
  (budget violations, breaker trips, conversions, throttle/boost, swap
  decisions, fault injections, advisories) with span correlation ids,
  serialisable as JSONL.
* :mod:`repro.obs.remote` — cross-process capture/ship/merge: pool tasks
  record into a private tracer/registry/log inside the worker, ship a
  :class:`~repro.obs.remote.TelemetryBundle` back with their result, and
  the coordinator merges everything into its live surfaces — one coherent
  span tree, metric set, and event log across process boundaries.  A
  worker opens a tracer or an event log only where the coordinator has
  one.
* :mod:`repro.obs.report` — :func:`json_document`, the one JSON record of
  a run (span forest, stage timings, metrics), and the run report read off
  its merged span tree: each pooled stage's ``pool.stage`` span and its
  worker task spans give per-worker utilization, shard imbalance, straggler
  shards and queue vs execution latency, rendered by ``smoothoperator
  report``.
"""

from . import events, remote, report, telemetry
from .events import Event, EventLog, emit, get_event_log
from .metrics import (
    Histogram,
    MetricsRegistry,
    count,
    counter_value,
    global_registry,
    observe,
    reset_metrics,
    set_gauge,
    snapshot_metrics,
)
from .remote import TelemetryBundle, merge_bundles
from .report import json_document, render_report
from .spans import Span, Tracer, current_span, get_tracer, span, stage_timings, tracing
from .telemetry import FlightRecorder, RingBuffer, record_delta, record_power, record_view

__all__ = [
    # spans
    "Span",
    "Tracer",
    "span",
    "tracing",
    "current_span",
    "get_tracer",
    "stage_timings",
    # metrics
    "Histogram",
    "MetricsRegistry",
    "count",
    "counter_value",
    "global_registry",
    "observe",
    "set_gauge",
    "snapshot_metrics",
    "reset_metrics",
    # events
    "Event",
    "EventLog",
    "emit",
    "get_event_log",
    "events",
    # telemetry
    "FlightRecorder",
    "RingBuffer",
    "record_delta",
    "record_power",
    "record_view",
    "telemetry",
    # remote (cross-process capture)
    "TelemetryBundle",
    "merge_bundles",
    "remote",
    # the run document and its run report
    "json_document",
    "render_report",
    "report",
]
