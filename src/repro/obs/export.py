"""Exporters: Prometheus text exposition and a merged JSON document.

Two ways out of the observability substrate:

* :func:`prometheus_text` renders the metrics registry (counters, gauges,
  histogram summaries) and the flight recorder's latest per-node values in
  the Prometheus text exposition format, ready to serve from a
  ``/metrics`` endpoint or push to a gateway.  :func:`parse_prometheus_text`
  is the matching line-format parser (used by tests to prove the output
  round-trips, and handy for scraping our own output).
* :func:`json_document` merges a traced run's span tree, stage timings,
  metrics snapshot, telemetry summaries, and event log into one
  machine-readable document — the superset of what ``smoothoperator
  profile --json`` emits.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from . import metrics as _metrics
from .events import EventLog
from .spans import Tracer, stage_timings
from .telemetry import FlightRecorder

__all__ = [
    "json_document",
    "parse_prometheus_text",
    "prometheus_text",
]

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_SANITIZER = re.compile(r"[^a-zA-Z0-9_]")

#: Histogram quantiles exposed as Prometheus summary lines.
_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


def _metric_name(name: str, prefix: str) -> str:
    sanitized = _NAME_SANITIZER.sub("_", name)
    return f"{prefix}_{sanitized}" if prefix else sanitized


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    return repr(float(value))


def prometheus_text(
    registry: Optional[_metrics.MetricsRegistry] = None,
    recorder: Optional[FlightRecorder] = None,
    *,
    prefix: str = "repro",
) -> str:
    """The registry (and optionally flight recorder) in exposition format.

    ``registry`` defaults to the process-global one.  Counters gain the
    conventional ``_total`` suffix; histograms render as summaries (count,
    sum, and ``quantile``-labelled lines); per-node telemetry renders as
    gauges labelled with the topology path.
    """
    registry = registry if registry is not None else _metrics.global_registry()
    lines: List[str] = []

    for name in sorted(registry.counters):
        metric = _metric_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(registry.counters[name])}")

    for name in sorted(registry.gauges):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(registry.gauges[name])}")

    for name in sorted(registry.histograms):
        histogram = registry.histograms[name]
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} summary")
        for quantile in _QUANTILES:
            value = histogram.percentile(quantile * 100.0) if histogram.count else 0.0
            lines.append(f'{metric}{{quantile="{quantile}"}} {_format_value(value)}')
        lines.append(f"{metric}_sum {_format_value(histogram.total)}")
        lines.append(f"{metric}_count {_format_value(histogram.count)}")

    if recorder is not None:
        summary = recorder.summary()
        series_names = sorted({name for node in summary.values() for name in node})
        for series in series_names:
            metric = _metric_name(f"node_{series}", prefix)
            lines.append(f"# TYPE {metric} gauge")
            for path in sorted(summary):
                stats = summary[path].get(series)
                if not stats or stats.get("count", 0) == 0:
                    continue
                label = _escape_label_value(path)
                lines.append(f'{metric}{{path="{label}"}} {_format_value(stats["last"])}')

    return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus_text(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse exposition-format text back into ``{(name, labels): value}``.

    Labels come out as a sorted tuple of ``(key, value)`` pairs (empty for
    unlabelled samples).  Comment/``# TYPE`` lines are skipped.  Raises
    ``ValueError`` on a malformed sample line, which is what makes this
    useful as a round-trip test of :func:`prometheus_text`.
    """
    sample = re.compile(
        r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
        r"(?:\{(?P<labels>[^}]*)\})?"
        r"\s+(?P<value>[^\s]+)\s*$"
    )
    label_pair = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
    out: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = sample.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {line!r}")
        labels: Tuple[Tuple[str, str], ...] = ()
        raw = match.group("labels")
        if raw:
            pairs = label_pair.findall(raw)
            labels = tuple(
                sorted(
                    (key, value.replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\"))
                    for key, value in pairs
                )
            )
        out[(match.group("name"), labels)] = float(match.group("value"))
    return out


def json_document(
    *,
    tracer: Optional[Tracer] = None,
    registry: Optional[_metrics.MetricsRegistry] = None,
    recorder: Optional[FlightRecorder] = None,
    events: Optional[EventLog] = None,
) -> Dict[str, object]:
    """One JSON-ready document merging every observability surface.

    Sections are only present for the surfaces supplied, so the document's
    top-level keys are stable per configuration: ``spans``/``stages`` for a
    tracer, ``metrics`` for a registry, ``telemetry`` for a recorder, and
    ``events`` (with per-kind counts) for an event log.
    """
    document: Dict[str, object] = {}
    if tracer is not None:
        document["spans"] = tracer.to_dict()["spans"]
        document["stages"] = stage_timings(tracer)
    if registry is not None:
        document["metrics"] = registry.snapshot()
    if recorder is not None:
        document["telemetry"] = recorder.to_dict()
    if events is not None:
        document["events"] = {
            "count": len(events),
            "by_kind": events.counts_by_kind(),
            "entries": [event.to_dict() for event in events],
        }
    return document
