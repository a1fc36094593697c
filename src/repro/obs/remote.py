"""Cross-process observability: capture in workers, ship, merge upstream.

Everything in :mod:`repro.obs` is process-local — a span tree, a metrics
registry, an event log all live and die with the process that recorded
them.  That made the shared-memory worker pool (:mod:`repro.engine.parallel`)
an observability black hole: a ``workers=8`` profile showed only the
coordinator's wall time, and every counter a shard incremented vanished
with the task.  This module closes the gap with a capture → ship → merge
pipeline:

* **capture** — a pool task runs inside :class:`capture`, which always
  routes its metrics into a private
  :class:`~repro.obs.metrics.MetricsRegistry`
  (via :class:`~repro.obs.metrics.capturing`) and times it, and installs a
  fresh thread-local :class:`~repro.obs.spans.Tracer` and a fresh
  :class:`~repro.obs.events.EventLog` only where the coordinator has one
  live (``trace`` / ``record``); otherwise it installs none, so a tracer or
  log the worker inherited at fork records nothing.  The instrumented code
  inside the task needs no changes;
* **ship** — on exit the capture serializes everything into a
  :class:`TelemetryBundle` (metric deltas, histogram states with their
  reservoirs, the task's wall and CPU time, plus span dicts and
  sequence-numbered events where it opened a tracer and a log), stamped
  with the worker pid and the shard id.  Bundles are plain picklable data;
  :func:`run_captured` is the worker-side driver that pairs a task's result
  with its bundle, and ships the bundle *even when the task raises* (the
  bundle rides back attached to the original exception — see
  :func:`bundle_from_error` — so error types and messages reach the
  coordinator unchanged);
* **merge** — the coordinator calls :func:`merge_bundles`, which sorts
  bundles by ``(shard id, attempt)`` (so completion order can never change
  the outcome), grafts each bundle's spans under the coordinator's open
  span (the stage's ``pool.stage`` span; worker span ids are re-allocated
  and event correlations are remapped to match), folds
  counters/gauges/histograms into the live registry, and re-emits events
  into the active log tagged with ``worker_pid`` and ``shard_id``.

So a worker observes only what its coordinator observes: a coordinator
with no tracer and no log receives the workers' metrics and the pool's
``pool.*`` histograms, and no worker opens a span or records an event.
"""

from __future__ import annotations

import os
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from . import events as _events
from . import metrics as _metrics
from . import spans as _spans

__all__ = [
    "BUNDLE_ATTR",
    "TelemetryBundle",
    "bundle_from_error",
    "capture",
    "merge_bundles",
    "run_captured",
]


@dataclass
class TelemetryBundle:
    """One task's complete telemetry, serialized for the trip upstream.

    Plain picklable data only: span trees as ``to_dict`` payloads, metric
    deltas as name→value maps, histograms as full mergeable states
    (:meth:`repro.obs.metrics.Histogram.to_state`), and events as
    ``to_dict`` payloads in emission order; ``spans`` and ``events`` stay
    empty where the coordinator had no tracer or no log.  ``shard_id`` and
    ``attempt`` make the coordinator's merge order deterministic whatever
    order tasks completed in; ``worker_pid`` tags every merged span and
    event with the process that produced it.  ``roundtrip_s`` is stamped
    by the coordinator when the bundle arrives.
    """

    shard_id: int
    label: str
    worker_pid: int
    attempt: int = 1
    wall_s: float = 0.0
    cpu_s: float = 0.0
    spans: List[Dict[str, object]] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, object]] = field(default_factory=dict)
    events: List[Dict[str, object]] = field(default_factory=list)
    error: Optional[Dict[str, str]] = None
    roundtrip_s: float = field(default=0.0, init=False)

    @property
    def failed(self) -> bool:
        return self.error is not None


#: Attribute name :func:`run_captured` uses to attach a failed task's
#: bundle to the exception it re-raises.  ``BaseException.__reduce__``
#: includes instance ``__dict__`` in the pickle, so the bundle survives the
#: trip back through a ``ProcessPoolExecutor`` while the exception keeps
#: its original type and message — retry logic and failure reporting never
#: see a wrapper.
BUNDLE_ATTR = "_telemetry_bundle"


def bundle_from_error(error: BaseException) -> Optional[TelemetryBundle]:
    """The telemetry bundle a failed captured task shipped, if any.

    ``None`` for failures no task raised (pool breakage, a watchdog kill)
    and for exceptions with a custom ``__reduce__`` that drops instance
    state."""
    bundle = getattr(error, BUNDLE_ATTR, None)
    return bundle if isinstance(bundle, TelemetryBundle) else None


class capture:
    """Record one task's telemetry into a shippable bundle (worker side).

    ::

        with capture(shard_id=3, label="remap.shard", trace=True, record=False) as cap:
            do_the_work()
        ship(cap.bundle)

    Always routes metric writes into a private registry and times the task
    with one root span named ``label``, carrying the shard id, worker pid
    and attempt.  ``trace`` and ``record`` say whether the coordinator has
    a tracer and an event log: with ``trace`` the root span is the
    installed tracer's, so everything the task traces nests under it and
    ships; without it the task runs with no tracer installed.  ``record``
    likewise installs a fresh event log or none.  On exit (normal or
    exceptional) the bundle is finalized; an exception is recorded in
    ``bundle.error``, on the root span (``meta["error"]``) and as a
    ``task_error`` event before it propagates, so failed tasks still ship
    their story.
    """

    __slots__ = (
        "bundle",
        "_trace",
        "_tracer",
        "_log",
        "_previous",
        "_capturing",
        "_span_context",
        "_root",
    )

    def __init__(
        self,
        shard_id: int = 0,
        label: str = "task",
        attempt: int = 1,
        *,
        trace: bool,
        record: bool,
    ) -> None:
        self.bundle = TelemetryBundle(
            shard_id=shard_id,
            label=label,
            worker_pid=os.getpid(),
            attempt=attempt,
        )
        self._trace = trace
        # The root span always times the task; its tracer is installed only
        # under ``trace``.
        self._tracer = _spans.Tracer()
        self._log = _events.EventLog() if record else None

    def __enter__(self) -> "capture":
        self._previous = (
            _spans._install(self._tracer if self._trace else None),
            _events._install(self._log),
        )
        self._capturing = _metrics.capturing()
        self._capturing.__enter__()
        self._span_context = self._tracer.span(
            self.bundle.label,
            shard=self.bundle.shard_id,
            pid=self.bundle.worker_pid,
            attempt=self.bundle.attempt,
        )
        self._root = self._span_context.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self._root.meta["error"] = f"{type(exc).__name__}: {exc}"
            _events.emit(
                _events.TASK_ERROR,
                severity="critical",
                source=self.bundle.label,
                shard=self.bundle.shard_id,
                error_type=type(exc).__name__,
                error=str(exc) or repr(exc),
            )
            self.bundle.error = {
                "type": type(exc).__name__,
                "message": str(exc) or repr(exc),
            }
        self._span_context.__exit__(exc_type, exc, tb)
        self._capturing.__exit__(exc_type, exc, tb)
        tracer, log = self._previous
        _spans._install(tracer)
        _events._install(log)
        self._finalize()
        return False

    # ------------------------------------------------------------------
    def _finalize(self) -> None:
        bundle = self.bundle
        registry = self._capturing.registry
        bundle.wall_s = self._root.wall_s
        bundle.cpu_s = self._root.cpu_s
        if self._trace:
            bundle.spans = [root.to_dict() for root in self._tracer.roots]
        bundle.counters = dict(registry.counters)
        bundle.gauges = dict(registry.gauges)
        bundle.histograms = {
            name: histogram.to_state()
            for name, histogram in registry.histograms.items()
        }
        if self._log is not None:
            bundle.events = [event.to_dict() for event in self._log]


def run_captured(
    fn,
    shard_id: int,
    label: str,
    attempt: int,
    args: Sequence,
    *,
    trace: bool,
    record: bool,
):
    """Worker-side driver: run ``fn(*args)`` under :class:`capture`.

    ``trace`` and ``record`` pass through to the capture.  Returns
    ``(result, bundle)`` on success.  On failure the original
    exception propagates unchanged except for the bundle attached under
    :data:`BUNDLE_ATTR` (plus the formatted worker traceback, for
    diagnosis) — the coordinator harvests the telemetry with
    :func:`bundle_from_error` while its retry logic and failure reporting
    keep seeing the true error type and message.
    """
    cap = capture(
        shard_id=shard_id, label=label, attempt=attempt, trace=trace, record=record
    )
    try:
        with cap:
            result = fn(*args)
    except Exception as error:  # noqa: BLE001 - annotated, never swallowed
        try:
            setattr(error, BUNDLE_ATTR, cap.bundle)
            error._worker_traceback = _traceback.format_exc()
        except Exception:  # pragma: no cover - slotted/frozen exceptions
            pass
        raise
    return result, cap.bundle


# ----------------------------------------------------------------------
# coordinator-side merge
# ----------------------------------------------------------------------
def merge_bundles(
    bundles: Sequence[TelemetryBundle],
    *,
    tracer: Optional[_spans.Tracer] = None,
    registry: Optional[_metrics.MetricsRegistry] = None,
    log: Optional[_events.EventLog] = None,
) -> None:
    """Fold shipped bundles into the coordinator's live surfaces.

    Defaults target whatever is live right now: the calling thread's
    installed tracer, the active metrics registry, and the active event
    log (each skipped when absent — metrics always merge, since a registry
    always exists).

    Bundles are first sorted by ``(shard_id, attempt)``, which makes every
    merged artifact — histogram reservoirs included — a pure function of
    the work done, not of the order tasks happened to complete in.  Spans
    are grafted under the innermost open coordinator span with fresh span
    ids; event ``span_id`` correlations are remapped onto the rebuilt tree
    and every event gains ``worker_pid`` and ``shard_id`` fields.
    """
    if not bundles:
        return
    tracer = tracer if tracer is not None else _spans.get_tracer()
    registry = registry if registry is not None else _metrics.global_registry()
    log = log if log is not None else _events.get_event_log()
    ordered = sorted(bundles, key=lambda b: (b.shard_id, b.attempt))
    for bundle in ordered:
        _merge_one(bundle, tracer, registry, log)


def _merge_one(
    bundle: TelemetryBundle,
    tracer: Optional[_spans.Tracer],
    registry: Optional[_metrics.MetricsRegistry],
    log: Optional[_events.EventLog],
) -> None:
    id_map: Dict[int, int] = {}
    if tracer is not None:
        for payload in bundle.spans:
            tracer.attach(_spans.Span.from_dict(payload, id_map=id_map))
    if registry is not None:
        for name in sorted(bundle.counters):
            registry.inc(name, bundle.counters[name])
        for name in sorted(bundle.gauges):
            registry.set_gauge(name, bundle.gauges[name])
        for name in sorted(bundle.histograms):
            shipped = _metrics.Histogram.from_state(bundle.histograms[name])
            registry.histogram(name).merge(shipped)
    if log is not None:
        for payload in bundle.events:
            fields = dict(payload.get("fields", {}))
            fields.setdefault("worker_pid", bundle.worker_pid)
            fields.setdefault("shard_id", bundle.shard_id)
            span_id = payload.get("span_id")
            log.append(
                _events.Event(
                    seq=int(payload["seq"]),
                    kind=str(payload["kind"]),
                    severity=str(payload.get("severity", "info")),
                    source=str(payload.get("source", "")),
                    fields=fields,
                    span_id=id_map.get(span_id) if span_id is not None else None,
                    span_path=payload.get("span_path"),
                )
            )
