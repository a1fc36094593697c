"""Structured event log: what the simulated power system *did*, in order.

Spans (:mod:`repro.obs.spans`) observe the code; this module observes the
system.  Instrumented sites — the reshaping runtime, the remapping swap
loop, the chaos harness, the breaker/capping infrastructure, the
fragmentation monitor — call :func:`emit` with a *kind* and free-form
fields; when a log is installed via :func:`recording`, every call appends
an :class:`Event` carrying a monotonic sequence number and, when a tracer
is active, the id and path of the innermost open span (so the JSONL log
can be joined back against the span-tree profile).  With no log installed,
:func:`emit` is a near-free no-op.

Canonical kinds (the constants below) cover the behaviours the paper cares
about: budget violations, breaker trips, conversion actions, throttle and
boost actions, swap accept/reject decisions, fault injections, capping
interventions, and monitoring advisories.

Typical use::

    from repro.obs import events

    with events.recording() as log:
        run_scenario()
    log.write("events.jsonl")
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Union

from . import spans as _spans

__all__ = [
    "ADVISORY",
    "BOOST",
    "BREAKER_TRIP",
    "CAPPING",
    "CONVERSION",
    "Event",
    "EventLog",
    "FAULT_INJECTION",
    "SWAP_ACCEPT",
    "SWAP_REJECT",
    "TASK_ERROR",
    "TASK_TIMEOUT",
    "THROTTLE",
    "VIOLATION",
    "emit",
    "get_event_log",
    "recording",
]

# ----------------------------------------------------------------------
# canonical event kinds
# ----------------------------------------------------------------------
VIOLATION = "violation"  # a node's aggregate power exceeded its budget
BREAKER_TRIP = "breaker_trip"  # the overload persisted long enough to trip
CONVERSION = "conversion"  # conversion servers changed pools
THROTTLE = "throttle"  # batch fleet throttled during LC-heavy Phase
BOOST = "boost"  # batch fleet boosted into slack
SWAP_ACCEPT = "swap_accept"  # remapping accepted an instance exchange
SWAP_REJECT = "swap_reject"  # remapping found no acceptable exchange
FAULT_INJECTION = "fault_injection"  # a chaos fault was applied
CAPPING = "capping"  # the capping loop shed power at a node
ADVISORY = "advisory"  # a precursor/monitoring finding, pre-violation
TASK_ERROR = "task_error"  # a pool task raised inside a worker process
TASK_TIMEOUT = "task_timeout"  # the watchdog killed a task past its deadline


@dataclass(frozen=True)
class Event:
    """One structured log entry.

    ``seq`` is monotonic within the log it was recorded into; ``span_id``
    and ``span_path`` tie the event to the innermost span open when it was
    emitted (``None`` outside any traced region).
    """

    seq: int
    kind: str
    severity: str  # "info" | "advisory" | "warning" | "critical"
    source: str  # emitting subsystem or topology path
    fields: Dict[str, object] = field(default_factory=dict)
    span_id: Optional[int] = None
    span_path: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "seq": self.seq,
            "kind": self.kind,
            "severity": self.severity,
            "source": self.source,
        }
        if self.fields:
            payload["fields"] = dict(self.fields)
        if self.span_id is not None:
            payload["span_id"] = self.span_id
        if self.span_path is not None:
            payload["span_path"] = self.span_path
        return payload


class EventLog:
    """An append-only, sequence-numbered list of :class:`Event` objects."""

    __slots__ = ("_events", "_seq")

    def __init__(self) -> None:
        self._events: List[Event] = []
        self._seq = 0

    # ------------------------------------------------------------------
    def emit(
        self,
        kind: str,
        *,
        severity: str = "info",
        source: str = "",
        **fields: object,
    ) -> Event:
        """Append one event, stamping sequence number and span correlation."""
        span_id: Optional[int] = None
        span_path: Optional[str] = None
        tracer = _spans.get_tracer()
        if tracer is not None:
            current = tracer.current()
            if current is not None:
                span_id = current.span_id
                span_path = "/".join(tracer.stack_names())
        self._seq += 1
        event = Event(
            seq=self._seq,
            kind=kind,
            severity=severity,
            source=source,
            fields=fields,
            span_id=span_id,
            span_path=span_path,
        )
        self._events.append(event)
        return event

    def append(self, event: Event) -> Event:
        """Append a pre-built event, restamping only its sequence number.

        Unlike :meth:`emit` this preserves the event's span correlation as
        given instead of sampling the coordinator's open span — it is the
        merge path for events shipped from worker processes, whose
        ``span_id`` has already been remapped onto the rebuilt span tree.
        """
        self._seq += 1
        stamped = Event(
            seq=self._seq,
            kind=event.kind,
            severity=event.severity,
            source=event.source,
            fields=dict(event.fields),
            span_id=event.span_id,
            span_path=event.span_path,
        )
        self._events.append(stamped)
        return stamped

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    @property
    def events(self) -> List[Event]:
        return list(self._events)

    def by_kind(self, kind: str) -> List[Event]:
        return [event for event in self._events if event.kind == kind]

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """The whole log as JSON Lines (one compact object per event)."""
        return "\n".join(
            json.dumps(event.to_dict(), sort_keys=True, default=str)
            for event in self._events
        )

    def write(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the JSONL log to ``path`` (trailing newline included)."""
        path = pathlib.Path(path)
        text = self.to_jsonl()
        path.write_text(text + "\n" if text else "")
        return path


# ----------------------------------------------------------------------
# module-level API: a process-global active log
#
# Unlike the tracer the event log is process-global, not thread-local: the
# system-level record should interleave every worker's events in one
# sequence.  ``list.append`` is atomic under the GIL, so concurrent emits
# are safe (sequence numbers may race only across threads, never within
# one).
# ----------------------------------------------------------------------
_ACTIVE: Optional[EventLog] = None


def get_event_log() -> Optional[EventLog]:
    """The currently installed event log, if recording is on."""
    return _ACTIVE


def _install(log: Optional[EventLog]) -> Optional[EventLog]:
    """Make ``log`` the active event log (``None``: none).

    Returns the log it replaces, for the caller to restore.
    """
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, log
    return previous


def emit(
    kind: str, *, severity: str = "info", source: str = "", **fields: object
) -> Optional[Event]:
    """Emit to the active log (cheap no-op returning ``None`` when none)."""
    log = _ACTIVE
    if log is None:
        return None
    return log.emit(kind, severity=severity, source=source, **fields)


class recording:
    """Install an event log as the process-global active log.

    ::

        with events.recording() as log:
            run_scenario()
        log.write("events.jsonl")

    Nesting restores the previously active log on exit.
    """

    __slots__ = ("log", "_previous")

    def __init__(self, log: Optional[EventLog] = None) -> None:
        self.log = log if log is not None else EventLog()
        self._previous: Optional[EventLog] = None

    def __enter__(self) -> EventLog:
        self._previous = _install(self.log)
        return self.log

    def __exit__(self, exc_type, exc, tb) -> bool:
        _install(self._previous)
        return False
