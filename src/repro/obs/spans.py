"""Zero-dependency span tracer: nested timed regions with counters.

A :class:`Tracer` records a tree of :class:`Span` objects — one per
``with obs.span("name"):`` region — capturing wall-clock and CPU time plus
arbitrary per-span counters.  Instrumentation sites call the module-level
:func:`span` helper, which is a near-free no-op unless a tracer has been
installed with :func:`tracing`; the hot paths therefore pay almost nothing
when nobody is profiling.

Typical use::

    from repro import obs

    with obs.tracing() as tracer:
        with obs.span("place", instances=len(records)):
            ...
    print(tracer.render())
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "current_span",
    "get_tracer",
    "span",
    "stage_timings",
    "tracing",
]

#: Process-wide span id allocator: every opened span gets a unique id the
#: structured event log (:mod:`repro.obs.events`) uses for correlation.
_SPAN_IDS = itertools.count(1)


class Span:
    """One traced region: name, timings, counters, and child spans."""

    __slots__ = (
        "name",
        "span_id",
        "meta",
        "counters",
        "children",
        "wall_s",
        "cpu_s",
        "calls",
        "_start_wall",
        "_start_cpu",
    )

    def __init__(self, name: str, meta: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        #: Process-unique id; event-log entries reference it.
        self.span_id = next(_SPAN_IDS)
        self.meta: Dict[str, object] = dict(meta) if meta else {}
        self.counters: Dict[str, float] = {}
        self.children: List["Span"] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        #: Number of regions merged into this span (1 unless merged).
        self.calls = 1
        self._start_wall = 0.0
        self._start_cpu = 0.0

    # ------------------------------------------------------------------
    def add(self, name: str, value: float = 1.0) -> None:
        """Increment a counter attributed to this span."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in this subtree (depth-first), if any."""
        for candidate in self.walk():
            if candidate.name == name:
                return candidate
        return None

    def subtree_counters(self) -> Dict[str, float]:
        """Counters aggregated over this span and every descendant."""
        totals: Dict[str, float] = {}
        for node in self.walk():
            for key, value in node.counters.items():
                totals[key] = totals.get(key, 0.0) + value
        return totals

    def self_wall_s(self) -> float:
        """Wall time spent in this span excluding child spans."""
        return max(0.0, self.wall_s - sum(c.wall_s for c in self.children))

    def merged_children(self) -> List["Span"]:
        """Children grouped by name: same-named siblings become one span.

        Merged spans sum wall/CPU time and counters and carry ``calls``
        equal to the number of regions collapsed; their children are merged
        recursively.  Keeps reports for per-node loops (a placement visits
        dozens of tree nodes) readable.
        """
        order: List[str] = []
        grouped: Dict[str, List[Span]] = {}
        for child in self.children:
            if child.name not in grouped:
                order.append(child.name)
                grouped[child.name] = []
            grouped[child.name].append(child)
        return [_merge_spans(grouped[name]) for name in order]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation of the subtree."""
        payload: Dict[str, object] = {
            "name": self.name,
            "span_id": self.span_id,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "calls": self.calls,
        }
        if self.meta:
            payload["meta"] = dict(self.meta)
        if self.counters:
            payload["counters"] = dict(self.counters)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    @classmethod
    def from_dict(
        cls,
        payload: Dict[str, object],
        *,
        id_map: Optional[Dict[int, int]] = None,
    ) -> "Span":
        """Rebuild a completed span subtree from :meth:`to_dict` output.

        Every rebuilt span gets a *fresh* ``span_id`` from this process's
        allocator — ids are only unique per process, and a span shipped from
        a worker must not collide with the coordinator's.  ``id_map``
        (optional, filled in place) records ``original id -> new id`` so
        callers can remap event correlations shipped alongside the spans.
        """
        span = cls(str(payload["name"]), payload.get("meta"))  # type: ignore[arg-type]
        if id_map is not None and "span_id" in payload:
            id_map[int(payload["span_id"])] = span.span_id  # type: ignore[arg-type]
        span.wall_s = float(payload.get("wall_s", 0.0))  # type: ignore[arg-type]
        span.cpu_s = float(payload.get("cpu_s", 0.0))  # type: ignore[arg-type]
        span.calls = int(payload.get("calls", 1))  # type: ignore[arg-type]
        counters = payload.get("counters")
        if counters:
            span.counters = {str(k): float(v) for k, v in counters.items()}  # type: ignore[union-attr]
        for child in payload.get("children", ()):  # type: ignore[union-attr]
            span.children.append(cls.from_dict(child, id_map=id_map))
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, wall={self.wall_s:.4f}s, children={len(self.children)})"


def _merge_spans(group: List[Span]) -> Span:
    if len(group) == 1:
        single = group[0]
        merged = Span(single.name, single.meta)
        merged.counters = dict(single.counters)
        merged.wall_s = single.wall_s
        merged.cpu_s = single.cpu_s
        merged.calls = single.calls
        merged.children = single.merged_children()
        return merged
    merged = Span(group[0].name)
    merged.calls = 0
    carrier = Span(group[0].name)  # temporary parent to merge grandchildren
    for member in group:
        merged.wall_s += member.wall_s
        merged.cpu_s += member.cpu_s
        merged.calls += member.calls
        for key, value in member.counters.items():
            merged.counters[key] = merged.counters.get(key, 0.0) + value
        carrier.children.extend(member.children)
    merged.children = carrier.merged_children()
    return merged


class _SpanContext:
    """Context manager opening one span on a tracer (no generator overhead)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        span = self._span
        stack = self._tracer._stack
        if stack:
            stack[-1].children.append(span)
        else:
            self._tracer.roots.append(span)
        stack.append(span)
        span._start_cpu = time.process_time()
        span._start_wall = time.perf_counter()
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.wall_s = time.perf_counter() - span._start_wall
        span.cpu_s = time.process_time() - span._start_cpu
        stack = self._tracer._stack
        if stack and stack[-1] is span:
            stack.pop()
        return False


class Tracer:
    """Collects a forest of spans for one profiled run.

    The open-span *stack* is thread-local: each thread nests its own spans
    independently, so two threads tracing concurrently (each with its own
    :func:`tracing` context, or even sharing one tracer) cannot corrupt each
    other's trees.  The recorded forest itself assumes a single writer per
    tree: a span's ``children`` list is only ever appended to by the thread
    that opened it, and ``roots`` appends are atomic under the GIL — so a
    shared tracer yields one interleaving-free subtree per thread, but the
    report should be rendered only after all writers are done.
    """

    __slots__ = ("roots", "_local")

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._local = threading.local()

    @property
    def _stack(self) -> List[Span]:
        """This thread's open-span stack (created lazily per thread)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    def span(self, name: str, **meta: object) -> _SpanContext:
        """Open a new span nested under the currently active one."""
        return _SpanContext(self, Span(name, meta or None))

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack
        return stack[-1] if stack else None

    def stack_names(self) -> List[str]:
        """Names of the calling thread's open spans, outermost first."""
        return [span.name for span in self._stack]

    def add(self, name: str, value: float = 1.0) -> None:
        """Increment a counter on the innermost open span (no-op otherwise)."""
        stack = self._stack
        if stack:
            stack[-1].add(name, value)

    def attach(self, span: Span) -> None:
        """Graft a *completed* span subtree into the live tree.

        The span becomes a child of the calling thread's innermost open
        span (or a new root when none is open).  This is how the
        cross-process merge layer (:mod:`repro.obs.remote`) hangs a worker
        task's span tree under the coordinator span that dispatched it.
        """
        stack = self._stack
        if stack:
            stack[-1].children.append(span)
        else:
            self.roots.append(span)

    def find(self, name: str) -> Optional[Span]:
        """First span named ``name`` across all recorded roots."""
        for root in self.roots:
            found = root.find(name)
            if found is not None:
                return found
        return None

    def walk(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()

    def to_dict(self) -> Dict[str, object]:
        return {"spans": [root.to_dict() for root in self.roots]}

    # ------------------------------------------------------------------
    def render(self, *, merge_siblings: bool = True) -> str:
        """A human-readable span-tree report.

        With ``merge_siblings`` (default), same-named siblings collapse into
        one line with a ``xN`` call count — per-node loops stay readable.
        """
        lines = ["span tree (wall / cpu)"]
        roots = self.roots
        if merge_siblings:
            carrier = Span("")
            carrier.children = roots
            roots = carrier.merged_children()
        for root in roots:
            _render_span(root, 0, lines)
        return "\n".join(lines)


def stage_timings(tracer: Tracer) -> List[Dict[str, object]]:
    """Per-stage rows from a traced run, one per distinct span name.

    Same-named spans anywhere in the forest merge: wall/CPU times and
    counters sum, ``calls`` counts the regions merged.  Rows come out in
    first-seen (execution) order.
    """
    order: List[str] = []
    merged: Dict[str, Span] = {}
    for span in tracer.walk():
        row = merged.get(span.name)
        if row is None:
            row = merged[span.name] = Span(span.name)
            row.calls = 0
            order.append(span.name)
        row.wall_s += span.wall_s
        row.cpu_s += span.cpu_s
        row.calls += span.calls
        for key, value in span.counters.items():
            row.counters[key] = row.counters.get(key, 0.0) + value
    rows: List[Dict[str, object]] = []
    for name in order:
        span = merged[name]
        row: Dict[str, object] = {
            "stage": name,
            "wall_s": span.wall_s,
            "cpu_s": span.cpu_s,
            "calls": span.calls,
        }
        if span.counters:
            row["counters"] = dict(span.counters)
        rows.append(row)
    return rows


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def _render_span(span: Span, depth: int, lines: List[str]) -> None:
    label = "  " * depth + span.name
    timing = f"{_format_seconds(span.wall_s)} / {_format_seconds(span.cpu_s)}"
    if span.calls > 1:
        timing += f"  x{span.calls}"
    extras = []
    if span.meta:
        extras.append(", ".join(f"{k}={v}" for k, v in sorted(span.meta.items())))
    if span.counters:
        extras.append(
            ", ".join(f"{k}={int(v) if float(v).is_integer() else v}" for k, v in sorted(span.counters.items()))
        )
    suffix = f"  [{'; '.join(extras)}]" if extras else ""
    lines.append(f"{label:<42} {timing}{suffix}")
    for child in span.children:
        _render_span(child, depth + 1, lines)


# ----------------------------------------------------------------------
# module-level API: a thread-local active tracer
#
# Each thread installs and sees its own tracer, so concurrent ``tracing()``
# contexts in different threads profile independently.  A tracer installed
# in one thread is deliberately invisible to others — share the Tracer
# object explicitly (it keeps per-thread stacks) to profile worker threads.
# ----------------------------------------------------------------------
_TLS = threading.local()


class _NoopSpan:
    """Stand-in yielded by :func:`span` when no tracer is active."""

    __slots__ = ()
    name = ""
    counters: Dict[str, float] = {}
    children: List[Span] = []

    def add(self, name: str, value: float = 1.0) -> None:
        return None


class _NoopContext:
    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return _NOOP_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()
_NOOP_CONTEXT = _NoopContext()


def span(name: str, **meta: object):
    """Open a traced region on the active tracer (cheap no-op when none)."""
    tracer = getattr(_TLS, "tracer", None)
    if tracer is None:
        return _NOOP_CONTEXT
    return tracer.span(name, **meta)


def get_tracer() -> Optional[Tracer]:
    """The calling thread's installed tracer, if profiling is on."""
    return getattr(_TLS, "tracer", None)


def _install(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Make ``tracer`` the calling thread's active tracer (``None``: none).

    Returns the tracer it replaces, for the caller to restore.
    """
    previous = getattr(_TLS, "tracer", None)
    _TLS.tracer = tracer
    return previous


def current_span() -> Optional[Span]:
    """The innermost open span of the active tracer, if any."""
    tracer = getattr(_TLS, "tracer", None)
    return tracer.current() if tracer is not None else None


class tracing:
    """Install a tracer as the calling thread's active tracer.

    ::

        with obs.tracing() as tracer:
            run_pipeline()
        print(tracer.render())

    Nesting restores the previously active tracer on exit.  Installation is
    thread-local: two threads may each run their own ``tracing()`` context
    concurrently without seeing each other's spans.
    """

    __slots__ = ("tracer", "_previous")

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self._previous = _install(self.tracer)
        return self.tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        _install(self._previous)
        return False
