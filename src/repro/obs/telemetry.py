"""Per-power-node flight recorder: compact time series + precursor alerts.

The paper's argument lives inside the power tree — node-level utilization,
headroom, and budget-violation behaviour over time (Sec. 2-4).  This module
records exactly that during simulated runs: a :class:`FlightRecorder` keeps
one numpy ring buffer per ``(topology path, series)`` pair, so memory stays
bounded however long a scenario runs, and :func:`record_power` turns a
node's power trace + budget into the four canonical series

* ``utilization`` — power / budget;
* ``slack``       — budget - power (Eq. 1, instantaneous);
* ``headroom``    — budget - running peak (what is still provisionable);
* ``capped``      — min(power, budget) (what the node could actually draw),

emitting a :data:`~repro.obs.events.VIOLATION` event per contiguous
over-budget run and, via sliding-window trend **precursor detection**, an
:data:`~repro.obs.events.ADVISORY` event when utilization is heading for
the budget before it gets there.

Everything is a near-free no-op unless a recorder is installed with
:func:`recording` (and events only flow when an event log is installed).

Typical use::

    from repro.obs import events, telemetry

    with telemetry.recording() as recorder, events.recording() as log:
        run_scenario()
    print(recorder.summary())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import events as _events

__all__ = [
    "FlightRecorder",
    "Precursor",
    "PrecursorConfig",
    "RingBuffer",
    "detect_precursors",
    "get_recorder",
    "record",
    "record_power",
    "record_view",
    "recording",
]

#: Canonical per-node series names recorded by :func:`record_power`.
SERIES_NAMES: Tuple[str, ...] = ("utilization", "slack", "headroom", "capped")


class RingBuffer:
    """A fixed-capacity numpy ring buffer of float samples.

    Appends are O(1); :meth:`array` returns the retained window in
    chronological order.  ``n_total`` counts every sample ever written, so
    summaries can report how much history the window dropped.
    """

    __slots__ = ("capacity", "_data", "_pos", "_total")

    def __init__(self, capacity: int = 2048) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data = np.empty(capacity, dtype=np.float64)
        self._pos = 0
        self._total = 0

    # ------------------------------------------------------------------
    def append(self, value: float) -> None:
        self._data[self._pos] = value
        self._pos = (self._pos + 1) % self.capacity
        self._total += 1

    def extend(self, values: np.ndarray) -> None:
        """Append a whole array (vectorised; only the tail can survive)."""
        values = np.asarray(values, dtype=np.float64).ravel()
        n = len(values)
        if n == 0:
            return
        if n >= self.capacity:
            # Only the last ``capacity`` samples fit; realign to position 0.
            self._data[:] = values[n - self.capacity :]
            self._pos = 0
        else:
            first = min(n, self.capacity - self._pos)
            self._data[self._pos : self._pos + first] = values[:first]
            if first < n:
                self._data[: n - first] = values[first:]
            self._pos = (self._pos + n) % self.capacity
        self._total += n

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return min(self._total, self.capacity)

    @property
    def n_total(self) -> int:
        """Samples ever written (≥ ``len(self)`` once the window wraps)."""
        return self._total

    def array(self) -> np.ndarray:
        """The retained window, oldest sample first."""
        if self._total < self.capacity:
            return self._data[: self._pos].copy()
        return np.concatenate([self._data[self._pos :], self._data[: self._pos]])

    def last(self) -> float:
        if self._total == 0:
            raise ValueError("ring buffer is empty")
        return float(self._data[(self._pos - 1) % self.capacity])

    def summary(self) -> Dict[str, float]:
        """Moments of the retained window plus the total written count."""
        window = self.array()
        if len(window) == 0:
            return {"count": 0}
        return {
            "count": int(self._total),
            "retained": int(len(window)),
            "last": float(window[-1]),
            "min": float(window.min()),
            "max": float(window.max()),
            "mean": float(window.mean()),
        }


class FlightRecorder:
    """Ring-buffered time series keyed by ``(topology path, series name)``."""

    __slots__ = ("capacity", "_series")

    def __init__(self, capacity: int = 2048) -> None:
        self.capacity = capacity
        self._series: Dict[Tuple[str, str], RingBuffer] = {}

    # ------------------------------------------------------------------
    def buffer(self, path: str, name: str) -> RingBuffer:
        """The ring buffer for one series, created on first use."""
        key = (path, name)
        buffer = self._series.get(key)
        if buffer is None:
            buffer = self._series[key] = RingBuffer(self.capacity)
        return buffer

    def record(self, path: str, name: str, values) -> None:
        """Append a scalar or an array of samples to one node series."""
        buffer = self.buffer(path, name)
        if np.isscalar(values):
            buffer.append(float(values))
        else:
            buffer.extend(np.asarray(values, dtype=np.float64))

    # ------------------------------------------------------------------
    def paths(self) -> List[str]:
        """Distinct topology paths recorded so far, in first-seen order."""
        seen: List[str] = []
        for path, _ in self._series:
            if path not in seen:
                seen.append(path)
        return seen

    def names(self, path: str) -> List[str]:
        return [name for p, name in self._series if p == path]

    def series(self, path: str, name: str) -> np.ndarray:
        """The retained window of one series (KeyError if never recorded)."""
        return self._series[(path, name)].array()

    def summary(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """``{path: {series: window moments}}`` for everything recorded."""
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        for (path, name), buffer in self._series.items():
            out.setdefault(path, {})[name] = buffer.summary()
        return out


# ----------------------------------------------------------------------
# precursor detection: utilization trending toward the budget
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PrecursorConfig:
    """Sliding-window trend detection parameters.

    A precursor fires at step ``t`` when the node is *not yet* violating
    (``utilization < ceiling``) but either (a) the least-squares slope over
    the trailing ``window`` samples projects utilization crossing
    ``ceiling`` within ``horizon`` further samples, or (b) utilization has
    already entered the warning band ``>= warning_fraction * ceiling``.
    Consecutive firing steps collapse into one precursor (the run start).
    """

    window: int = 12
    horizon: int = 12
    ceiling: float = 1.0
    warning_fraction: float = 0.95

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window must be at least 2 samples")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.ceiling <= 0:
            raise ValueError("ceiling must be positive")
        if not 0 < self.warning_fraction <= 1:
            raise ValueError("warning_fraction must be in (0, 1]")


@dataclass(frozen=True)
class Precursor:
    """One pre-violation finding on a utilization series."""

    index: int
    utilization: float
    slope_per_step: float
    projected: float
    reason: str  # "trend" or "warning_band"


def _rolling_slope(values: np.ndarray, window: int) -> np.ndarray:
    """Least-squares slope of each trailing window (vectorised).

    Entry ``t`` is the slope fit over ``values[t - window + 1 : t + 1]``;
    the first ``window - 1`` entries are zero (not enough history).
    """
    n = len(values)
    slopes = np.zeros(n)
    if n < window:
        return slopes
    x = np.arange(window, dtype=np.float64)
    x_mean = x.mean()
    x_var = float(((x - x_mean) ** 2).sum())
    kernel = (x - x_mean)[::-1]  # newest sample gets the largest weight
    # cov(x, y) over each trailing window via correlation with the centered
    # x kernel: sum_k (x_k - x̄) y_{t-window+1+k}.
    cov = np.convolve(values, kernel, mode="valid")
    slopes[window - 1 :] = cov / x_var
    return slopes


def detect_precursors(
    utilization: np.ndarray, config: Optional[PrecursorConfig] = None
) -> List[Precursor]:
    """Pre-violation findings over one node's utilization series."""
    config = config if config is not None else PrecursorConfig()
    utilization = np.asarray(utilization, dtype=np.float64)
    slopes = _rolling_slope(utilization, config.window)
    projected = utilization + slopes * config.horizon
    below = utilization < config.ceiling
    trending = below & (slopes > 0) & (projected >= config.ceiling)
    banded = below & (utilization >= config.warning_fraction * config.ceiling)
    firing = trending | banded
    previous = np.zeros_like(firing)
    previous[1:] = firing[:-1]
    return [
        Precursor(
            index=index,
            utilization=float(utilization[index]),
            slope_per_step=float(slopes[index]),
            projected=float(projected[index]),
            reason="trend" if trending[index] else "warning_band",
        )
        for index in np.flatnonzero(firing & ~previous).tolist()
    ]


# ----------------------------------------------------------------------
# the canonical per-node recording hook
# ----------------------------------------------------------------------
def record_power(
    path: str,
    power: np.ndarray,
    budget_watts: float,
    *,
    step_minutes: float = 1.0,
    source: str = "",
    precursors: Optional[PrecursorConfig] = None,
) -> None:
    """Record one node's power trace against its budget.

    Feeds the four canonical series into the active flight recorder, emits
    one ``violation`` event per contiguous over-budget run, and emits an
    ``advisory`` event per detected precursor.  A no-op when neither a
    recorder nor an event log is installed, so instrumented hot paths pay
    ~nothing by default.
    """
    recorder = _RECORDER
    log = _events.get_event_log()
    if recorder is None and log is None:
        return
    if budget_watts <= 0:
        return
    power = np.asarray(power, dtype=np.float64)
    utilization = power / budget_watts
    source = source or path

    if recorder is not None:
        recorder.record(path, "utilization", utilization)
        recorder.record(path, "slack", budget_watts - power)
        recorder.record(path, "headroom", budget_watts - np.maximum.accumulate(power))
        recorder.record(path, "capped", np.minimum(power, budget_watts))

    if log is None:
        return
    over = power > budget_watts + 1e-9
    if np.any(over):
        edges = np.flatnonzero(np.diff(np.concatenate([[0], over.view(np.int8), [0]])))
        for start, stop in zip(edges[::2], edges[1::2]):
            segment = power[start:stop]
            log.emit(
                _events.VIOLATION,
                severity="critical",
                source=source,
                node=path,
                start_index=int(start),
                duration_samples=int(stop - start),
                duration_minutes=float((stop - start) * step_minutes),
                peak_watts=float(segment.max()),
                peak_overload_watts=float(segment.max() - budget_watts),
                budget_watts=float(budget_watts),
            )
    for precursor in detect_precursors(utilization, precursors):
        log.emit(
            _events.ADVISORY,
            severity="advisory",
            source=source,
            node=path,
            index=precursor.index,
            utilization=precursor.utilization,
            slope_per_step=precursor.slope_per_step,
            projected_utilization=precursor.projected,
            reason=precursor.reason,
            budget_watts=float(budget_watts),
        )


def record_view(view, *, prefix: str = "", precursors: Optional[PrecursorConfig] = None) -> int:
    """Record every budgeted node of a :class:`~repro.infra.aggregation.NodePowerView`.

    :func:`record_delta` over every node in topology order: each budgeted
    node's aggregate trace goes to :func:`record_power` keyed by the
    node's name (repo topologies use path-like names, e.g.
    ``"dc/suite0/rpp3"``).  Returns the number of nodes recorded; a cheap
    no-op (returning 0), which never reads the view, when nothing is
    installed.
    """
    if _RECORDER is None and _events.get_event_log() is None:
        return 0
    names = [node.name for node in view.topology.nodes()]
    return record_delta(view, names, prefix=prefix, precursors=precursors)


def record_delta(
    view,
    dirty_nodes,
    *,
    prefix: str = "",
    precursors: Optional[PrecursorConfig] = None,
) -> int:
    """Record only the nodes a delta dirtied, instead of the whole tree.

    The incremental companion of :func:`record_view`: after a
    :class:`~repro.engine.delta.FleetDelta` is applied to a view, feeding
    the flight recorder (and precursor/violation detection) only needs
    the refreshed aggregates — ``dirty_nodes`` is the list
    :meth:`~repro.engine.delta.PlacementState.apply` returned for that
    delta.  Unbudgeted dirty nodes are skipped, like in
    :func:`record_view`.  Returns the number of nodes recorded; a cheap
    no-op (returning 0) when nothing is installed.
    """
    if _RECORDER is None and _events.get_event_log() is None:
        return 0
    recorded = 0
    step_minutes = view.traces.grid.step_minutes
    for name in dirty_nodes:
        node = view.topology.node(name)
        if node.budget_watts is None:
            continue
        record_power(
            f"{prefix}{node.name}",
            view._node_values[node.name],
            node.budget_watts,
            step_minutes=step_minutes,
            precursors=precursors,
        )
        recorded += 1
    return recorded


# ----------------------------------------------------------------------
# module-level API: a process-global active recorder
# ----------------------------------------------------------------------
_RECORDER: Optional[FlightRecorder] = None


def get_recorder() -> Optional[FlightRecorder]:
    """The currently installed flight recorder, if any."""
    return _RECORDER


def record(path: str, name: str, values) -> None:
    """Record into the active flight recorder (cheap no-op when none)."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.record(path, name, values)


class recording:
    """Install a flight recorder as the process-global active recorder.

    ::

        with telemetry.recording() as recorder:
            run_scenario()
        print(recorder.summary())

    Nesting restores the previously active recorder on exit.
    """

    __slots__ = ("recorder", "_previous")

    def __init__(self, recorder: Optional[FlightRecorder] = None, *, capacity: int = 2048) -> None:
        self.recorder = recorder if recorder is not None else FlightRecorder(capacity)
        self._previous: Optional[FlightRecorder] = None

    def __enter__(self) -> FlightRecorder:
        global _RECORDER
        self._previous = _RECORDER
        _RECORDER = self.recorder
        return self.recorder

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _RECORDER
        _RECORDER = self._previous
        return False
