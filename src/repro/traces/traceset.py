"""Vectorised collections of power traces.

A datacenter has tens of thousands of instance traces; iterating Python-level
:class:`PowerTrace` objects for every aggregate would be slow.  A
:class:`TraceSet` stores a whole fleet's traces as one ``(n_traces,
n_samples)`` matrix, keyed by trace id, and provides the bulk operations the
placement framework needs (row peaks, group aggregates, sub-setting).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from .grid import TimeGrid
from .series import PowerTrace, check_power_values


def add_rows(block: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Column totals of an ``(m, T)`` block in its dtype, adding rows in order.

    The result equals ``total = np.zeros(T, block.dtype); for row in block:
    total += row`` bit for bit, for every ``m`` and ``T``.  A plain
    ``block.sum(axis=0)`` does not: on a one-sample grid the column is
    contiguous and numpy adds it pairwise.  For ``T >= 2`` a reduction
    over axis 0 of a C-ordered block keeps the rows in the outer loop, so
    it adds them one at a time, here from +0.0.  A one-sample block goes
    through ``np.cumsum``, which is sequential by definition but starts
    from the first row: adding +0.0 afterwards gives a column of negative
    zeros the loop's +0.0.  ``out``, if given, receives the totals.
    """
    block = np.ascontiguousarray(block)
    if block.shape[1] != 1:
        return np.add.reduce(block, axis=0, out=out, initial=0)
    if not len(block):
        total = np.zeros(1, dtype=block.dtype)
    else:
        total = np.cumsum(block, axis=0)[-1]
    return np.add(total, 0, out=out)


def sum_rows(block: np.ndarray) -> np.ndarray:
    """:func:`add_rows` in float64, whatever the block's dtype."""
    return add_rows(np.asarray(block, dtype=np.float64))


class TraceSet:
    """An immutable matrix of power traces sharing one :class:`TimeGrid`.

    Storage is float64 by default (bit-exact with every historical code
    path).  Passing ``dtype=np.float32`` keeps a float32 matrix as-is —
    the fleet-scale fast path, where a million-instance block at half the
    bytes doubles effective memory bandwidth — and ``np.asarray`` makes
    both cases zero-copy when the input already matches (e.g. a view of a
    :class:`repro.engine.sharedmem.SharedMatrix` in a pool worker).
    Readings must be finite and non-negative, as in a :class:`PowerTrace`.
    """

    __slots__ = ("grid", "ids", "matrix", "_index")

    def __init__(
        self,
        grid: TimeGrid,
        ids: Sequence[str],
        matrix: np.ndarray,
        *,
        dtype: object = np.float64,
    ) -> None:
        matrix = np.asarray(matrix, dtype=np.dtype(dtype))
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
        if matrix.shape != (len(ids), grid.n_samples):
            raise ValueError(
                f"matrix shape {matrix.shape} inconsistent with "
                f"{len(ids)} ids x {grid.n_samples} samples"
            )
        check_power_values(matrix)
        self.grid = grid
        self.ids = list(ids)
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("trace ids must be unique")
        self.matrix = matrix
        self._index: Dict[str, int] = {tid: i for i, tid in enumerate(self.ids)}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_traces(cls, traces: Mapping[str, PowerTrace]) -> "TraceSet":
        """Build a set from an id → trace mapping (insertion order kept)."""
        if not traces:
            raise ValueError("cannot build an empty TraceSet")
        ids = list(traces.keys())
        grid = traces[ids[0]].grid
        matrix = np.empty((len(ids), grid.n_samples))
        for row, tid in enumerate(ids):
            grid.require_same(traces[tid].grid)
            matrix[row] = traces[tid].values
        return cls(grid, ids, matrix)

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, trace_id: str) -> bool:
        return trace_id in self._index

    def __getitem__(self, trace_id: str) -> PowerTrace:
        return PowerTrace(self.grid, self.matrix[self._index[trace_id]].copy())

    def row(self, trace_id: str) -> np.ndarray:
        """The raw value row for ``trace_id`` (a view; do not mutate)."""
        return self.matrix[self._index[trace_id]]

    def index_of(self, trace_id: str) -> int:
        return self._index[trace_id]

    # ------------------------------------------------------------------
    # bulk statistics
    # ------------------------------------------------------------------
    def peaks(self) -> np.ndarray:
        """Per-trace peak power, shape ``(n_traces,)``."""
        return self.matrix.max(axis=1)

    def means(self) -> np.ndarray:
        return self.matrix.mean(axis=1)

    def total(self) -> PowerTrace:
        """The aggregate trace of every member (column sums)."""
        return PowerTrace(self.grid, add_rows(self.matrix))

    def sum_of_peaks(self) -> float:
        """Σ_j peak(P_j) — the numerator of the asynchrony score (Eq. 6)."""
        return float(self.peaks().sum())

    def aggregate_peak(self) -> float:
        """peak(Σ_j P_j) — the denominator of the asynchrony score (Eq. 6)."""
        return float(add_rows(self.matrix).max())

    def aggregate_of(self, trace_ids: Sequence[str]) -> PowerTrace:
        """Aggregate trace of the named subset."""
        if len(trace_ids) == 0:
            raise ValueError("cannot aggregate an empty subset")
        rows = [self._index[tid] for tid in trace_ids]
        return PowerTrace(self.grid, add_rows(self.matrix[rows]))

    def subset(self, trace_ids: Sequence[str]) -> "TraceSet":
        """A new TraceSet restricted to ``trace_ids`` (order preserved)."""
        rows = [self._index[tid] for tid in trace_ids]
        return TraceSet(
            self.grid,
            list(trace_ids),
            self.matrix[rows].copy(),
            dtype=self.matrix.dtype,
        )

    def mean_trace(self) -> PowerTrace:
        """The element-wise mean trace across members (Eq. 5 denominator)."""
        return PowerTrace(self.grid, self.matrix.mean(axis=0))

    # ------------------------------------------------------------------
    # time restructuring
    # ------------------------------------------------------------------
    def average_weeks(self) -> "TraceSet":
        """Average every member's weeks into one 7-day trace (vectorised Eq. 4)."""
        if not self.grid.covers_whole_weeks():
            raise ValueError("grid does not cover whole weeks")
        weeks, per_week = self.grid.week_view_shape()
        stacked = self.matrix.reshape(len(self.ids), weeks, per_week)
        return TraceSet(
            self.grid.one_week(),
            self.ids,
            stacked.mean(axis=1),
            dtype=self.matrix.dtype,
        )

    def week(self, week_index: int) -> "TraceSet":
        """Restrict every member to one whole week."""
        per_week = self.grid.samples_per_week
        n_weeks = self.grid.n_samples // per_week
        if not 0 <= week_index < n_weeks:
            raise IndexError(f"week {week_index} outside trace ({n_weeks} weeks)")
        start = week_index * per_week
        sub_grid = TimeGrid(
            self.grid.start_minute + start * self.grid.step_minutes,
            self.grid.step_minutes,
            per_week,
        )
        return TraceSet(
            sub_grid,
            self.ids,
            self.matrix[:, start : start + per_week].copy(),
            dtype=self.matrix.dtype,
        )

    def traces(self) -> Dict[str, PowerTrace]:
        """Materialise the set as an id → PowerTrace dict."""
        return {tid: self[tid] for tid in self.ids}

    def merged_with(self, other: "TraceSet") -> "TraceSet":
        """Union of two disjoint trace sets on the same grid."""
        self.grid.require_same(other.grid)
        overlap = set(self.ids) & set(other.ids)
        if overlap:
            raise ValueError(f"trace sets overlap on ids: {sorted(overlap)[:5]}")
        return TraceSet(
            self.grid,
            self.ids + other.ids,
            np.vstack([self.matrix, other.matrix]),
            dtype=np.result_type(self.matrix, other.matrix),
        )
