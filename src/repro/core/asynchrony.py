"""Asynchrony scores — the paper's temporal-complementarity metric (Sec. 3.4).

For a set of power traces *M*::

    A_M = Σ_{j∈M} peak(P_j)  /  peak(Σ_{j∈M} P_j)          (Eq. 6)

``A_M = 1`` means every member peaks simultaneously (worst grouping);
``A_M = |M|`` means aggregation adds nothing to the peak (best grouping).

Instances are embedded for clustering via *I-to-S* score vectors: the
asynchrony score of the instance's averaged I-trace against each of the
top-consumer S-traces (Sec. 3.5).  Sec. 3.6's adaptation loop uses the
*differential* asynchrony score of an instance against the rest of its power
node.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .. import obs
from ..traces.series import PowerTrace
from ..traces.traceset import TraceSet, add_rows, sum_rows

ArrayLike = Union[np.ndarray, Sequence[float]]

#: Default ceiling on the ``(chunk, n_samples)`` plane a :func:`score_matrix`
#: chunk is scored in.  At ``chunk_size=256`` and a week of per-minute
#: samples the plane is ~20.6 MB in float64, so the bound leaves the
#: configured chunk size alone until traces pass ~65k samples; beyond that
#: it derives a smaller chunk that keeps the plane under 128 MiB.
DEFAULT_SCORE_MAX_BYTES = 128 * 1024 * 1024

#: Below this many instance rows a :func:`score_matrix` call ignores
#: ``workers``: publishing shared segments and round-tripping the pool
#: costs more than scoring a small fleet in place.  The placer's per-node
#: recursion stays serial; only fleet-scale calls fan out.
PARALLEL_MIN_ROWS = 4096


def asynchrony_score(traces: Union[TraceSet, Sequence[PowerTrace]]) -> float:
    """The asynchrony score ``A_M`` of a set of power traces (Eq. 6).

    Accepts either a :class:`TraceSet` or a sequence of :class:`PowerTrace`.
    Raises on an empty set; a singleton scores exactly 1.0.
    """
    if isinstance(traces, TraceSet):
        if len(traces) == 0:
            raise ValueError("asynchrony score of an empty set is undefined")
        numerator = traces.sum_of_peaks()
        denominator = traces.aggregate_peak()
    else:
        traces = list(traces)
        if not traces:
            raise ValueError("asynchrony score of an empty set is undefined")
        numerator = sum(trace.peak() for trace in traces)
        denominator = PowerTrace.aggregate(traces).peak()
    if denominator == 0:
        # All-zero traces peak "together" by convention: perfectly synchronous.
        return 1.0
    return numerator / denominator


def pairwise_asynchrony(a: PowerTrace, b: PowerTrace) -> float:
    """The I-to-I asynchrony score of two traces (Eq. 7)."""
    return asynchrony_score([a, b])


def score_vector(instance: PowerTrace, basis: TraceSet) -> np.ndarray:
    """The I-to-S asynchrony score vector of one instance (Sec. 3.4).

    Element *k* is the asynchrony score between the instance's averaged
    I-trace and the *k*-th basis S-trace.  Shape ``(len(basis),)``.
    """
    instance.grid.require_same(basis.grid)
    return _score_rows(instance.values[np.newaxis, :], basis.matrix)[0]


def score_matrix(
    instances: TraceSet,
    basis: TraceSet,
    *,
    chunk_size: int = 256,
    max_bytes: Optional[int] = DEFAULT_SCORE_MAX_BYTES,
    dtype: Optional[object] = None,
    workers: int = 1,
    parallel_min_rows: int = PARALLEL_MIN_ROWS,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """I-to-S score vectors for a whole fleet, shape ``(n_instances, n_basis)``.

    Vectorised and chunked: ``peak(PI_i + PS_k)`` for a chunk of rows is
    computed one basis trace at a time in a reused ``(chunk, n_samples)``
    plane (see :func:`_score_rows`), never as the full fleet tensor.  The
    effective chunk size is the smaller of ``chunk_size`` and what fits a
    plane into ``max_bytes`` (pass ``max_bytes=None`` to disable the
    bound); results are identical whatever the chunking, only memory and
    locality change.

    ``rows`` scores only those rows of ``instances``, in that order: row
    ``i`` of the result is the score of ``instances.matrix[rows[i]]``.  The
    serial path gathers them one chunk at a time as it scores; the pooled
    path gathers them once, to publish them.

    ``dtype`` is the exactness toggle: ``None`` (default) scores in
    float64 — bit-identical to every historical result — while
    ``np.float32`` is the fleet-scale fast path, halving the plane's
    memory traffic at the cost of float32 rounding in the peaks (scores
    still come back float64).

    ``workers > 1`` shards the rows across the persistent worker pool
    (:mod:`repro.engine.parallel`) over shared-memory views of the two
    matrices — tasks carry only row ranges, never trace data.  Row scores
    are independent, so the result is identical for any worker count;
    batches smaller than ``parallel_min_rows`` run serially regardless.
    """
    instances.grid.require_same(basis.grid)
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    work_dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
    if max_bytes is not None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        bytes_per_row = instances.grid.n_samples * work_dtype.itemsize
        chunk_size = max(1, min(chunk_size, max_bytes // max(bytes_per_row, 1)))
    n = len(instances) if rows is None else len(rows)
    with obs.span(
        "score",
        instances=n,
        basis=len(basis),
        chunk_size=chunk_size,
        workers=workers,
    ):
        obs.count("score.pairs", n * len(basis))
        if workers > 1 and n >= max(parallel_min_rows, 2 * workers):
            matrix = instances.matrix if rows is None else instances.matrix[rows]
            return _score_matrix_sharded(
                matrix, basis.matrix, work_dtype, chunk_size, workers
            )
        basis_block = np.asarray(basis.matrix, dtype=work_dtype)
        scores = np.empty((n, len(basis)))
        for start in range(0, n, chunk_size):
            stop = min(start + chunk_size, n)
            obs.count("score.chunks")
            block = (
                instances.matrix[start:stop]
                if rows is None
                else instances.matrix[rows[start:stop]]
            )
            scores[start:stop] = _score_rows(
                np.asarray(block, dtype=work_dtype), basis_block
            )
        return scores


def _score_matrix_sharded(
    matrix: np.ndarray,
    basis_matrix: np.ndarray,
    work_dtype: np.dtype,
    chunk_size: int,
    workers: int,
) -> np.ndarray:
    """Fan row shards out to the persistent pool over shared memory.

    The instance and basis matrices are published once; each task is a
    ``(handle, handle, start, stop, chunk_size, dtype)`` descriptor a few
    hundred bytes long.  Segments are unlinked in the ``finally`` whatever
    happens — normal return, a worker death surfacing as
    ``BrokenProcessPool`` after retries, or a ``KeyboardInterrupt``.
    """
    # Lazy imports: repro.engine imports repro.core via the chaos harness,
    # so the reverse edge must not exist at module scope.
    from ..engine.parallel import get_pool
    from ..engine.sharedmem import SharedMatrix, shard_ranges

    n = matrix.shape[0]
    pool = get_pool(workers)
    with SharedMatrix.create(matrix, dtype=work_dtype) as shared_rows:
        with SharedMatrix.create(basis_matrix, dtype=work_dtype) as shared_basis:
            tasks = [
                (
                    shared_rows.handle,
                    shared_basis.handle,
                    start,
                    stop,
                    chunk_size,
                )
                for start, stop in shard_ranges(n, workers)
            ]
            obs.count("score.shards", len(tasks))
            blocks = pool.map_shards(_score_shard, tasks, label="score.shard")
    scores = np.empty((n, basis_matrix.shape[0]))
    row = 0
    for block in blocks:
        scores[row : row + block.shape[0]] = block
        row += block.shape[0]
    return scores


def _score_shard(
    rows_handle: object,
    basis_handle: object,
    start: int,
    stop: int,
    chunk_size: int,
) -> np.ndarray:
    """One worker's row range of the score matrix (runs in the pool)."""
    from ..engine.sharedmem import attach_rows, attached_view

    rows = attach_rows(rows_handle, start, stop)
    basis_block = attached_view(basis_handle)
    scores = np.empty((stop - start, basis_block.shape[0]))
    for offset in range(0, rows.shape[0], chunk_size):
        block = rows[offset : offset + chunk_size]
        scores[offset : offset + block.shape[0]] = _score_rows(block, basis_block)
    return scores


def _score_rows(rows: np.ndarray, basis_matrix: np.ndarray) -> np.ndarray:
    """Score each row trace against every basis trace, one basis trace at a time.

    For basis trace *k* the chunk's sums ``PI_i + PS_k`` are written into
    one reused ``(c, T)`` plane and reduced to their peaks.  Each sum is
    rounded the same way wherever it is computed and a max is exact, so
    the scores equal those of a dense ``(c, m, T)`` broadcast bit for bit,
    at an m-th of its memory.
    The arithmetic runs in the inputs' common dtype (the float32 fast path
    halves the plane) and the scores are returned as float64 either way.
    """
    row_peaks = rows.max(axis=1)                          # (c,)
    basis_peaks = basis_matrix.max(axis=1)                # (m,)
    dtype = np.result_type(rows, basis_matrix)
    plane = np.empty(rows.shape, dtype=dtype)
    combined_peaks = np.empty((rows.shape[0], basis_matrix.shape[0]), dtype=dtype)
    for k, trace in enumerate(basis_matrix):
        np.add(rows, trace, out=plane)
        plane.max(axis=1, out=combined_peaks[:, k])
    numerator = row_peaks[:, np.newaxis] + basis_peaks[np.newaxis, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(combined_peaks > 0, numerator / combined_peaks, 1.0)
    return np.asarray(scores, dtype=np.float64)


def averaged_group_trace(
    group: TraceSet, exclude_id: str
) -> PowerTrace:
    """``PA_{i,N}``: the averaged aggregate trace of a node, excluding one
    instance (Sec. 3.6).

    Defined as ``Σ_{j∈S_N, j≠i} PI_j / |S_N − 1|``.
    """
    if exclude_id not in group:
        raise ValueError(f"instance {exclude_id} is not in the group")
    if len(group) < 2:
        raise ValueError("differential score needs at least two instances at the node")
    total = add_rows(group.matrix) - group.row(exclude_id)
    return PowerTrace(group.grid, total / (len(group) - 1))


def differential_score(instance: PowerTrace, group_average: PowerTrace) -> float:
    """``AD_{i,N}``: differential asynchrony score of an instance against a
    node's averaged aggregate (Sec. 3.6)::

        AD = (peak(PI_i) + peak(PA_{i,N})) / peak(PI_i + PA_{i,N})
    """
    return pairwise_asynchrony(instance, group_average)


def differential_rows(
    values: np.ndarray,
    peaks: Union[np.ndarray, float],
    total: np.ndarray,
    excluded: Union[np.ndarray, float],
    count: int,
) -> np.ndarray:
    """``AD`` of each row of ``values`` against the rest of a group (Sec. 3.6).

    AD = (peak(x) + peak(rest)) / peak(x + rest), with rest = (total −
    excluded) / count, row by row.  ``values`` and ``excluded`` are
    ``(k, T)`` or ``(1, T)`` blocks that broadcast row against row, and
    ``peaks`` holds the peaks of the rows of ``values``.  Each element goes
    through the one-row formula's own subtraction, division, addition and
    division, and a row max is exact in any order, so every score has the
    bits a row-by-row evaluation gives.  The rest block is reused for the
    sum in place: a fresh ``(m, T)`` temporary per step costs more in page
    faults than the arithmetic.

    A combined peak of zero scores 1.0.  An empty rest group (``count <=
    0``) scores 2.0, the AD's defined limit: an all-zero rest trace never
    coincides with the instance's peak, so the score takes its best value
    inside the [1, 2] range instead of an out-of-range sentinel that would
    make the swap loop prefer emptying a node over a genuine improvement.
    """
    shape = np.broadcast_shapes(np.shape(values), np.shape(excluded), np.shape(total))
    if count <= 0:
        return np.full(shape[0], 2.0)
    rest = np.subtract(total, excluded, out=np.empty(shape))
    rest /= count
    numerator = peaks + rest.max(axis=1)
    rest += values
    combined = rest.max(axis=1)
    scores = np.ones(shape[0])
    np.divide(numerator, combined, out=scores, where=combined > 0)
    return scores


def differential_scores_for_node(group: TraceSet) -> dict:
    """Differential asynchrony score of every member of one node's group.

    The instance with the *lowest* score is the node's worst citizen — the
    swap candidate of the Sec. 3.6 adaptation loop, which scores its nodes
    with the same kernel and total.
    """
    if len(group) < 2:
        raise ValueError("differential scores need at least two instances")
    matrix = group.matrix
    scores = differential_rows(
        matrix, group.peaks(), sum_rows(matrix), matrix, len(group) - 1
    )
    return dict(zip(group.ids, scores.tolist()))
