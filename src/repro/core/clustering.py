"""K-means clustering over asynchrony-score vectors (Sec. 3.5).

The paper embeds every instance as a point in the |B|-dimensional space
spanned by its I-to-S asynchrony scores and applies k-means to group
*synchronous* instances together (so the placer can then spread each group
across power nodes).  Two requirements shape this implementation:

* **determinism** — placements must be reproducible, so all randomness flows
  from an explicit seed;
* **equal-size clusters** — Sec. 3.5: "Each of these clusters have the same
  number of instances", which makes the round-robin distribution exact.
  :func:`balanced_kmeans` enforces that with a capacity-constrained
  assignment step on top of Lloyd iterations.

Both entry points take one problem, ``(n, d)`` points and a seed, or a
stack of problems of one shape, ``(P, n, d)`` points and one seed per
problem, and then return one result per problem; one problem runs as a
stack of one.  A stack runs in lockstep: k-means++ seeding, the Lloyd
iterations and the centroid updates are array operations across its
problems.  Each problem still draws from its own generator in the order it
would alone, stops on its own ``tol`` or ``max_iter``, and has every sum
taken along a contiguous axis of the length it would have alone, so each
gets the bits it would get alone.  Only problems of one shape stack, with
no padding.  A stack runs as its caller built it: :func:`stack_size` says
how many problems of a shape keep its temporaries within
:data:`STACK_MAX_BYTES`.

Each restart keeps one ``(k, n_points)`` matrix of squared distances per
problem.  k-means++ seeding fills it with the rows it computes for its D²
weights, and after every centroid update only the rows of centroids that
changed are computed again; the chosen restart's matrix carries into the
balance rounds.  A row depends only on its points and its centroid, so
every label, centroid and inertia has the bits a full recomputation would
give.  The ``cluster.distance_pairs`` counter counts the point–centroid
distances computed; the other ``cluster.*`` counters count per problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs

#: Bytes a stack's temporaries should take (see :func:`_problem_bytes`);
#: :func:`stack_size` turns it into a count of problems.
STACK_MAX_BYTES = 16 * 2**20


@dataclass(frozen=True)
class ClusteringResult:
    """Outcome of a clustering run.

    Attributes
    ----------
    labels:
        Cluster index per point, shape ``(n_points,)``.
    centroids:
        Cluster centres, shape ``(k, n_dims)``.
    inertia:
        Sum of squared distances of points to their assigned centroid.
    """

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def members(self, cluster: int) -> np.ndarray:
        """Indices of the points assigned to ``cluster``."""
        if not 0 <= cluster < self.k:
            raise IndexError(f"cluster {cluster} out of range (k={self.k})")
        return np.flatnonzero(self.labels == cluster)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)


def _as_stack(points: np.ndarray, seed) -> Tuple[np.ndarray, List[int], bool]:
    """``points`` as a float64 ``(P, n, d)`` stack of finite coordinates,
    the seed of each problem, and whether ``points`` was a stack.

    A NaN or infinite point would otherwise give non-finite centroids and a
    NaN inertia at k = 1, and fail inside k-means++ seeding's
    ``Generator.choice`` at k >= 2; the error names the first bad row of the
    first problem that has one.
    """
    points = np.asarray(points, dtype=np.float64)
    stacked = points.ndim == 3
    if points.ndim == 2:
        points, seeds = points[np.newaxis], [seed]
    elif stacked:
        if np.ndim(seed) != 1 or len(seed) != len(points):
            raise ValueError(
                f"a stack of {len(points)} problems needs as many seeds, got {seed!r}"
            )
        seeds = list(seed)
    else:
        raise ValueError(
            f"points must be 2-D, or 3-D for a stack of problems, got shape {points.shape}"
        )
    finite = np.isfinite(points).all(axis=2)
    if not finite.all():
        problem, row = np.unravel_index(int(np.argmin(finite)), finite.shape)
        raise ValueError(
            f"points must be finite: row {row} is {points[problem, row].tolist()}"
        )
    return points, seeds, stacked


def _check_k(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")


def _problem_bytes(n: int, d: int, k: int) -> int:
    """About the bytes one ``(n, d)`` problem with ``k`` clusters adds to a
    stack's temporaries: its kept and best distance matrices, ``argmin``'s
    point-major copy of one, and a refresh that moves every centroid, whose
    ``d`` squared-difference planes and pairwise partial sums each take as
    much as a distance matrix."""
    return 8 * k * n * (3 + 2 * d)


def stack_size(n: int, d: int, k: int) -> int:
    """How many ``(n, d)`` problems with ``k`` clusters one stack should
    hold: as many as fit :data:`STACK_MAX_BYTES`, and at least one."""
    return max(1, STACK_MAX_BYTES // _problem_bytes(n, d, k))


def _results(
    kernel, points: np.ndarray, k: int, seeds: List[int], **options
) -> List[ClusteringResult]:
    """``kernel`` (:func:`_kmeans` or :func:`_balanced`) over a validated
    stack: one result per problem, or the error of the first problem that
    failed."""
    labels, centroids, inertia, failed = kernel(points, k, seeds, **options)[:4]
    if failed:
        raise failed[min(failed)]
    return [
        ClusteringResult(labels=labels[p], centroids=centroids[p], inertia=float(inertia[p]))
        for p in range(len(labels))
    ]


def kmeans(
    points: np.ndarray,
    k: int,
    *,
    seed: Union[int, Sequence[int]] = 0,
    n_init: int = 4,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> Union[ClusteringResult, List[ClusteringResult]]:
    """Standard Lloyd's k-means with k-means++ seeding and restarts.

    ``(P, n, d)`` points with a sequence of ``P`` seeds cluster ``P``
    problems at once and return a list of ``P`` results.
    """
    stack, seeds, stacked = _as_stack(points, seed)
    _check_k(stack.shape[1], k)
    results = _results(
        _kmeans, stack, k, seeds, n_init=n_init, max_iter=max_iter, tol=tol
    )
    return results if stacked else results[0]


def balanced_kmeans(
    points: np.ndarray,
    k: int,
    *,
    seed: Union[int, Sequence[int]] = 0,
    n_init: int = 4,
    max_iter: int = 100,
    balance_rounds: int = 4,
) -> Union[ClusteringResult, List[ClusteringResult]]:
    """K-means with (near-)equal cluster sizes.

    Cluster sizes differ by at most one: ``n mod k`` clusters receive
    ``ceil(n/k)`` points, the rest ``floor(n/k)``.  Assignment is a greedy
    capacity-constrained fill: (point, cluster) pairs are taken in order of
    ascending distance, each point landing in the nearest cluster that still
    has room.  Centroids are then recomputed and the fill repeated for
    ``balance_rounds`` rounds.

    ``(P, n, d)`` points with a sequence of ``P`` seeds cluster ``P``
    problems at once and return a list of ``P`` results, each with the bits
    of its own call.
    """
    with obs.span("cluster", shape=np.shape(points), k=k):
        stack, seeds, stacked = _as_stack(points, seed)
        _check_k(stack.shape[1], k)
        results = _results(
            _balanced,
            stack,
            k,
            seeds,
            n_init=n_init,
            max_iter=max_iter,
            balance_rounds=balance_rounds,
        )
        return results if stacked else results[0]


def _balanced(
    points: np.ndarray,
    k: int,
    seeds: List[int],
    *,
    n_init: int,
    max_iter: int,
    balance_rounds: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[int, ValueError], np.ndarray]:
    """:func:`_kmeans`, then the balance rounds, over a validated stack."""
    labels, centroids, _, failed, distances = _kmeans(
        points, k, seeds, n_init=n_init, max_iter=max_iter, tol=1e-6
    )
    points_t = _dims_first(points)
    live = _live(len(points), failed)
    rows = _rows(live)
    for _ in range(max(1, balance_rounds) if len(live) else 0):
        obs.count("cluster.balance_rounds", len(live))
        for problem in live.tolist():
            labels[problem] = _capacity_assign(distances[problem].T)
        rngs = [np.random.default_rng(seeds[problem]) for problem in live.tolist()]
        previous = centroids[rows]
        new_centroids = _recompute_centroids(points[rows], labels[rows], previous, rngs)
        _refresh_rows(points_t, distances, previous, new_centroids, live)
        centroids[rows] = new_centroids
    return labels, centroids, _inertia(distances, labels), failed, distances


def _dims_first(points: np.ndarray) -> np.ndarray:
    """A ``(P, n, d)`` stack as a contiguous ``(d, P, n)`` array."""
    return np.ascontiguousarray(points.transpose(2, 0, 1))


def _live(size: int, failed: Dict[int, ValueError]) -> np.ndarray:
    """The problems of a stack of ``size`` that have not failed."""
    return np.array([p for p in range(size) if p not in failed], dtype=np.intp)


def _rows(problems):
    """An index selecting ``problems`` (sorted, distinct) from a stack: a
    slice, so a view, when they are one run of it."""
    if len(problems) and problems[-1] - problems[0] == len(problems) - 1:
        return slice(problems[0], problems[-1] + 1)
    return problems


def _kmeans(
    points: np.ndarray,
    k: int,
    seeds: List[int],
    *,
    n_init: int,
    max_iter: int,
    tol: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[int, ValueError], np.ndarray]:
    """Lockstep k-means over a validated ``(P, n, d)`` stack.

    Returns each problem's best restart: its labels ``(P, n)``, centroids
    ``(P, k, d)`` and inertia ``(P,)``; the problems whose seeding raised,
    with the error; and the restart's ``(P, k, n)`` distance matrices.  A
    failed problem draws and counts nothing more.
    """
    P, _, d = points.shape
    points_t = _dims_first(points)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    failed: Dict[int, ValueError] = {}
    best: List[np.ndarray] = []
    for _ in range(max(1, n_init)):
        if len(failed) == P:
            break
        obs.count("cluster.restarts", P - len(failed))
        centroids, distances = _kmeans_pp_init(points, k, rngs, failed)
        active = _live(P, failed)
        for _ in range(max_iter):
            if not len(active):
                break
            obs.count("cluster.lloyd_iterations", len(active))
            rows = _rows(active)
            labels = distances[rows].argmin(axis=1)
            previous = centroids[rows]
            new_centroids = _recompute_centroids(
                points[rows], labels, previous, [rngs[p] for p in active.tolist()]
            )
            shift = ((new_centroids - previous) ** 2).reshape(len(active), k * d)
            _refresh_rows(points_t, distances, previous, new_centroids, active)
            centroids[rows] = new_centroids
            # A NaN shift keeps iterating, as ``not shift <= tol`` does.
            active = active[~(shift.sum(axis=1) <= tol)]
        labels = distances.argmin(axis=1)
        restart = [labels, centroids, _inertia(distances, labels), distances]
        better = restart[2] < best[2] if best else np.ones(P, dtype=bool)
        if better.all():
            best = restart
        else:
            for kept, new in zip(best, restart):
                kept[better] = new[better]
    labels, centroids, inertia, distances = best
    return labels, centroids, inertia, failed, distances


def _inertia(distances: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each problem's summed squared distance from its points to their
    centroids, from its ``(k, n)`` distance matrix."""
    return np.take_along_axis(distances, labels[:, np.newaxis, :], axis=1)[:, 0].sum(axis=1)


def _kmeans_pp_init(
    points: np.ndarray,
    k: int,
    rngs: List[np.random.Generator],
    failed: Dict[int, ValueError],
) -> Tuple[np.ndarray, np.ndarray]:
    """k-means++ seeding of each problem of a stack: spread initial
    centroids by squared distance.

    Returns the centroids ``(P, k, d)`` and their ``(P, k, n)`` squared
    distance matrices.  Each row is ``((points - c) ** 2).sum(axis=1)``,
    which has the bits of :func:`_distance_rows`.  Problems in ``failed``,
    or added to it here, get centroids no one reads.
    """
    P, n, d = points.shape
    stack = np.arange(P)
    centroids = np.empty((P, k, d))
    distances = np.empty((P, k, n))
    # Zero weights make every first pick ``rng.integers(n)``.
    closest_sq = np.zeros((P, n))
    for i in range(k):
        picks, positive = _d2_draws(closest_sq, rngs, failed)
        chosen = points[stack, picks]
        centroids[:, i] = chosen
        row = ((points - chosen[:, np.newaxis]) ** 2).sum(axis=2)
        distances[:, i] = row
        if i == 0:
            closest_sq = row
        elif positive is None:
            np.minimum(closest_sq, row, out=closest_sq)
        else:
            # All remaining points of a problem with no positive weight
            # coincide with chosen centroids; its weights stay as they are.
            np.minimum(closest_sq, row, out=closest_sq, where=positive)
    if len(failed) < P:
        obs.count("cluster.distance_pairs", (P - len(failed)) * k * n)
    return centroids, distances


#: Totals for which :func:`_d2_draws` draws inline: normal, finite floats.
_NORMAL_RANGE = (float(np.finfo(np.float64).tiny), float(np.finfo(np.float64).max))


def _d2_draws(
    weights: np.ndarray,
    rngs: List[np.random.Generator],
    failed: Dict[int, ValueError],
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One k-means++ pick per problem of a stack, each from its own generator.

    A problem whose ``(n,)`` weights sum to zero or less picks
    ``rng.integers(n)``; any other picks
    ``rng.choice(n, p=weights / total)``.  ``Generator.choice`` validates
    ``p``, then takes ``cdf = p.cumsum()``, divides it by its last value and
    returns the first index whose cdf exceeds one ``rng.random()``.  With a
    normal finite ``total`` the weights are finite and non-negative and
    ``p`` sums to 1 within far less than ``choice``'s tolerance, so
    ``choice`` cannot raise and the same steps, taken here for all such
    problems at once, give the same index from the same draw.  Any other
    total (NaN, overflowed, subnormal) goes through ``choice``; what it
    raises is recorded in ``failed``.  Problems in ``failed`` draw nothing.

    Returns the picks and, unless every total was positive, a ``(P, 1)``
    mask of the problems whose total was.
    """
    totals = np.add.reduce(weights, axis=1)
    n = weights.shape[1]
    picks = np.zeros(len(rngs), dtype=np.intp)
    inline: List[int] = []
    uniforms: List[float] = []
    positive = True
    low, high = _NORMAL_RANGE
    for problem, (rng, total) in enumerate(zip(rngs, totals.tolist())):
        if problem in failed:
            continue
        if low <= total <= high:
            inline.append(problem)
            uniforms.append(rng.random())
        elif total <= 0:
            picks[problem] = rng.integers(n)
            positive = False
        else:
            try:
                picks[problem] = rng.choice(n, p=weights[problem] / totals[problem])
            except ValueError as error:
                failed[problem] = error
    if inline:
        drawn = _rows(inline)
        cdf = (weights[drawn] / totals[drawn, np.newaxis]).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        # The first index whose cdf exceeds the uniform, as ``searchsorted``
        # with ``side="right"`` finds it in each (non-decreasing) row; one
        # exists, as every row ends in exactly 1.0 and a uniform is below 1.
        picks[drawn] = (cdf > np.array(uniforms)[:, np.newaxis]).argmax(axis=1)
    return picks, None if positive else (totals > 0)[:, np.newaxis]


def _refresh_rows(
    points_t: np.ndarray,
    distances: np.ndarray,
    previous: np.ndarray,
    centroids: np.ndarray,
    problems: np.ndarray,
) -> None:
    """Recompute the rows of ``distances`` whose centroid changed.

    ``previous`` and ``centroids`` hold the centroids of the stack's
    ``problems``, in that order, before and after an update; ``points_t`` and
    ``distances`` cover the whole stack.  A centroid is unchanged when every
    coordinate compares equal: ``-0.0`` against ``0.0`` counts as unchanged,
    and both square to the same value.  (A squared shift of 0 would not do:
    a coordinate difference below about 1e-162 squares to 0.)
    """
    which, rows = np.nonzero((previous != centroids).any(axis=2))
    if len(rows):
        obs.count("cluster.distance_pairs", len(rows) * distances.shape[2])
        stacked = problems[which]
        distances[stacked, rows] = _distance_rows(points_t, stacked, centroids[which, rows])


def _capacity_assign(distances: np.ndarray) -> np.ndarray:
    """Greedy balanced assignment of points to capacity-limited clusters,
    from their ``(n_points, k)`` squared distances."""
    n, k = distances.shape
    base, remainder = divmod(n, k)
    remaining = [base + 1] * remainder + [base] * (k - remainder)

    # Process points hardest-to-place first: those with the largest gap
    # between their best and worst option have the most to lose.
    spread = distances.max(axis=1) - distances.min(axis=1)
    order = np.argsort(-spread, kind="stable")
    # Every point's clusters nearest first.  A stable sort ranks each row
    # exactly as sorting that row alone would, so one call serves all.
    ranked = np.argsort(distances, axis=1, kind="stable").tolist()

    labels = [-1] * n
    for point in order.tolist():
        for cluster in ranked[point]:
            if remaining[cluster] > 0:
                labels[point] = cluster
                remaining[cluster] -= 1
                break
    assert min(labels) >= 0
    return np.array(labels, dtype=np.int64)


def _distance_rows(
    points_t: np.ndarray, problems: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Squared Euclidean distances from each of ``m`` centroids to the
    points of its problem, shape ``(m, n)``.

    ``points_t`` holds a stack's points dimension-major, ``(d, P, n)``, and
    centroid ``j`` belongs to problem ``problems[j]`` (ascending).  Row
    ``j`` is bit-identical to ``((points - centroids[j]) ** 2).sum(axis=1)``,
    whose sum over the short last axis costs one inner-loop call per (point,
    centroid) pair.  Instead each dimension gets one ``(m, n)`` plane of
    squared differences (``c - p`` squares to exactly ``(p - c)²``), and the
    planes are added in the order numpy sums a contiguous row of ``d``
    values (:func:`_pairwise_sum`).  The planes start as each row's points,
    gathered with ``np.take``.
    """
    d, _, n = points_t.shape
    if d == 0:
        return np.zeros((len(centroids), n))
    columns = np.ascontiguousarray(centroids.T)[:, :, np.newaxis]
    diff = np.take(points_t, problems, axis=1)
    np.subtract(columns, diff, out=diff)
    np.multiply(diff, diff, out=diff)
    return _pairwise_sum(list(diff))


def _pairwise_sum(terms: List[np.ndarray]) -> np.ndarray:
    """Add equal-shape arrays in the order of numpy's pairwise summation.

    numpy reduces a contiguous run of ``n`` values from a zero start:
    fewer than 8 one after another; up to 128 in eight interleaved partial
    sums combined pairwise, then the leftover tail one by one; longer runs
    split in two at a multiple of 8 and recurse.  The zero start is left
    out, which changes nothing unless a sum is ``-0.0`` (never for the
    squares summed here).  Every sum is taken in place into ``terms``, so
    the result is one of them and the sum needs no memory of its own.
    """
    n = len(terms)
    if n < 8:
        total = terms[0]
        for term in terms[1:]:
            total += term
        return total
    if n <= 128:
        partial = terms[:8]
        tail = n - n % 8
        for start in range(8, tail, 8):
            for lane in range(8):
                partial[lane] += terms[start + lane]
        for step in (1, 2, 4):
            for lane in range(0, 8, 2 * step):
                partial[lane] += partial[lane + step]
        total = partial[0]
        for term in terms[tail:]:
            total += term
        return total
    half = n // 2
    half -= half % 8
    total = _pairwise_sum(terms[:half])
    total += _pairwise_sum(terms[half:])
    return total


def _recompute_centroids(
    points: np.ndarray,
    labels: np.ndarray,
    previous: np.ndarray,
    rngs: List[np.random.Generator],
) -> np.ndarray:
    """Mean of each cluster of each problem of a stack; empty clusters
    re-seeded from a random point.

    ``points`` is ``(P, n, d)``, ``labels`` ``(P, n)``, ``previous``
    ``(P, k, d)``.  Each mean is bit-identical to ``points[p][labels[p] ==
    c].mean(axis=0)``.  With two or more dimensions numpy sums those member
    rows one after another in index order, starting from zero, which is
    exactly how a weighted ``np.bincount`` accumulates, so one bincount over
    the flattened stack sums every (problem, cluster, dimension) cell.  A
    single column is contiguous and numpy sums it pairwise instead, so
    ``d = 1`` keeps the per-cluster mean.  Each problem's empty clusters
    draw from its generator in cluster order.
    """
    P, k, d = previous.shape
    clusters = labels + k * np.arange(P)[:, np.newaxis]
    counts = np.bincount(clusters.ravel(), minlength=P * k).reshape(P, k)
    filled = counts > 0
    if d == 1:
        centroids = previous.copy()
        for problem, cluster in zip(*np.nonzero(filled)):
            members = labels[problem] == cluster
            centroids[problem, cluster] = points[problem][members].mean(axis=0)
    else:
        cells = (clusters[:, :, np.newaxis] * d + np.arange(d)).ravel()
        sums = np.bincount(cells, weights=points.ravel(), minlength=P * k * d)
        sums = sums.reshape(P, k, d)
        centroids = np.divide(
            sums, counts[:, :, np.newaxis], out=previous.copy(), where=filled[:, :, np.newaxis]
        )
    n = points.shape[1]
    for problem, cluster in zip(*np.nonzero(~filled)):
        centroids[problem, cluster] = points[problem, int(rngs[problem].integers(n))]
    return centroids
