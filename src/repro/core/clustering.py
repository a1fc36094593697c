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

Each restart keeps one ``(k, n_points)`` matrix of squared distances.
k-means++ seeding fills it with the rows it computes for its D² weights,
and after every centroid update only the rows of centroids that changed
are computed again; the chosen restart's matrix carries into the balance
rounds.  A row depends only on its points and its centroid, so every
label, centroid and inertia has the bits a full recomputation would give.
The ``cluster.distance_pairs`` counter counts the point–centroid distances
computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .. import obs


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


def _kmeans_pp_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """k-means++ seeding: spread initial centroids by squared distance.

    Returns the centroids and their ``(k, n_points)`` squared distance
    matrix.  Each row is ``((points - c) ** 2).sum(axis=1)``, which has the
    bits of :func:`_pairwise_sq_distances`.
    """
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    distances = np.empty((k, n))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    distances[0] = ((points - centroids[0]) ** 2).sum(axis=1)
    closest_sq = distances[0].copy()
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            # All remaining points coincide with chosen centroids.
            centroids[i] = points[int(rng.integers(n))]
            distances[i] = ((points - centroids[i]) ** 2).sum(axis=1)
            continue
        centroids[i] = points[_d2_draw(closest_sq, total, rng)]
        distances[i] = ((points - centroids[i]) ** 2).sum(axis=1)
        np.minimum(closest_sq, distances[i], out=closest_sq)
    obs.count("cluster.distance_pairs", k * n)
    return centroids, distances


#: Totals for which :func:`_d2_draw` draws inline: normal, finite floats.
_NORMAL_RANGE = (np.finfo(np.float64).tiny, np.finfo(np.float64).max)


def _d2_draw(weights: np.ndarray, total: float, rng: np.random.Generator) -> int:
    """``rng.choice(len(weights), p=weights / total)``, drawn inline.

    ``Generator.choice`` validates ``p``, then takes ``cdf = p.cumsum()``,
    divides it by its last value and returns the first index whose cdf
    exceeds one ``rng.random()``.  With a normal finite ``total`` the
    weights are finite and non-negative and ``p`` sums to 1 within far less
    than ``choice``'s tolerance, so ``choice`` cannot raise and the same
    steps give the same index and consume the same draw.  Any other total
    (NaN, overflowed, subnormal) goes through ``choice``, which raises what
    it raises.
    """
    probabilities = weights / total
    if not _NORMAL_RANGE[0] <= total <= _NORMAL_RANGE[1]:
        return int(rng.choice(len(weights), p=probabilities))
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _refresh_rows(
    points: np.ndarray,
    distances: np.ndarray,
    previous: np.ndarray,
    centroids: np.ndarray,
) -> None:
    """Recompute the rows of ``distances`` whose centroid changed.

    A centroid is unchanged when every coordinate compares equal: ``-0.0``
    against ``0.0`` counts as unchanged, and both square to the same value.
    (A squared shift of 0 would not do: a coordinate difference below about
    1e-162 squares to 0.)
    """
    changed = np.flatnonzero((previous != centroids).any(axis=1))
    if len(changed):
        obs.count("cluster.distance_pairs", len(changed) * points.shape[0])
        distances[changed] = _pairwise_sq_distances(points, centroids[changed]).T


def _as_points(points: np.ndarray) -> np.ndarray:
    """``points`` as a float64 ``(n, d)`` array of finite coordinates.

    A NaN or infinite point would otherwise give non-finite centroids and a
    NaN inertia at k = 1, and fail inside k-means++ seeding's
    ``Generator.choice`` at k >= 2; the error names the first bad row.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(
            f"points must be finite: row {row} is {points[row].tolist()}"
        )
    return points


def _check_k(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")


def kmeans(
    points: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    n_init: int = 4,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> ClusteringResult:
    """Standard Lloyd's k-means with k-means++ seeding and restarts."""
    points = _as_points(points)
    _check_k(points.shape[0], k)
    return _kmeans(points, k, seed=seed, n_init=n_init, max_iter=max_iter, tol=tol)[0]


def _kmeans(
    points: np.ndarray, k: int, *, seed: int, n_init: int, max_iter: int, tol: float
) -> Tuple[ClusteringResult, np.ndarray]:
    """:func:`kmeans` on validated points; also returns the best restart's
    ``(k, n_points)`` distance matrix."""
    n = points.shape[0]
    rng = np.random.default_rng(seed)

    best: Optional[Tuple[ClusteringResult, np.ndarray]] = None
    for _ in range(max(1, n_init)):
        obs.count("cluster.restarts")
        centroids, distances = _kmeans_pp_init(points, k, rng)
        for _ in range(max_iter):
            obs.count("cluster.lloyd_iterations")
            labels = distances.argmin(axis=0)
            new_centroids = _recompute_centroids(points, labels, centroids, rng)
            shift = float(((new_centroids - centroids) ** 2).sum())
            _refresh_rows(points, distances, centroids, new_centroids)
            centroids = new_centroids
            if shift <= tol:
                break
        labels = distances.argmin(axis=0)
        inertia = float(distances[labels, np.arange(n)].sum())
        candidate = ClusteringResult(labels=labels, centroids=centroids, inertia=inertia)
        if best is None or candidate.inertia < best[0].inertia:
            best = (candidate, distances)
    assert best is not None
    return best


def balanced_kmeans(
    points: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    n_init: int = 4,
    max_iter: int = 100,
    balance_rounds: int = 4,
) -> ClusteringResult:
    """K-means with (near-)equal cluster sizes.

    Cluster sizes differ by at most one: ``n mod k`` clusters receive
    ``ceil(n/k)`` points, the rest ``floor(n/k)``.  Assignment is a greedy
    capacity-constrained fill: (point, cluster) pairs are taken in order of
    ascending distance, each point landing in the nearest cluster that still
    has room.  Centroids are then recomputed and the fill repeated for
    ``balance_rounds`` rounds.
    """
    points = _as_points(points)
    n = points.shape[0]
    _check_k(n, k)

    with obs.span("cluster", points=n, k=k):
        unbalanced, distances = _kmeans(
            points, k, seed=seed, n_init=n_init, max_iter=max_iter, tol=1e-6
        )
        centroids = unbalanced.centroids
        for _ in range(max(1, balance_rounds)):
            obs.count("cluster.balance_rounds")
            labels = _capacity_assign(distances.T)
            rng = np.random.default_rng(seed)
            new_centroids = _recompute_centroids(points, labels, centroids, rng)
            _refresh_rows(points, distances, centroids, new_centroids)
            centroids = new_centroids
        inertia = float(distances[labels, np.arange(n)].sum())
        return ClusteringResult(labels=labels, centroids=centroids, inertia=inertia)


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


def _pairwise_sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape ``(n_points, k)``.

    Bit-identical to ``(diff * diff).sum(axis=2)`` over the broadcast
    difference ``points[:, None, :] - centroids[None, :, :]``, whose sum
    over the short last axis costs one inner-loop call per (point,
    centroid) pair.  Instead each dimension gets one ``(k, n)`` plane of
    squared differences (``c - p`` squares to exactly ``(p - c)²``), and
    the planes are added in the order numpy sums a contiguous row of
    ``d`` values (:func:`_pairwise_sum`).  Returns a transposed view.
    """
    if points.shape[1] == 0:
        return np.zeros((points.shape[0], centroids.shape[0]))
    diff = (
        np.ascontiguousarray(centroids.T)[:, :, np.newaxis]
        - np.ascontiguousarray(points.T)[:, np.newaxis, :]
    )
    np.multiply(diff, diff, out=diff)
    return _pairwise_sum(list(diff)).T


def _pairwise_sum(terms: List[np.ndarray]) -> np.ndarray:
    """Add equal-shape arrays in the order of numpy's pairwise summation.

    numpy reduces a contiguous run of ``n`` values from a zero start:
    fewer than 8 one after another; up to 128 in eight interleaved partial
    sums combined pairwise, then the leftover tail one by one; longer runs
    split in two at a multiple of 8 and recurse.  The zero start is left
    out, which changes nothing unless a sum is ``-0.0`` (never for the
    squares summed here).  The arrays in ``terms`` are summed in place.
    """
    n = len(terms)
    if n < 8:
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total
    if n <= 128:
        partial = terms[:8]
        tail = n - n % 8
        for start in range(8, tail, 8):
            for lane in range(8):
                partial[lane] += terms[start + lane]
        total = ((partial[0] + partial[1]) + (partial[2] + partial[3])) + (
            (partial[4] + partial[5]) + (partial[6] + partial[7])
        )
        for term in terms[tail:]:
            total += term
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def _recompute_centroids(
    points: np.ndarray,
    labels: np.ndarray,
    previous: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mean of each cluster; empty clusters re-seeded from a random point.

    Each mean is bit-identical to ``points[labels == c].mean(axis=0)``.
    With two or more dimensions numpy sums those member rows one after
    another in index order, starting from zero, which is exactly how a
    weighted ``np.bincount`` accumulates, so one bincount over the
    flattened points sums every (cluster, dimension) cell.  A single
    column is contiguous and numpy sums it pairwise instead, so ``d = 1``
    keeps the per-cluster mean.  Empty clusters draw from ``rng`` in
    cluster order.
    """
    k, d = previous.shape
    centroids = previous.copy()
    counts = np.bincount(labels, minlength=k)
    if d == 1:
        for cluster in np.flatnonzero(counts):
            centroids[cluster] = points[labels == cluster].mean(axis=0)
    else:
        cells = (labels[:, np.newaxis] * d + np.arange(d)).ravel()
        sums = np.bincount(cells, weights=points.ravel(), minlength=k * d)
        filled = counts > 0
        centroids[filled] = sums.reshape(k, d)[filled] / counts[filled, np.newaxis]
    for cluster in np.flatnonzero(counts == 0):
        centroids[cluster] = points[int(rng.integers(points.shape[0]))]
    return centroids
