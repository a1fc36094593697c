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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

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
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by squared distance."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest_sq = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            # All remaining points coincide with chosen centroids.
            centroids[i] = points[int(rng.integers(n))]
            continue
        probabilities = closest_sq / total
        choice = int(rng.choice(n, p=probabilities))
        centroids[i] = points[choice]
        distance_sq = ((points - centroids[i]) ** 2).sum(axis=1)
        closest_sq = np.minimum(closest_sq, distance_sq)
    return centroids


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
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)

    best: Optional[ClusteringResult] = None
    for _ in range(max(1, n_init)):
        obs.count("cluster.restarts")
        centroids = _kmeans_pp_init(points, k, rng)
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(max_iter):
            obs.count("cluster.lloyd_iterations")
            distances = _pairwise_sq_distances(points, centroids)
            labels = distances.argmin(axis=1)
            new_centroids = _recompute_centroids(points, labels, centroids, rng)
            shift = float(((new_centroids - centroids) ** 2).sum())
            centroids = new_centroids
            if shift <= tol:
                break
        distances = _pairwise_sq_distances(points, centroids)
        labels = distances.argmin(axis=1)
        inertia = float(distances[np.arange(n), labels].sum())
        candidate = ClusteringResult(labels=labels, centroids=centroids, inertia=inertia)
        if best is None or candidate.inertia < best.inertia:
            best = candidate
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
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")

    with obs.span("cluster", points=n, k=k):
        unbalanced = kmeans(points, k, seed=seed, n_init=n_init, max_iter=max_iter)
        centroids = unbalanced.centroids
        labels = unbalanced.labels
        for _ in range(max(1, balance_rounds)):
            obs.count("cluster.balance_rounds")
            labels = _capacity_assign(points, centroids, k)
            rng = np.random.default_rng(seed)
            centroids = _recompute_centroids(points, labels, centroids, rng)
        distances = _pairwise_sq_distances(points, centroids)
        inertia = float(distances[np.arange(n), labels].sum())
        return ClusteringResult(labels=labels, centroids=centroids, inertia=inertia)


def _capacity_assign(points: np.ndarray, centroids: np.ndarray, k: int) -> np.ndarray:
    """Greedy balanced assignment of points to capacity-limited clusters."""
    n = points.shape[0]
    base, remainder = divmod(n, k)
    remaining = [base + 1] * remainder + [base] * (k - remainder)

    distances = _pairwise_sq_distances(points, centroids)
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
