"""Exactness of the vectorized balanced k-means kernels.

The kernels in :mod:`repro.core.clustering` are rewrites of simpler
per-point / per-cluster loops; placements depend on every bit they
produce.  The original implementations live on here as oracles, and each
property compares a kernel against its oracle bit-for-bit (``-0.0`` and
``0.0`` are told apart), including the random draws that re-seed empty
clusters.  Inputs are drawn from a small value pool as well as from
arbitrary floats, so ties and duplicate points are common.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import clustering


# ----------------------------------------------------------------------
# oracles: the implementations the kernels replaced
# ----------------------------------------------------------------------
def oracle_pairwise_sq_distances(points, centroids):
    diff = points[:, np.newaxis, :] - centroids[np.newaxis, :, :]
    return (diff * diff).sum(axis=2)


def oracle_capacity_assign(points, centroids, k):
    n = points.shape[0]
    base, remainder = divmod(n, k)
    capacities = np.full(k, base, dtype=np.int64)
    capacities[:remainder] += 1

    distances = oracle_pairwise_sq_distances(points, centroids)
    spread = distances.max(axis=1) - distances.min(axis=1)
    order = np.argsort(-spread, kind="stable")

    labels = np.full(n, -1, dtype=np.int64)
    remaining = capacities.copy()
    for point in order:
        ranked = np.argsort(distances[point], kind="stable")
        for cluster in ranked:
            if remaining[cluster] > 0:
                labels[point] = cluster
                remaining[cluster] -= 1
                break
    assert (labels >= 0).all()
    return labels


def oracle_recompute_centroids(points, labels, previous, rng):
    k = previous.shape[0]
    centroids = previous.copy()
    for cluster in range(k):
        members = labels == cluster
        if members.any():
            centroids[cluster] = points[members].mean(axis=0)
        else:
            centroids[cluster] = points[int(rng.integers(points.shape[0]))]
    return centroids


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
#: d = 1 (numpy's pairwise column sum), small d, and d >= 9 (the placer's
#: basis size and beyond the eight-lane block of pairwise summation).
DIMS = st.sampled_from([1, 2, 3, 8, 9, 10, 17, 19])

#: Magnitudes below 1e-100 are flushed to zero so no squared difference
#: is subnormal, which could make k-means++'s draw weights fail to sum to 1.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-3]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False).map(
        lambda x: x if abs(x) >= 1e-100 else 0.0
    ),
)


@st.composite
def problems(draw, max_n=16):
    """Points, then centroids: random, copied from the points, or mixed."""
    n = draw(st.integers(1, max_n))
    d = draw(DIMS)
    points = draw(hnp.arrays(np.float64, (n, d), elements=VALUES))
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    free = draw(hnp.arrays(np.float64, (k, d), elements=VALUES))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    copied = points[rows]
    mix = draw(hnp.arrays(np.bool_, (k,)))
    centroids = np.where(mix[:, np.newaxis], copied, free)
    return points, centroids


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
class TestKernelExactness:
    @given(problems())
    @settings(max_examples=60, deadline=None)
    def test_distances_match_broadcast_sum(self, problem):
        points, centroids = problem
        assert same_bits(
            clustering._pairwise_sq_distances(points, centroids),
            oracle_pairwise_sq_distances(points, centroids),
        )

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(120, 300)),
            elements=st.floats(0, 1e3, allow_nan=False, allow_infinity=False),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_pairwise_sum_matches_numpy_past_one_block(self, stack):
        # Beyond 128 terms numpy splits the run in two and recurses.
        expected = stack.sum(axis=-1)
        planes = [stack[..., j].copy() for j in range(stack.shape[-1])]
        assert same_bits(clustering._pairwise_sum(planes), expected)

    @given(problems())
    @settings(max_examples=60, deadline=None)
    def test_capacity_assign_matches_per_point_walk(self, problem):
        points, centroids = problem
        k = centroids.shape[0]
        assert same_bits(
            clustering._capacity_assign(points, centroids, k),
            oracle_capacity_assign(points, centroids, k),
        )

    @given(problems(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_recompute_centroids_matches_masked_means(self, problem, data):
        points, previous = problem
        k = previous.shape[0]
        # Labels over a subset of the clusters leave the rest empty.
        used = data.draw(st.integers(1, k))
        labels = np.array(
            data.draw(
                st.lists(
                    st.integers(0, used - 1),
                    min_size=len(points),
                    max_size=len(points),
                )
            ),
            dtype=np.int64,
        )
        seed = data.draw(st.integers(0, 2**32 - 1))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert same_bits(
            clustering._recompute_centroids(points, labels, previous, ours),
            oracle_recompute_centroids(points, labels, previous, theirs),
        )
        # Same draws consumed: the generators continue identically.
        assert ours.bit_generator.state == theirs.bit_generator.state

    @given(problems(), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_balanced_kmeans_matches_oracle_kernels(self, problem, seed):
        points, centroids = problem
        k = centroids.shape[0]
        ours = clustering.balanced_kmeans(points, k, seed=seed, n_init=2, max_iter=8)
        with mock.patch.multiple(
            clustering,
            _pairwise_sq_distances=oracle_pairwise_sq_distances,
            _capacity_assign=oracle_capacity_assign,
            _recompute_centroids=oracle_recompute_centroids,
        ):
            theirs = clustering.balanced_kmeans(
                points, k, seed=seed, n_init=2, max_iter=8
            )
        assert same_bits(ours.labels, theirs.labels)
        assert same_bits(ours.centroids, theirs.centroids)
        assert ours.inertia == theirs.inertia or (
            np.isnan(ours.inertia) and np.isnan(theirs.inertia)
        )
