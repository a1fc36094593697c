"""Exactness of the vectorized balanced k-means kernels.

The kernels in :mod:`repro.core.clustering` are rewrites of simpler
per-point / per-cluster loops; placements depend on every bit they
produce.  The original implementations live on here as oracles, and each
property compares a kernel against its oracle bit-for-bit (``-0.0`` and
``0.0`` are told apart), including the random draws that re-seed empty
clusters.  Inputs are drawn from a small value pool as well as from
arbitrary floats, so ties and duplicate points are common.

The whole of :func:`~repro.core.clustering.kmeans` and
:func:`~repro.core.clustering.balanced_kmeans` is held to the version that
recomputed every distance on every step (``oracle_kmeans``), which draws
k-means++'s picks through ``Generator.choice``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import obs
from repro.core import clustering
from repro.obs import metrics


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


def oracle_kmeans_pp_init(points, k, rng):
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


def oracle_kmeans(points, k, *, seed=0, n_init=4, max_iter=100, tol=1e-6):
    points = clustering._as_points(points)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)

    best = None
    for _ in range(max(1, n_init)):
        obs.count("cluster.restarts")
        centroids = oracle_kmeans_pp_init(points, k, rng)
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(max_iter):
            obs.count("cluster.lloyd_iterations")
            distances = oracle_pairwise_sq_distances(points, centroids)
            labels = distances.argmin(axis=1)
            new_centroids = oracle_recompute_centroids(points, labels, centroids, rng)
            shift = float(((new_centroids - centroids) ** 2).sum())
            centroids = new_centroids
            if shift <= tol:
                break
        distances = oracle_pairwise_sq_distances(points, centroids)
        labels = distances.argmin(axis=1)
        inertia = float(distances[np.arange(n), labels].sum())
        candidate = clustering.ClusteringResult(
            labels=labels, centroids=centroids, inertia=inertia
        )
        if best is None or candidate.inertia < best.inertia:
            best = candidate
    assert best is not None
    return best


def oracle_balanced_kmeans(
    points, k, *, seed=0, n_init=4, max_iter=100, balance_rounds=4
):
    points = clustering._as_points(points)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")

    with obs.span("cluster", points=n, k=k):
        unbalanced = oracle_kmeans(points, k, seed=seed, n_init=n_init, max_iter=max_iter)
        centroids = unbalanced.centroids
        labels = unbalanced.labels
        for _ in range(max(1, balance_rounds)):
            obs.count("cluster.balance_rounds")
            labels = oracle_capacity_assign(points, centroids, k)
            rng = np.random.default_rng(seed)
            centroids = oracle_recompute_centroids(points, labels, centroids, rng)
        distances = oracle_pairwise_sq_distances(points, centroids)
        inertia = float(distances[np.arange(n), labels].sum())
        return clustering.ClusteringResult(
            labels=labels, centroids=centroids, inertia=inertia
        )


class FixedDraws(np.random.Generator):
    """A generator whose ``random()`` returns the given values in turn.

    ``Generator.choice`` draws its uniform through ``self.random``, so this
    also fixes the uniform ``choice`` searches its cdf for.
    """

    def __init__(self, uniforms):
        super().__init__(np.random.PCG64(0))
        self.uniforms = list(uniforms)

    def random(self, *args, **kwargs):
        return self.uniforms.pop(0)


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
DIM_VALUES = [1, 2, 3, 8, 9, 10, 17, 19]
DIMS = st.sampled_from(DIM_VALUES)

#: Magnitudes below 1e-100 are flushed to zero so no squared difference
#: is subnormal, which could make k-means++'s draw weights fail to sum to 1.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-3]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False).map(
        lambda x: x if abs(x) >= 1e-100 else 0.0
    ),
)


#: Values whose squared differences are subnormal (1e-160), underflow to 0
#: (1e-170, 3e-163, 5e-324) or overflow (1e160, 1e200); 1e-150 squares to a
#: normal value that a shift of 3e-163 still changes.
EXTREME_VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 1e-150, -1e-150, 3e-163, 1e-160, -1e-160]
    + [1e-170, 5e-324, 1e160, -1e160, 1e200]
)

#: Tiny centroid moves: each squares to 0, yet next to a coordinate of
#: 1e-150 it changes the squared difference.
NUDGES = st.sampled_from([3e-163, -1e-163, 2e-170, 5e-324])


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


@st.composite
def settling_problems(draw, max_n=60):
    """Points in tight groups around a few centres, plus strays: Lloyd's
    loop settles some centroids early while others still move."""
    d = draw(DIMS)
    n_centres = draw(st.integers(1, 6))
    centres = draw(
        hnp.arrays(
            np.float64,
            (n_centres, d),
            elements=st.sampled_from([0.0, 1.0, 4.0, -3.0, 10.0]),
        )
    )
    n = draw(st.integers(2, max_n))
    home = draw(st.lists(st.integers(0, n_centres - 1), min_size=n, max_size=n))
    # Mostly no jitter, so many points coincide and their groups settle.
    jitter = draw(
        hnp.arrays(
            np.float64,
            (n, d),
            elements=st.sampled_from([0.0, 0.0, 0.0, 0.1, -0.2, 1e-3, 2.5]),
        )
    )
    points = centres[home] + jitter
    k = draw(st.integers(1, n))
    return points, k


@st.composite
def extreme_problems(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    d = draw(st.sampled_from([1, 2, 3, 9]))
    points = draw(hnp.arrays(np.float64, (n, d), elements=EXTREME_VALUES))
    return points, draw(st.integers(1, n))


def any_problem():
    return st.one_of(
        problems().map(lambda problem: (problem[0], problem[1].shape[0])),
        settling_problems(),
        extreme_problems(),
    )


def run_counted(fn, *args, **kwargs):
    """``fn``'s outcome (result or exception) and the ``cluster.*`` counters
    it advanced."""
    with metrics.capturing() as registry, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            outcome = fn(*args, **kwargs)
        except ValueError as error:
            outcome = error
    counters = {
        name: value
        for name, value in registry.counters.items()
        if name.startswith("cluster.")
    }
    return outcome, counters


def assert_same_outcome(ours, theirs, k, n):
    """Same labels, centroids and inertia bits, or the same exception, and
    the oracle's ``cluster.*`` counters advanced by as much.  The oracle
    counts no ``cluster.distance_pairs``; that count lies between the
    k-means++ rows of every restart and one full matrix per restart, Lloyd
    iteration and balance round."""
    (result, counters), (expected, expected_counters) = ours, theirs
    if isinstance(expected, Exception):
        assert isinstance(result, Exception), "the oracle raised"
        assert (type(result), str(result)) == (type(expected), str(expected))
    else:
        assert not isinstance(result, Exception), result
        assert same_bits(result.labels, expected.labels)
        assert same_bits(result.centroids, expected.centroids)
        assert same_bits(np.float64(result.inertia), np.float64(expected.inertia))
    pairs = counters.pop("cluster.distance_pairs", 0)
    assert counters == expected_counters
    restarts = counters.get("cluster.restarts", 0)
    steps = counters.get("cluster.lloyd_iterations", 0) + counters.get(
        "cluster.balance_rounds", 0
    )
    assert pairs <= (restarts + steps) * k * n
    if not isinstance(expected, Exception):
        assert pairs >= restarts * k * n


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
        distances = clustering._pairwise_sq_distances(points, centroids)
        assert same_bits(
            clustering._capacity_assign(distances),
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

    @given(any_problem(), st.integers(0, 2**16), st.integers(1, 3), st.integers(0, 8))
    @settings(max_examples=120, deadline=None)
    def test_kmeans_matches_oracle_kernels(self, problem, seed, n_init, max_iter):
        points, k = problem
        kwargs = dict(seed=seed, n_init=n_init, max_iter=max_iter)
        assert_same_outcome(
            run_counted(clustering.kmeans, points, k, **kwargs),
            run_counted(oracle_kmeans, points, k, **kwargs),
            k,
            len(points),
        )

    @given(
        any_problem(),
        st.integers(0, 2**16),
        st.integers(1, 3),
        st.integers(0, 8),
        st.integers(1, 4),
    )
    @settings(max_examples=120, deadline=None)
    def test_balanced_kmeans_matches_oracle_kernels(
        self, problem, seed, n_init, max_iter, balance_rounds
    ):
        points, k = problem
        kwargs = dict(
            seed=seed, n_init=n_init, max_iter=max_iter, balance_rounds=balance_rounds
        )
        assert_same_outcome(
            run_counted(clustering.balanced_kmeans, points, k, **kwargs),
            run_counted(oracle_balanced_kmeans, points, k, **kwargs),
            k,
            len(points),
        )


class TestKeptDistances:
    """The kept distance matrix and the inline D² draw against full
    recomputation and ``Generator.choice``."""

    @pytest.mark.parametrize("d", DIM_VALUES)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_kmeans_pp_rows_match_kernel(self, d, data):
        # The small pool holds 0.0 and -0.0, so signed zeros meet often.
        n = data.draw(st.integers(1, 16))
        points = data.draw(hnp.arrays(np.float64, (n, d), elements=VALUES))
        k = data.draw(st.integers(1, n))
        seed = data.draw(st.integers(0, 2**16))
        centroids, distances = clustering._kmeans_pp_init(
            points, k, np.random.default_rng(seed)
        )
        kernel = clustering._pairwise_sq_distances(points, centroids).T
        assert same_bits(distances, kernel)
        oracle = oracle_kmeans_pp_init(points, k, np.random.default_rng(seed))
        assert same_bits(centroids, oracle)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_refreshed_rows_match_kernel(self, data):
        n = data.draw(st.integers(1, 12))
        d = data.draw(st.sampled_from([1, 2, 3, 9]))
        k = data.draw(st.integers(1, 6))
        points = data.draw(hnp.arrays(np.float64, (n, d), elements=EXTREME_VALUES))
        previous = data.draw(hnp.arrays(np.float64, (k, d), elements=EXTREME_VALUES))
        centroids = previous.copy()
        for row in range(k):
            move = data.draw(st.sampled_from(["keep", "flip_zeros", "nudge", "point"]))
            if move == "flip_zeros":
                zeros = centroids[row] == 0.0
                centroids[row, zeros] = -centroids[row, zeros]
            elif move == "nudge":
                column = data.draw(st.integers(0, d - 1))
                centroids[row, column] += data.draw(NUDGES)
            elif move == "point":
                centroids[row] = points[data.draw(st.integers(0, n - 1))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            distances = clustering._pairwise_sq_distances(points, previous).T.copy()
            with metrics.capturing() as registry:
                clustering._refresh_rows(points, distances, previous, centroids)
            expected = clustering._pairwise_sq_distances(points, centroids).T
        assert same_bits(distances, expected)
        moved = int((previous != centroids).any(axis=1).sum())
        assert registry.counter("cluster.distance_pairs") == moved * n

    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 40),
            # Subnormal, overflowing and NaN totals go through choice.
            elements=st.one_of(
                st.sampled_from([0.0, 1.0, 1e-310, 5e-324, 1e-160, 1e300]),
                st.sampled_from([np.inf, np.nan]),
                st.floats(0, 1e3),
            ),
        ),
        st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_d2_draw_matches_generator_choice(self, weights, seed):
        total = weights.sum()
        if total <= 0:
            return  # k-means++ re-seeds without a draw here
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            outcomes = []
            for draw in (
                lambda: clustering._d2_draw(weights, total, ours),
                lambda: int(theirs.choice(len(weights), p=weights / total)),
            ):
                try:
                    outcomes.append(draw())
                except ValueError as error:
                    outcomes.append((type(error), str(error)))
        assert outcomes[0] == outcomes[1]
        assert ours.bit_generator.state == theirs.bit_generator.state

    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 20),
            elements=st.sampled_from([0.0, 0.0, 1.0, 2.0, 0.5, 3.0, 1e-3]),
        ),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_d2_draw_on_a_cdf_step(self, weights, data):
        # A uniform equal to a cdf value (or 0.0 before leading zero
        # weights) picks the next index with positive weight.
        total = weights.sum()
        if total <= 0:
            return
        cdf = (weights / total).cumsum()
        cdf /= cdf[-1]
        uniform = data.draw(st.sampled_from([0.0, *cdf[cdf < 1.0].tolist()]))
        assert clustering._d2_draw(weights, total, FixedDraws([uniform])) == int(
            FixedDraws([uniform]).choice(len(weights), p=weights / total)
        )
