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
k-means++'s picks through ``Generator.choice`` and clusters one problem
per call.  The kernels run a stack of problems of one shape in lockstep,
so each is also held to the oracle on stacks: every problem of a stack must
get its own call's bits, and the stack the error of its first problem the
oracle rejects.
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
def oracle_as_points(points):
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
    points = oracle_as_points(points)
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
    points = oracle_as_points(points)
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


def kernel_distances(points, centroids):
    """:func:`~repro.core.clustering._distance_rows` for one problem, as an
    ``(n, k)`` matrix."""
    rows = clustering._distance_rows(
        clustering._dims_first(points[np.newaxis]),
        np.zeros(len(centroids), dtype=np.intp),
        centroids,
    )
    return rows.T


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
def problems(draw, max_n=16, shape=None):
    """Points, then centroids: random, copied from the points, or mixed.
    ``shape`` fixes ``(n, d, k)``."""
    n, d, k = shape or (draw(st.integers(1, max_n)), draw(DIMS), None)
    points = draw(hnp.arrays(np.float64, (n, d), elements=VALUES))
    if k is None:
        k = draw(st.one_of(st.just(n), st.integers(1, n)))
    free = draw(hnp.arrays(np.float64, (k, d), elements=VALUES))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    copied = points[rows]
    mix = draw(hnp.arrays(np.bool_, (k,)))
    centroids = np.where(mix[:, np.newaxis], copied, free)
    return points, centroids


@st.composite
def settling_problems(draw, max_n=60, shape=None):
    """Points in tight groups around a few centres, plus strays: Lloyd's
    loop settles some centroids early while others still move."""
    d = shape[1] if shape else draw(DIMS)
    n_centres = draw(st.integers(1, 6))
    centres = draw(
        hnp.arrays(
            np.float64,
            (n_centres, d),
            elements=st.sampled_from([0.0, 1.0, 4.0, -3.0, 10.0]),
        )
    )
    n = shape[0] if shape else draw(st.integers(2, max_n))
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
    k = shape[2] if shape else draw(st.integers(1, n))
    return points, k


@st.composite
def extreme_problems(draw, max_n=12, shape=None):
    n, d, k = shape or (draw(st.integers(1, max_n)), draw(st.sampled_from([1, 2, 3, 9])), None)
    points = draw(hnp.arrays(np.float64, (n, d), elements=EXTREME_VALUES))
    return points, k if k is not None else draw(st.integers(1, n))


def any_problem():
    return st.one_of(
        problems().map(lambda problem: (problem[0], problem[1].shape[0])),
        settling_problems(),
        extreme_problems(),
    )


@st.composite
def stacks(draw, max_problems=7):
    """1 to ``max_problems`` problems of one shape from one of the three
    strategies, stacked ``(P, n, d)``, with their ``k`` and one seed each."""
    kind = draw(st.sampled_from(["problems", "settling", "extreme"]))
    strategy = {
        "problems": lambda **kw: problems(**kw).map(lambda pc: (pc[0], pc[1].shape[0])),
        "settling": settling_problems,
        "extreme": extreme_problems,
    }[kind]
    points, k = draw(strategy())
    shape = (*points.shape, k)
    stack = [points] + [
        draw(strategy(shape=shape))[0]
        for _ in range(draw(st.integers(0, max_problems - 1)))
    ]
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=len(stack), max_size=len(stack)))
    return np.stack(stack), k, seeds


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


def run_stacked(fn, oracle, points, k, seeds, **kwargs):
    """``fn`` on a stack, and the oracle's outcome on it: its result for
    each problem, or the error of the first problem it rejects, with the
    counters of every problem's call summed."""
    ours = run_counted(fn, points, k, seed=seeds, **kwargs)
    outcomes, counters = [], {}
    for problem, seed in zip(points, seeds):
        outcome, problem_counters = run_counted(oracle, problem, k, seed=seed, **kwargs)
        outcomes.append(outcome)
        for name, value in problem_counters.items():
            counters[name] = counters.get(name, 0) + value
    rejected = [outcome for outcome in outcomes if isinstance(outcome, Exception)]
    return ours, (rejected[0] if rejected else outcomes, counters)


def assert_same_outcome(ours, theirs, k, n):
    """Same labels, centroids and inertia bits (for each problem of a
    stack), or the same exception, and the oracle's ``cluster.*`` counters
    advanced by as much.  The oracle counts no ``cluster.distance_pairs``;
    that count lies between the k-means++ rows of every restart and one full
    matrix per restart, Lloyd iteration and balance round."""
    (result, counters), (expected, expected_counters) = ours, theirs
    if isinstance(expected, Exception):
        assert isinstance(result, Exception), "the oracle raised"
        assert (type(result), str(result)) == (type(expected), str(expected))
    else:
        assert not isinstance(result, Exception), result
        if not isinstance(expected, list):
            result, expected = [result], [expected]
        assert len(result) == len(expected)
        for got, want in zip(result, expected):
            assert same_bits(got.labels, want.labels)
            assert same_bits(got.centroids, want.centroids)
            assert same_bits(np.float64(got.inertia), np.float64(want.inertia))
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
            kernel_distances(points, centroids),
            oracle_pairwise_sq_distances(points, centroids),
        )

    @given(stacks(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_distance_rows_of_a_stack_match_broadcast_sum(self, stack, data):
        # Rows of several problems gather each row's points.
        points, _, _ = stack
        P, n, d = points.shape
        owners = sorted(data.draw(st.lists(st.integers(0, P - 1), min_size=1, max_size=12)))
        centroids = np.array(
            [
                points[owner, data.draw(st.integers(0, n - 1))]
                if data.draw(st.booleans())
                else data.draw(hnp.arrays(np.float64, (d,), elements=VALUES))
                for owner in owners
            ]
        ).reshape(len(owners), d)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rows = clustering._distance_rows(
                clustering._dims_first(points), np.array(owners), centroids
            )
            for row, owner, centroid in zip(rows, owners, centroids):
                expected = oracle_pairwise_sq_distances(points[owner], centroid[np.newaxis])
                assert same_bits(row, expected[:, 0])

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
        distances = kernel_distances(points, centroids)
        assert same_bits(
            clustering._capacity_assign(distances),
            oracle_capacity_assign(points, centroids, k),
        )

    @given(stacks(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_recompute_centroids_matches_masked_means(self, stack, data):
        points, k, seeds = stack
        P, n, d = points.shape
        previous = data.draw(hnp.arrays(np.float64, (P, k, d), elements=VALUES))
        # Labels over a subset of the clusters leave the rest empty.
        labels = np.array(
            [
                data.draw(st.lists(st.integers(0, used - 1), min_size=n, max_size=n))
                for used in [data.draw(st.integers(1, k)) for _ in range(P)]
            ],
            dtype=np.int64,
        ).reshape(P, n)
        ours = [np.random.default_rng(seed) for seed in seeds]
        theirs = [np.random.default_rng(seed) for seed in seeds]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = clustering._recompute_centroids(points, labels, previous, ours)
            for p in range(P):
                expected = oracle_recompute_centroids(
                    points[p], labels[p], previous[p], theirs[p]
                )
                assert same_bits(got[p], expected)
                # Same draws consumed: the generators continue identically.
                assert ours[p].bit_generator.state == theirs[p].bit_generator.state

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


    @given(stacks(), st.integers(1, 3), st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_kmeans_stack_matches_oracle_per_problem(self, stack, n_init, max_iter):
        points, k, seeds = stack
        ours, theirs = run_stacked(
            clustering.kmeans, oracle_kmeans, points, k, seeds,
            n_init=n_init, max_iter=max_iter,
        )
        assert_same_outcome(ours, theirs, k, points.shape[1])

    @given(stacks(), st.integers(1, 3), st.integers(0, 8), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_balanced_kmeans_stack_matches_oracle_per_problem(
        self, stack, n_init, max_iter, balance_rounds
    ):
        points, k, seeds = stack
        ours, theirs = run_stacked(
            clustering.balanced_kmeans, oracle_balanced_kmeans, points, k, seeds,
            n_init=n_init, max_iter=max_iter, balance_rounds=balance_rounds,
        )
        assert_same_outcome(ours, theirs, k, points.shape[1])


class TestKeptDistances:
    """The kept distance matrix and the inline D² draw against full
    recomputation and ``Generator.choice``."""

    @pytest.mark.parametrize("d", DIM_VALUES)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_kmeans_pp_rows_match_kernel(self, d, data):
        # The small pool holds 0.0 and -0.0, so signed zeros meet often.
        n = data.draw(st.integers(1, 16))
        P = data.draw(st.integers(1, 4))
        points = data.draw(hnp.arrays(np.float64, (P, n, d), elements=VALUES))
        k = data.draw(st.integers(1, n))
        seeds = data.draw(st.lists(st.integers(0, 2**16), min_size=P, max_size=P))
        failed = {}
        centroids, distances = clustering._kmeans_pp_init(
            points, k, [np.random.default_rng(seed) for seed in seeds], failed
        )
        assert failed == {}
        for p, seed in enumerate(seeds):
            kernel = kernel_distances(points[p], centroids[p]).T
            assert same_bits(distances[p], kernel)
            oracle = oracle_kmeans_pp_init(points[p], k, np.random.default_rng(seed))
            assert same_bits(centroids[p], oracle)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_refreshed_rows_match_kernel(self, data):
        P = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 12))
        d = data.draw(st.sampled_from([1, 2, 3, 9]))
        k = data.draw(st.integers(1, 6))
        points = data.draw(hnp.arrays(np.float64, (P, n, d), elements=EXTREME_VALUES))
        previous = data.draw(hnp.arrays(np.float64, (P, k, d), elements=EXTREME_VALUES))
        centroids = previous.copy()
        for p in range(P):
            for row in range(k):
                move = data.draw(st.sampled_from(["keep", "flip_zeros", "nudge", "point"]))
                if move == "flip_zeros":
                    zeros = centroids[p, row] == 0.0
                    centroids[p, row, zeros] = -centroids[p, row, zeros]
                elif move == "nudge":
                    column = data.draw(st.integers(0, d - 1))
                    centroids[p, row, column] += data.draw(NUDGES)
                elif move == "point":
                    centroids[p, row] = points[p, data.draw(st.integers(0, n - 1))]
        # The update covers some of the stack's problems; the rest keep
        # their rows whatever their centroids.
        updated = np.array(
            [p for p in range(P) if data.draw(st.booleans())] or [0], dtype=np.intp
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            before = np.stack([kernel_distances(points[p], previous[p]).T for p in range(P)])
            distances = before.copy()
            with metrics.capturing() as registry:
                clustering._refresh_rows(
                    clustering._dims_first(points),
                    distances,
                    previous[updated],
                    centroids[updated],
                    updated,
                )
            for p in range(P):
                expected = (
                    kernel_distances(points[p], centroids[p]).T if p in updated else before[p]
                )
                assert same_bits(distances[p], expected)
        moved = int((previous[updated] != centroids[updated]).any(axis=2).sum())
        assert registry.counter("cluster.distance_pairs") == moved * n

    @given(
        st.integers(1, 40).flatmap(
            lambda n: hnp.arrays(
                np.float64,
                st.tuples(st.integers(1, 4), st.just(n)),
                # Subnormal, overflowing and NaN totals go through choice.
                elements=st.one_of(
                    st.sampled_from([0.0, 1.0, 1e-310, 5e-324, 1e-160, 1e300]),
                    st.sampled_from([np.inf, np.nan]),
                    st.floats(0, 1e3),
                ),
            )
        ),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_d2_draw_matches_generator_choice(self, weights, data):
        P, n = weights.shape
        seeds = data.draw(st.lists(st.integers(0, 2**16), min_size=P, max_size=P))
        ours = [np.random.default_rng(seed) for seed in seeds]
        theirs = [np.random.default_rng(seed) for seed in seeds]
        failed = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            picks, positive = clustering._d2_draws(weights, ours, failed)
            for p, (row, rng) in enumerate(zip(weights, theirs)):
                total = row.sum()
                if total <= 0:
                    # k-means++ re-seeds from any point here.
                    expected = int(rng.integers(n))
                else:
                    try:
                        expected = int(rng.choice(n, p=row / total))
                    except ValueError as error:
                        expected = (type(error), str(error))
                got = failed[p] if p in failed else int(picks[p])
                if isinstance(got, Exception):
                    got = (type(got), str(got))
                assert got == expected
                assert ours[p].bit_generator.state == rng.bit_generator.state
        # The mask of positive totals (None: all of them) k-means++ narrows
        # the weights of, for every problem that drew.
        live = [p for p in range(P) if p not in failed]
        grows = np.ones(P, dtype=bool) if positive is None else positive[:, 0]
        assert same_bits(grows[live], (weights.sum(axis=1) > 0)[live])

    @given(
        st.integers(1, 20).flatmap(
            lambda n: hnp.arrays(
                np.float64,
                st.tuples(st.integers(1, 3), st.just(n)),
                elements=st.sampled_from([0.0, 0.0, 1.0, 2.0, 0.5, 3.0, 1e-3]),
            )
        ),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_d2_draw_on_a_cdf_step(self, weights, data):
        # A uniform equal to a cdf value (or 0.0 before leading zero
        # weights) picks the next index with positive weight; a stack of
        # one searches its row, a longer stack counts each row at once.
        weights = weights[weights.sum(axis=1) > 0]
        if not len(weights):
            return
        uniforms = []
        for row in weights:
            cdf = (row / row.sum()).cumsum()
            cdf /= cdf[-1]
            uniforms.append(data.draw(st.sampled_from([0.0, *cdf[cdf < 1.0].tolist()])))
        picks, _ = clustering._d2_draws(
            weights, [FixedDraws([uniform]) for uniform in uniforms], {}
        )
        for row, uniform, pick in zip(weights, uniforms, picks):
            assert pick == int(
                FixedDraws([uniform]).choice(len(row), p=row / row.sum())
            )


def stack_of(*problems):
    return np.stack([np.asarray(problem, dtype=np.float64) for problem in problems])


_RANDOM = np.random.default_rng(3)

#: Hand-built stacks, each with its ``k`` and the path off the common one
#: that it takes: k-means++ with no positive weight left after its first
#: pick, a subnormal total drawn through ``Generator.choice``, an
#: overflowed total that ``choice`` rejects (in the second and third
#: problems, with different errors: the stack raises the second's), and
#: Lloyd's loop
#: emptying a cluster; then the dimension ranges and k = 1, k = n.
PATH_CASES = {
    "zero weights": (stack_of(*[np.full((5, 2), value) for value in (0.0, 1.5, -2.0)]), 3),
    "subnormal total": (
        stack_of([[0.0], [1e-160], [0.0], [1e-160]], [[1e-160], [0.0], [0.0], [0.0]]),
        2,
    ),
    "overflowed total": (
        stack_of(
            [[0.0, 1.0], [1.0, 2.0], [3.0, 0.5]],
            [[-1e154, 0.0], [0.0, 0.0], [1e154, 0.0]],
            [[1e200, 0.0], [-1e200, 0.0], [1.0, 1.0]],
        ),
        3,
    ),
    "cluster empties": (stack_of(*[[[0.0], [0.0], [0.0], [0.0], [v]] for v in (1.0, 2.0, 7.5)]), 3),
    "d = 4": (_RANDOM.random((5, 30, 4)), 6),
    "d = 9": (_RANDOM.integers(0, 3, (4, 30, 9)).astype(np.float64), 8),
    "d = 17": (_RANDOM.normal(size=(3, 40, 17)).round(1), 5),
    "k = 1": (_RANDOM.random((4, 12, 3)), 1),
    "k = n": (_RANDOM.integers(0, 2, (4, 7, 2)).astype(np.float64), 7),
}


class TestStackPaths:
    """Each hand-built stack against the oracle per problem, with spies
    showing it took its path."""

    @pytest.mark.parametrize("fn, oracle", [
        (clustering.kmeans, oracle_kmeans),
        (clustering.balanced_kmeans, oracle_balanced_kmeans),
    ], ids=["kmeans", "balanced_kmeans"])
    @pytest.mark.parametrize("case", list(PATH_CASES))
    def test_stack_matches_oracle(self, monkeypatch, case, fn, oracle):
        points, k = PATH_CASES[case]
        seen = {"zero": False, "choice": False, "empty": False}
        draws, recompute = clustering._d2_draws, clustering._recompute_centroids
        calls = []

        def spy_draws(weights, rngs, failed):
            totals = weights.sum(axis=1)
            # Every k-th draw is a restart's first pick, from zero weights.
            if len(calls) % k:
                seen["zero"] |= bool((totals <= 0).any())
                seen["choice"] |= bool(
                    ((totals > 0) & ~(totals >= np.finfo(np.float64).tiny)).any()
                    | (totals > np.finfo(np.float64).max).any()
                )
            calls.append(len(totals))
            return draws(weights, rngs, failed)

        def spy_recompute(points, labels, previous, rngs):
            for row in labels:
                seen["empty"] |= bool((np.bincount(row, minlength=k) == 0).any())
            return recompute(points, labels, previous, rngs)

        monkeypatch.setattr(clustering, "_d2_draws", spy_draws)
        monkeypatch.setattr(clustering, "_recompute_centroids", spy_recompute)
        seeds = list(range(11, 11 + len(points)))
        ours, theirs = run_stacked(fn, oracle, points, k, seeds, n_init=2, max_iter=6)
        assert_same_outcome(ours, theirs, k, points.shape[1])
        taken = {
            "zero weights": seen["zero"],
            "subnormal total": seen["choice"] and not isinstance(ours[0], Exception),
            "overflowed total": str(ours[0])
            == str(run_counted(oracle, points[1], k, seed=12, n_init=2, max_iter=6)[0])
            != str(run_counted(oracle, points[2], k, seed=13, n_init=2, max_iter=6)[0]),
            "cluster empties": seen["empty"],
        }
        assert taken.get(case, True)
