"""Unit tests for k-means and balanced k-means."""

import numpy as np
import pytest

from repro import obs
from repro.core import balanced_kmeans, kmeans
from repro.obs import metrics


def blobs(rng, centers, per_cluster=20, spread=0.1):
    points = []
    for cx, cy in centers:
        points.append(
            np.column_stack(
                [
                    rng.normal(cx, spread, per_cluster),
                    rng.normal(cy, spread, per_cluster),
                ]
            )
        )
    return np.vstack(points)


class TestNonFinitePoints:
    @pytest.mark.parametrize("cluster", [kmeans, balanced_kmeans])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [1, 3])
    def test_rejected_naming_the_first_bad_row(self, rng, cluster, bad, k):
        points = rng.random((8, 2))
        points[5, 1] = bad
        points[6, 0] = bad
        with pytest.raises(ValueError, match="finite: row 5 "):
            cluster(points, k)


    def test_checks_run_inside_the_cluster_span(self):
        """The span covers the whole call: a NaN point raises with a
        ``cluster`` span already recorded, so a caller timing the call and
        the span measure the same work."""
        points = np.zeros((6, 2))
        points[4, 0] = np.nan
        with obs.tracing() as tracer, pytest.raises(ValueError, match="row 4 "):
            balanced_kmeans(points, 2)
        assert [span.name for span in tracer.walk()] == ["cluster"]


class TestStacks:
    def test_stack_returns_each_problems_own_result(self, rng):
        points = rng.random((3, 20, 4))
        stacked = balanced_kmeans(points, 4, seed=[5, 6, 7])
        assert isinstance(stacked, list) and len(stacked) == 3
        for problem, seed, result in zip(points, [5, 6, 7], stacked):
            alone = balanced_kmeans(problem, 4, seed=seed)
            assert np.array_equal(result.labels, alone.labels)
            assert np.array_equal(result.centroids, alone.centroids)
            assert result.inertia == alone.inertia

    @pytest.mark.parametrize("cluster", [kmeans, balanced_kmeans])
    @pytest.mark.parametrize("seed", [0, [1, 2], [[1, 2, 3]]])
    def test_a_stack_needs_one_seed_per_problem(self, rng, cluster, seed):
        with pytest.raises(ValueError, match="a stack of 3 problems needs as many seeds"):
            cluster(rng.random((3, 5, 2)), 2, seed=seed)

    def test_a_bad_point_is_named_in_its_problem(self, rng):
        points = rng.random((3, 5, 2))
        points[1, 3, 1] = np.inf
        points[2, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite: row 3 "):
            kmeans(points, 2, seed=[0, 1, 2])


class TestKMeans:
    def test_recovers_separated_blobs(self, rng):
        points = blobs(rng, [(0, 0), (10, 10), (0, 10)])
        result = kmeans(points, 3, seed=1)
        # Every blob should be pure: its 20 members share one label.
        for start in range(0, 60, 20):
            labels = result.labels[start : start + 20]
            assert len(set(labels.tolist())) == 1

    def test_inertia_decreases_with_k(self, rng):
        points = blobs(rng, [(0, 0), (5, 5)])
        i1 = kmeans(points, 1, seed=0).inertia
        i2 = kmeans(points, 2, seed=0).inertia
        assert i2 < i1

    def test_k_equals_n(self, rng):
        points = rng.random((5, 2))
        result = kmeans(points, 5, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-9)

    def test_k_one(self, rng):
        points = rng.random((10, 3))
        result = kmeans(points, 1, seed=0)
        assert np.allclose(result.centroids[0], points.mean(axis=0))

    def test_invalid_k(self, rng):
        points = rng.random((5, 2))
        with pytest.raises(ValueError):
            kmeans(points, 0)
        with pytest.raises(ValueError):
            kmeans(points, 6)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros(5), 2)

    def test_determinism(self, rng):
        points = rng.random((40, 3))
        a = kmeans(points, 4, seed=7)
        b = kmeans(points, 4, seed=7)
        assert np.array_equal(a.labels, b.labels)

    def test_duplicate_points(self):
        points = np.ones((10, 2))
        result = kmeans(points, 3, seed=0)
        assert result.inertia == pytest.approx(0.0)

    def test_members_and_sizes(self, rng):
        points = rng.random((12, 2))
        result = kmeans(points, 3, seed=0)
        assert result.sizes().sum() == 12
        for cluster in range(result.k):
            for idx in result.members(cluster):
                assert result.labels[idx] == cluster

    def test_members_out_of_range(self, rng):
        result = kmeans(rng.random((6, 2)), 2, seed=0)
        with pytest.raises(IndexError):
            result.members(5)


class TestBalancedKMeans:
    def test_sizes_differ_by_at_most_one(self, rng):
        points = rng.random((50, 4))
        result = balanced_kmeans(points, 7, seed=0)
        sizes = result.sizes()
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == 50

    def test_exactly_equal_when_divisible(self, rng):
        points = rng.random((40, 3))
        result = balanced_kmeans(points, 4, seed=0)
        assert np.all(result.sizes() == 10)

    def test_balanced_on_imbalanced_blobs(self, rng):
        """Even if natural clusters are 90/10, output sizes are equal."""
        points = np.vstack(
            [
                rng.normal(0, 0.1, (90, 2)),
                rng.normal(10, 0.1, (10, 2)),
            ]
        )
        result = balanced_kmeans(points, 2, seed=0)
        assert np.all(result.sizes() == 50)

    def test_respects_geometry_when_natural(self, rng):
        points = blobs(rng, [(0, 0), (10, 10)], per_cluster=25)
        result = balanced_kmeans(points, 2, seed=0)
        first_half = set(result.labels[:25].tolist())
        second_half = set(result.labels[25:].tolist())
        assert first_half != second_half
        assert len(first_half) == 1 and len(second_half) == 1

    def test_determinism(self, rng):
        points = rng.random((30, 2))
        a = balanced_kmeans(points, 3, seed=5)
        b = balanced_kmeans(points, 3, seed=5)
        assert np.array_equal(a.labels, b.labels)

    def test_k_one(self, rng):
        points = rng.random((10, 2))
        result = balanced_kmeans(points, 1, seed=0)
        assert np.all(result.labels == 0)

    def test_k_equals_n(self, rng):
        points = rng.random((6, 2))
        result = balanced_kmeans(points, 6, seed=0)
        assert np.all(result.sizes() == 1)

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            balanced_kmeans(rng.random((4, 2)), 5)
        with pytest.raises(ValueError):
            balanced_kmeans(np.zeros(4), 1)


class TestDistanceWork:
    def test_counters_pinned_on_a_seeded_problem(self):
        """``cluster.distance_pairs`` counts each point–centroid distance
        computed: the k-means++ rows, then only rows of moved centroids.
        Recomputing every row on every step would count 14400 here."""
        points = np.random.default_rng(11).random((60, 4))
        with metrics.capturing() as registry:
            balanced_kmeans(points, 8, seed=3)
        names = ("restarts", "lloyd_iterations", "balance_rounds", "distance_pairs")
        assert {name: registry.counter(f"cluster.{name}") for name in names} == {
            "restarts": 4,
            "lloyd_iterations": 17,
            "balance_rounds": 4,
            "distance_pairs": 7200,
        }
