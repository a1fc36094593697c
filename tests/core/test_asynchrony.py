"""Unit tests for asynchrony scores (Eq. 6-7, Sec. 3.4/3.6)."""

import numpy as np
import pytest

from repro import obs
from repro.core import (
    asynchrony_score,
    averaged_group_trace,
    differential_score,
    differential_scores_for_node,
    pairwise_asynchrony,
    score_matrix,
    score_vector,
)
from repro.traces import PowerTrace, TimeGrid, TraceSet


@pytest.fixture
def grid():
    return TimeGrid(0, 60, 24)


def up(grid, peak=10.0):
    return PowerTrace(grid, np.linspace(0, peak, 24))


def down(grid, peak=10.0):
    return PowerTrace(grid, np.linspace(peak, 0, 24))


class TestScore:
    def test_identical_traces_score_one(self, grid):
        assert asynchrony_score([up(grid), up(grid)]) == pytest.approx(1.0)

    def test_perfectly_out_of_phase_pair(self, grid):
        """The Figure 3 example: anti-phase traces score close to 2."""
        score = asynchrony_score([up(grid), down(grid)])
        assert score == pytest.approx(2.0)

    def test_singleton_scores_one(self, grid):
        assert asynchrony_score([up(grid)]) == pytest.approx(1.0)

    def test_bounds(self, grid, rng):
        traces = [
            PowerTrace(grid, rng.random(24) * 10) for _ in range(5)
        ]
        score = asynchrony_score(traces)
        assert 1.0 <= score <= 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            asynchrony_score([])

    def test_zero_traces_score_one(self, grid):
        assert asynchrony_score([PowerTrace.zeros(grid)] * 3) == 1.0

    def test_traceset_and_list_agree(self, grid):
        traces = {"a": up(grid), "b": down(grid), "c": up(grid, 5)}
        as_set = asynchrony_score(TraceSet.from_traces(traces))
        as_list = asynchrony_score(list(traces.values()))
        assert as_set == pytest.approx(as_list)

    def test_pairwise_matches_score(self, grid):
        assert pairwise_asynchrony(up(grid), down(grid)) == pytest.approx(
            asynchrony_score([up(grid), down(grid)])
        )


class TestScoreVectors:
    def test_score_vector_shape(self, grid):
        basis = TraceSet.from_traces({"s1": up(grid), "s2": down(grid)})
        vector = score_vector(up(grid), basis)
        assert vector.shape == (2,)

    def test_score_vector_values(self, grid):
        basis = TraceSet.from_traces({"s1": up(grid), "s2": down(grid)})
        vector = score_vector(up(grid), basis)
        assert vector[0] == pytest.approx(1.0)   # synchronous with s1
        assert vector[1] == pytest.approx(2.0)   # anti-phase with s2

    def test_score_matrix_matches_vectors(self, grid):
        basis = TraceSet.from_traces({"s1": up(grid), "s2": down(grid)})
        instances = TraceSet.from_traces(
            {"i1": up(grid), "i2": down(grid), "i3": up(grid, 3)}
        )
        matrix = score_matrix(instances, basis)
        assert matrix.shape == (3, 2)
        for row, instance_id in enumerate(instances.ids):
            expected = score_vector(instances[instance_id], basis)
            assert np.allclose(matrix[row], expected)

    def test_score_matrix_chunking_invariant(self, grid, rng):
        basis = TraceSet.from_traces({"s1": up(grid), "s2": down(grid)})
        instances = TraceSet.from_traces(
            {f"i{k}": PowerTrace(grid, rng.random(24)) for k in range(10)}
        )
        a = score_matrix(instances, basis, chunk_size=3)
        b = score_matrix(instances, basis, chunk_size=100)
        assert np.allclose(a, b)

    def test_bad_chunk_size(self, grid):
        basis = TraceSet.from_traces({"s1": up(grid)})
        with pytest.raises(ValueError):
            score_matrix(basis, basis, chunk_size=0)

    def test_max_bytes_bounds_chunking_without_changing_results(self, grid, rng):
        """Regression: the block size is derived from the memory bound, and
        chunking is a pure locality knob — results are bit-for-bit stable."""
        basis = TraceSet.from_traces(
            {f"s{k}": PowerTrace(grid, rng.random(24)) for k in range(4)}
        )
        instances = TraceSet.from_traces(
            {f"i{k}": PowerTrace(grid, rng.random(24)) for k in range(12)}
        )
        unbounded = score_matrix(instances, basis, max_bytes=None)
        # One plane row is 24 samples × 8 bytes = 192 B, so this bound
        # forces chunk_size down to a single row.
        tight = score_matrix(instances, basis, max_bytes=192)
        generous = score_matrix(instances, basis, max_bytes=1 << 30)
        assert np.array_equal(unbounded, tight)
        assert np.array_equal(unbounded, generous)

    def test_max_bytes_bounds_the_plane_not_the_basis_block(self, grid, rng):
        """Scoring works in one (chunk, T) plane however large the basis."""
        basis = TraceSet.from_traces(
            {f"s{k}": PowerTrace(grid, rng.random(24)) for k in range(4)}
        )
        instances = TraceSet.from_traces(
            {f"i{k}": PowerTrace(grid, rng.random(24)) for k in range(12)}
        )
        before = obs.snapshot_metrics()["counters"].get("score.chunks", 0.0)
        score_matrix(instances, basis, max_bytes=2 * 24 * 8)
        after = obs.snapshot_metrics()["counters"].get("score.chunks", 0.0)
        assert after - before == 6

    def test_max_bytes_smaller_than_a_row_still_progresses(self, grid):
        basis = TraceSet.from_traces({"s1": up(grid), "s2": down(grid)})
        instances = TraceSet.from_traces({"i1": up(grid), "i2": down(grid)})
        # Bound below one row's footprint: clamps to chunk_size=1, not 0.
        result = score_matrix(instances, basis, max_bytes=1)
        assert np.allclose(result, score_matrix(instances, basis, max_bytes=None))

    def test_bad_max_bytes(self, grid):
        basis = TraceSet.from_traces({"s1": up(grid)})
        with pytest.raises(ValueError):
            score_matrix(basis, basis, max_bytes=0)
        with pytest.raises(ValueError):
            score_matrix(basis, basis, max_bytes=-64)

    def test_grid_mismatch_rejected(self, grid):
        basis = TraceSet.from_traces({"s1": up(grid)})
        other = PowerTrace.constant(TimeGrid(0, 30, 48), 1)
        with pytest.raises(Exception):
            score_vector(other, basis)

    def test_checks_run_inside_the_score_span(self, grid):
        """The span covers the whole call: a mismatched grid raises with a
        ``score`` span already recorded, so a caller timing the call and
        the span measure the same work."""
        basis = TraceSet.from_traces({"s1": up(grid)})
        other = TraceSet.from_traces({"i1": PowerTrace.constant(TimeGrid(0, 30, 48), 1)})
        with obs.tracing() as tracer, pytest.raises(Exception):
            score_matrix(other, basis)
        assert [span.name for span in tracer.walk()] == ["score"]

    def test_float32_fast_path_tracks_exact_scores(self, grid, rng):
        basis = TraceSet.from_traces(
            {f"s{k}": PowerTrace(grid, rng.random(24)) for k in range(4)}
        )
        instances = TraceSet.from_traces(
            {f"i{k}": PowerTrace(grid, rng.random(24) * 5) for k in range(32)}
        )
        exact = score_matrix(instances, basis)
        fast = score_matrix(instances, basis, dtype=np.float32)
        # Scores come back float64 either way; only rounding differs.
        assert fast.dtype == np.float64
        assert np.allclose(exact, fast, rtol=1e-5, atol=1e-6)
        assert not np.array_equal(exact, fast) or exact.size == 0

    def test_default_dtype_is_bit_exact_float64(self, grid, rng):
        basis = TraceSet.from_traces(
            {f"s{k}": PowerTrace(grid, rng.random(24)) for k in range(3)}
        )
        instances = TraceSet.from_traces(
            {f"i{k}": PowerTrace(grid, rng.random(24)) for k in range(8)}
        )
        assert np.array_equal(
            score_matrix(instances, basis),
            score_matrix(instances, basis, dtype=np.float64),
        )


class TestDifferentialScores:
    def test_averaged_group_trace(self, grid):
        group = TraceSet.from_traces(
            {"a": up(grid), "b": down(grid), "c": PowerTrace.constant(grid, 4)}
        )
        pa = averaged_group_trace(group, "c")
        expected = (up(grid) + down(grid)) / 2
        assert pa == expected

    def test_averaged_group_needs_membership(self, grid):
        group = TraceSet.from_traces({"a": up(grid), "b": down(grid)})
        with pytest.raises(ValueError):
            averaged_group_trace(group, "zzz")

    def test_averaged_group_needs_two(self, grid):
        group = TraceSet.from_traces({"a": up(grid)})
        with pytest.raises(ValueError):
            averaged_group_trace(group, "a")

    def test_differential_score_value(self, grid):
        group = TraceSet.from_traces({"a": up(grid), "b": down(grid)})
        pa = averaged_group_trace(group, "a")
        score = differential_score(group["a"], pa)
        # a vs (b alone) is perfectly anti-phase.
        assert score == pytest.approx(2.0)

    def test_differential_scores_for_node(self, grid):
        group = TraceSet.from_traces(
            {"a": up(grid), "b": up(grid), "c": down(grid)}
        )
        scores = differential_scores_for_node(group)
        assert set(scores) == {"a", "b", "c"}
        # c peaks opposite the rest: it fits best (highest score).
        assert scores["c"] > scores["a"]

    def test_differential_scores_match_definition(self, grid):
        group = TraceSet.from_traces(
            {"a": up(grid), "b": down(grid), "c": PowerTrace.constant(grid, 2)}
        )
        scores = differential_scores_for_node(group)
        pa = averaged_group_trace(group, "a")
        assert scores["a"] == pytest.approx(differential_score(group["a"], pa))

    def test_needs_two_members(self, grid):
        group = TraceSet.from_traces({"a": up(grid)})
        with pytest.raises(ValueError):
            differential_scores_for_node(group)
