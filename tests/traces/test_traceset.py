"""Unit tests for TraceSet."""

import numpy as np
import pytest

from repro.traces import PowerTrace, TimeGrid, TraceSet


@pytest.fixture
def grid():
    return TimeGrid(0, 60, 24)


@pytest.fixture
def trio(grid):
    return TraceSet.from_traces(
        {
            "a": PowerTrace(grid, np.linspace(0, 10, 24)),
            "b": PowerTrace.constant(grid, 5),
            "c": PowerTrace(grid, np.linspace(10, 0, 24)),
        }
    )


class TestConstruction:
    def test_from_traces_preserves_order(self, trio):
        assert trio.ids == ["a", "b", "c"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TraceSet.from_traces({})

    def test_duplicate_ids_rejected(self, grid):
        with pytest.raises(ValueError):
            TraceSet(grid, ["x", "x"], np.ones((2, 24)))

    def test_shape_mismatch_rejected(self, grid):
        with pytest.raises(ValueError):
            TraceSet(grid, ["x"], np.ones((1, 23)))

    def test_negative_rejected(self, grid):
        with pytest.raises(ValueError):
            TraceSet(grid, ["x"], -np.ones((1, 24)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, grid, bad):
        matrix = np.ones((2, 24))
        matrix[1, 5] = bad
        with pytest.raises(ValueError, match="must be finite"):
            TraceSet(grid, ["x", "y"], matrix)

    def test_non_finite_rejected_in_float32(self, grid):
        matrix = np.ones((1, 24), dtype=np.float32)
        matrix[0, 0] = np.inf
        with pytest.raises(ValueError, match="must be finite"):
            TraceSet(grid, ["x"], matrix, dtype=np.float32)

    def test_empty_matrix_accepted(self, grid):
        assert len(TraceSet(grid, [], np.empty((0, 24)))) == 0

    def test_grid_mismatch_rejected(self, grid):
        traces = {
            "a": PowerTrace.constant(grid, 1),
            "b": PowerTrace.constant(TimeGrid(0, 30, 48), 1),
        }
        with pytest.raises(Exception):
            TraceSet.from_traces(traces)


class TestAccess:
    def test_len_contains(self, trio):
        assert len(trio) == 3
        assert "a" in trio
        assert "z" not in trio

    def test_getitem_returns_powertrace(self, trio):
        trace = trio["b"]
        assert isinstance(trace, PowerTrace)
        assert trace.peak() == 5

    def test_row_matches_getitem(self, trio):
        assert np.array_equal(trio.row("a"), trio["a"].values)

    def test_index_of(self, trio):
        assert trio.index_of("c") == 2


class TestBulkStats:
    def test_peaks(self, trio):
        assert np.allclose(trio.peaks(), [10, 5, 10])

    def test_means(self, trio):
        assert trio.means()[1] == pytest.approx(5.0)

    def test_total(self, trio):
        total = trio.total()
        assert total.values[0] == pytest.approx(0 + 5 + 10)

    def test_sum_of_peaks(self, trio):
        assert trio.sum_of_peaks() == pytest.approx(25.0)

    def test_aggregate_peak_le_sum_of_peaks(self, trio):
        assert trio.aggregate_peak() <= trio.sum_of_peaks()

    def test_aggregate_of_subset(self, trio):
        pair = trio.aggregate_of(["a", "c"])
        # a + c is constant 10.
        assert pair.peak() == pytest.approx(10.0)
        assert pair.valley() == pytest.approx(10.0)

    def test_aggregate_of_empty_rejected(self, trio):
        with pytest.raises(ValueError):
            trio.aggregate_of([])

    def test_mean_trace(self, trio):
        mean = trio.mean_trace()
        assert mean.values[0] == pytest.approx(5.0)


class TestSubsetsAndMerge:
    def test_subset_order(self, trio):
        sub = trio.subset(["c", "a"])
        assert sub.ids == ["c", "a"]
        assert np.array_equal(sub.row("c"), trio.row("c"))

    def test_subset_unknown_id(self, trio):
        with pytest.raises(KeyError):
            trio.subset(["nope"])

    def test_merged_with(self, grid, trio):
        other = TraceSet.from_traces({"d": PowerTrace.constant(grid, 1)})
        merged = trio.merged_with(other)
        assert len(merged) == 4
        assert merged.ids[-1] == "d"

    def test_merged_with_overlap_rejected(self, trio):
        with pytest.raises(ValueError):
            trio.merged_with(trio)

    def test_traces_roundtrip(self, trio):
        materialised = trio.traces()
        rebuilt = TraceSet.from_traces(materialised)
        assert np.array_equal(rebuilt.matrix, trio.matrix)


class TestWeekOperations:
    def test_average_weeks(self):
        grid = TimeGrid.for_weeks(2, step_minutes=6 * 60)
        per_week = grid.samples_per_week
        matrix = np.concatenate(
            [np.full(per_week, 2.0), np.full(per_week, 4.0)]
        )[np.newaxis, :]
        ts = TraceSet(grid, ["x"], matrix)
        averaged = ts.average_weeks()
        assert averaged.grid.n_samples == per_week
        assert averaged.row("x").mean() == pytest.approx(3.0)

    def test_week_extraction(self):
        grid = TimeGrid.for_weeks(2, step_minutes=6 * 60)
        per_week = grid.samples_per_week
        matrix = np.concatenate(
            [np.full(per_week, 2.0), np.full(per_week, 4.0)]
        )[np.newaxis, :]
        ts = TraceSet(grid, ["x"], matrix)
        assert ts.week(1).row("x").mean() == pytest.approx(4.0)

    def test_week_out_of_range(self, trio):
        with pytest.raises(Exception):
            trio.week(5)


class TestDtype:
    def test_default_storage_is_float64(self, trio):
        assert trio.matrix.dtype == np.float64

    def test_float32_storage_is_kept(self, grid):
        matrix = np.random.default_rng(0).random((3, 24)).astype(np.float32)
        ts = TraceSet(grid, ["a", "b", "c"], matrix, dtype=np.float32)
        assert ts.matrix.dtype == np.float32
        # Matching dtype means zero-copy: the set wraps the caller's array.
        assert ts.matrix is matrix

    def test_float32_survives_derivations(self):
        week_grid = TimeGrid(0, 60, 7 * 24)
        matrix = np.abs(
            np.random.default_rng(1).random((3, week_grid.n_samples))
        ).astype(np.float32)
        ts = TraceSet(week_grid, ["a", "b", "c"], matrix, dtype=np.float32)
        assert ts.subset(["a", "c"]).matrix.dtype == np.float32
        assert ts.week(0).matrix.dtype == np.float32
        assert ts.average_weeks().matrix.dtype == np.float32

    def test_merged_with_promotes_dtype(self, grid):
        f32 = TraceSet(grid, ["a"], np.ones((1, 24), dtype=np.float32), dtype=np.float32)
        f64 = TraceSet(grid, ["b"], np.ones((1, 24)))
        assert f32.merged_with(f64).matrix.dtype == np.float64
