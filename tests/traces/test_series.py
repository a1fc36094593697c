"""Unit tests for PowerTrace."""

import numpy as np
import pytest

from repro.traces import PowerTrace, TimeGrid, normalize_traces
from repro.traces.series import check_power_values


@pytest.fixture
def small_grid():
    return TimeGrid(0, 60, 24)


def ramp(grid):
    return PowerTrace(grid, np.linspace(0, 100, grid.n_samples))


class TestConstruction:
    def test_valid(self, small_grid):
        trace = PowerTrace(small_grid, np.ones(24))
        assert len(trace) == 24

    def test_rejects_wrong_length(self, small_grid):
        with pytest.raises(ValueError):
            PowerTrace(small_grid, np.ones(23))

    def test_rejects_negative(self, small_grid):
        values = np.ones(24)
        values[3] = -1
        with pytest.raises(ValueError):
            PowerTrace(small_grid, values)

    def test_rejects_nan(self, small_grid):
        values = np.ones(24)
        values[0] = np.nan
        with pytest.raises(ValueError):
            PowerTrace(small_grid, values)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({0: np.inf}, "must be finite"),
            ({0: -np.inf}, "must be finite"),
            ({3: -1.0, 7: np.nan}, "must be finite"),  # non-finite is reported first
            ({3: -1.0}, "cannot be negative"),
        ],
    )
    def test_rejection_messages(self, small_grid, bad, message):
        values = np.ones(24)
        for index, value in bad.items():
            values[index] = value
        with pytest.raises(ValueError, match=message):
            PowerTrace(small_grid, values)

    def test_negative_zero_accepted(self, small_grid):
        values = np.ones(24)
        values[2] = -0.0
        assert PowerTrace(small_grid, values).valley() == 0.0

    def test_rejects_2d(self, small_grid):
        with pytest.raises(ValueError):
            PowerTrace(small_grid, np.ones((2, 12)))

    def test_constant(self, small_grid):
        trace = PowerTrace.constant(small_grid, 42.0)
        assert trace.peak() == 42.0
        assert trace.valley() == 42.0

    def test_zeros(self, small_grid):
        assert PowerTrace.zeros(small_grid).peak() == 0.0


class TestRows:
    """``PowerTrace.rows``: one trace per row, the block checked once."""

    def test_rows_equal_per_row_construction(self, small_grid):
        block = np.arange(3 * 24, dtype=np.float64).reshape(3, 24)
        traces = PowerTrace.rows(small_grid, block)
        assert traces == [PowerTrace(small_grid, row) for row in block]
        for trace, row in zip(traces, block):
            assert trace.grid is small_grid
            # A view of its row, as PowerTrace(grid, row) holds.
            assert np.shares_memory(trace.values, block)
            assert np.array_equal(trace.values, row)

    def test_accepts_array_likes(self, small_grid):
        traces = PowerTrace.rows(small_grid, [list(range(24))])
        assert traces == [PowerTrace(small_grid, np.arange(24.0))]

    def test_empty_block(self, small_grid):
        assert PowerTrace.rows(small_grid, np.empty((0, 24))) == []

    @pytest.mark.parametrize("shape", [(), (24,), (2, 3, 24)])
    def test_rejects_a_block_that_is_not_2d(self, small_grid, shape):
        with pytest.raises(ValueError, match="must be 2-D"):
            PowerTrace.rows(small_grid, np.ones(shape))

    @pytest.mark.parametrize("width", [23, 25])
    def test_rejects_a_wrong_width(self, small_grid, width):
        with pytest.raises(ValueError, match=f"{width} samples per row but grid expects 24"):
            PowerTrace.rows(small_grid, np.ones((2, width)))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({(0, 0): np.nan}, "must be finite"),
            ({(1, 5): np.inf}, "must be finite"),
            ({(2, 23): -np.inf}, "must be finite"),
            ({(0, 3): -1.0, (2, 7): np.nan}, "must be finite"),
            ({(1, 3): -1.0}, "cannot be negative"),
        ],
    )
    def test_raises_what_check_power_values_raises(self, small_grid, bad, message):
        block = np.ones((3, 24))
        for position, value in bad.items():
            block[position] = value
        with pytest.raises(ValueError, match=message) as bulk:
            PowerTrace.rows(small_grid, block)
        with pytest.raises(ValueError) as direct:
            check_power_values(block)
        assert str(bulk.value) == str(direct.value)


class TestArithmetic:
    def test_add(self, small_grid):
        total = ramp(small_grid) + PowerTrace.constant(small_grid, 10)
        assert total.valley() == pytest.approx(10.0)
        assert total.peak() == pytest.approx(110.0)

    def test_add_grid_mismatch(self, small_grid):
        other = PowerTrace.constant(TimeGrid(0, 30, 48), 1.0)
        with pytest.raises(Exception):
            ramp(small_grid) + other

    def test_subtract_clamps_at_zero(self, small_grid):
        low = PowerTrace.constant(small_grid, 10)
        high = PowerTrace.constant(small_grid, 30)
        diff = low - high
        assert diff.peak() == 0.0

    def test_scalar_multiply(self, small_grid):
        doubled = ramp(small_grid) * 2
        assert doubled.peak() == pytest.approx(200.0)

    def test_rmul(self, small_grid):
        doubled = 2 * ramp(small_grid)
        assert doubled.peak() == pytest.approx(200.0)

    def test_negative_scale_rejected(self, small_grid):
        with pytest.raises(ValueError):
            ramp(small_grid) * -1

    def test_divide(self, small_grid):
        halved = ramp(small_grid) / 2
        assert halved.peak() == pytest.approx(50.0)

    def test_divide_by_zero_rejected(self, small_grid):
        with pytest.raises(ValueError):
            ramp(small_grid) / 0

    def test_aggregate(self, small_grid):
        traces = [PowerTrace.constant(small_grid, i) for i in (1, 2, 3)]
        assert PowerTrace.aggregate(traces).peak() == pytest.approx(6.0)

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            PowerTrace.aggregate([])

    def test_aggregate_exact_matches_stacked_reduce(self, small_grid):
        """The row-by-row sum must stay bit-identical to the historical
        single-stack axis-0 sum."""
        rng = np.random.default_rng(7)
        traces = [PowerTrace(small_grid, rng.random(24) * 10) for _ in range(50)]
        stacked = np.stack([t.values for t in traces]).sum(axis=0)
        result = PowerTrace.aggregate(traces)
        assert np.array_equal(result.values, stacked)

    def test_equality(self, small_grid):
        assert ramp(small_grid) == ramp(small_grid)
        assert ramp(small_grid) != PowerTrace.constant(small_grid, 5)

    def test_unhashable(self, small_grid):
        with pytest.raises(TypeError):
            hash(ramp(small_grid))


class TestStatistics:
    def test_peak_valley_mean(self, small_grid):
        trace = ramp(small_grid)
        assert trace.peak() == pytest.approx(100.0)
        assert trace.valley() == pytest.approx(0.0)
        assert trace.mean() == pytest.approx(50.0)

    def test_peak_time_index(self, small_grid):
        assert ramp(small_grid).peak_time_index() == 23

    def test_percentile(self, small_grid):
        trace = ramp(small_grid)
        assert trace.percentile(100) == pytest.approx(100.0)
        assert trace.percentile(0) == pytest.approx(0.0)

    def test_percentile_bounds(self, small_grid):
        with pytest.raises(ValueError):
            ramp(small_grid).percentile(101)

    def test_peak_to_mean(self, small_grid):
        assert ramp(small_grid).peak_to_mean() == pytest.approx(2.0)
        assert PowerTrace.zeros(small_grid).peak_to_mean() == 1.0


class TestSlack:
    def test_power_slack(self, small_grid):
        trace = PowerTrace.constant(small_grid, 40)
        slack = trace.power_slack(100)
        assert np.allclose(slack, 60.0)

    def test_power_slack_rejects_low_budget(self, small_grid):
        with pytest.raises(ValueError):
            ramp(small_grid).power_slack(50)

    def test_energy_slack(self, small_grid):
        trace = PowerTrace.constant(small_grid, 40)
        # 60 W slack x 24 samples x 60 minutes
        assert trace.energy_slack(100) == pytest.approx(60 * 24 * 60)

    def test_energy(self, small_grid):
        trace = PowerTrace.constant(small_grid, 10)
        assert trace.energy() == pytest.approx(10 * 24 * 60)


class TestTimeStructure:
    def test_slice(self, small_grid):
        sub = ramp(small_grid).slice(6, 12)
        assert len(sub) == 6
        assert sub.grid.start_minute == 6 * 60

    def test_slice_invalid(self, small_grid):
        with pytest.raises(ValueError):
            ramp(small_grid).slice(12, 6)

    def test_week_and_split(self):
        grid = TimeGrid.for_weeks(2, step_minutes=60 * 6)
        values = np.concatenate([np.full(28, 1.0), np.full(28, 3.0)])
        trace = PowerTrace(grid, values)
        weeks = trace.split_weeks()
        assert len(weeks) == 2
        assert weeks[0].mean() == pytest.approx(1.0)
        assert weeks[1].mean() == pytest.approx(3.0)

    def test_week_out_of_range(self):
        grid = TimeGrid.for_weeks(1, step_minutes=60 * 6)
        with pytest.raises(IndexError):
            PowerTrace.zeros(grid).week(1)

    def test_average_weeks(self):
        grid = TimeGrid.for_weeks(2, step_minutes=60 * 6)
        values = np.concatenate([np.full(28, 1.0), np.full(28, 3.0)])
        averaged = PowerTrace(grid, values).average_weeks()
        assert len(averaged) == 28
        assert averaged.mean() == pytest.approx(2.0)

    def test_average_weeks_requires_whole_weeks(self, small_grid):
        with pytest.raises(ValueError):
            ramp(small_grid).average_weeks()

    def test_hourly_means_shape(self):
        grid = TimeGrid.for_days(2, step_minutes=30)
        means = PowerTrace.constant(grid, 5).hourly_means()
        assert means.shape == (24,)
        assert np.allclose(means, 5.0)

    def test_peak_hour(self):
        grid = TimeGrid.for_days(1, step_minutes=60)
        values = np.zeros(24)
        values[14] = 10
        assert PowerTrace(grid, values).peak_hour() == 14

    def test_resample(self):
        grid = TimeGrid.for_days(1, step_minutes=10)
        trace = PowerTrace(grid, np.arange(144, dtype=float))
        coarse = trace.resample(60)
        assert len(coarse) == 24
        assert coarse.values[0] == pytest.approx(np.arange(6).mean())

    def test_resample_identity(self):
        grid = TimeGrid.for_days(1, step_minutes=10)
        trace = PowerTrace(grid, np.arange(144, dtype=float))
        assert trace.resample(10) == trace

    def test_resample_invalid(self):
        grid = TimeGrid.for_days(1, step_minutes=10)
        with pytest.raises(ValueError):
            PowerTrace.zeros(grid).resample(15)

    def test_smooth_preserves_length(self, small_grid):
        smoothed = ramp(small_grid).smooth(180)
        assert len(smoothed) == 24

    def test_smooth_reduces_variance(self):
        grid = TimeGrid.for_days(1, step_minutes=10)
        rng = np.random.default_rng(0)
        noisy = PowerTrace(grid, 50 + 10 * rng.random(144))
        smoothed = noisy.smooth(120)
        assert smoothed.values.std() < noisy.values.std()


class TestNormalize:
    def test_normalize_to_unit_peak(self, small_grid):
        traces = [ramp(small_grid), PowerTrace.constant(small_grid, 50)]
        normalized = normalize_traces(traces)
        assert max(t.peak() for t in normalized) == pytest.approx(1.0)
        assert normalized[1].peak() == pytest.approx(0.5)

    def test_normalize_empty(self):
        assert normalize_traces([]) == []

    def test_normalize_all_zero(self, small_grid):
        normalized = normalize_traces([PowerTrace.zeros(small_grid)])
        assert normalized[0].peak() == 0.0
