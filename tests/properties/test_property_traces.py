"""Property-based tests for the trace substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.traces import PowerTrace, TimeGrid, TraceSet, sum_rows

GRID24 = TimeGrid(0, 60, 24)
WEEK_GRID = TimeGrid.for_weeks(2, step_minutes=6 * 60)


def values_strategy(n=24, max_value=1e4):
    return hnp.arrays(
        dtype=np.float64,
        shape=n,
        elements=st.floats(0, max_value, allow_nan=False, allow_infinity=False),
    )


traces = values_strategy().map(lambda v: PowerTrace(GRID24, v))


class TestTraceAlgebra:
    @given(traces, traces)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(traces, traces, traces)
    def test_addition_associates(self, a, b, c):
        left = (a + b) + c
        right = a + (b + c)
        assert np.allclose(left.values, right.values)

    @given(traces)
    def test_zero_identity(self, a):
        assert a + PowerTrace.zeros(GRID24) == a

    @given(traces, traces)
    def test_peak_subadditive(self, a, b):
        """peak(a+b) <= peak(a) + peak(b): the entire paper rests on this."""
        assert (a + b).peak() <= a.peak() + b.peak() + 1e-9

    @given(traces, traces)
    def test_peak_superadditive_lower_bound(self, a, b):
        """peak(a+b) >= max(peak(a), peak(b)) for non-negative traces."""
        assert (a + b).peak() >= max(a.peak(), b.peak()) - 1e-9

    @given(traces, st.floats(0, 100, allow_nan=False))
    def test_scaling_scales_peak(self, a, factor):
        assert (a * factor).peak() == pytest.approx(a.peak() * factor, abs=1e-6)

    @given(traces)
    def test_mean_between_valley_and_peak(self, a):
        assert a.valley() - 1e-9 <= a.mean() <= a.peak() + 1e-9

    @given(traces, st.floats(0, 1e5, allow_nan=False))
    def test_energy_slack_nonnegative(self, a, extra):
        budget = a.peak() + extra
        assert a.energy_slack(budget) >= -1e-6

    @given(traces)
    def test_percentile_monotone(self, a):
        qs = [0, 25, 50, 75, 100]
        values = [a.percentile(q) for q in qs]
        assert values == sorted(values)


class TestWeekAveraging:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=WEEK_GRID.n_samples,
            elements=st.floats(0, 1e4, allow_nan=False, allow_infinity=False),
        )
    )
    def test_average_weeks_bounded_by_extremes(self, values):
        trace = PowerTrace(WEEK_GRID, values)
        averaged = trace.average_weeks()
        weeks = trace.split_weeks()
        stacked = np.vstack([w.values for w in weeks])
        assert np.all(averaged.values <= stacked.max(axis=0) + 1e-9)
        assert np.all(averaged.values >= stacked.min(axis=0) - 1e-9)

    @given(values_strategy(WEEK_GRID.samples_per_week))
    def test_identical_weeks_average_to_themselves(self, week_values):
        values = np.tile(week_values, 2)
        averaged = PowerTrace(WEEK_GRID, values).average_weeks()
        assert np.allclose(averaged.values, week_values)


class TestTraceSetProperties:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=(5, 24),
            elements=st.floats(0, 1e4, allow_nan=False, allow_infinity=False),
        )
    )
    def test_total_equals_sum_of_rows(self, matrix):
        ts = TraceSet(GRID24, [f"t{i}" for i in range(5)], matrix)
        assert np.allclose(ts.total().values, matrix.sum(axis=0))

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=(5, 24),
            elements=st.floats(0, 1e4, allow_nan=False, allow_infinity=False),
        )
    )
    def test_aggregate_peak_le_sum_of_peaks(self, matrix):
        ts = TraceSet(GRID24, [f"t{i}" for i in range(5)], matrix)
        assert ts.aggregate_peak() <= ts.sum_of_peaks() + 1e-9

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=(4, 24),
            elements=st.floats(0, 100, allow_nan=False, allow_infinity=False),
        ),
        st.permutations(list(range(4))),
    )
    def test_subset_permutation_invariant_totals(self, matrix, order):
        ts = TraceSet(GRID24, [f"t{i}" for i in range(4)], matrix)
        shuffled = ts.subset([f"t{i}" for i in order])
        # Allclose, not equality: float addition is not associative.
        assert np.allclose(shuffled.total().values, ts.total().values)


class TestSumRows:
    @given(
        n_samples=st.sampled_from([1, 2, 3, 24, 130]),
        n_rows=st.integers(0, 130),
        kind=st.sampled_from(["uniform", "scaled", "pool", "signed_zeros"]),
        dtype=st.sampled_from([np.float64, np.float32]),
        order=st.sampled_from(["C", "F"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_row_loop(self, n_samples, n_rows, kind, dtype, order, seed):
        """Bit for bit the ``total += row`` loop from +0.0: on one-sample
        columns (which numpy's axis-0 sum adds pairwise), on two samples and
        more, for either memory order and a float32 block, and with signed
        zeros, whose sum keeps the loop's sign."""
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            block = rng.uniform(0, 1e4, (n_rows, n_samples))
        elif kind == "scaled":
            block = rng.uniform(0, 1, (n_rows, n_samples)) * 10.0 ** rng.integers(
                -6, 7, (n_rows, 1)
            )
        elif kind == "pool":
            block = rng.choice([0.0, -0.0, 0.5, 1.0, 3.25, 1e-3], (n_rows, n_samples))
        else:
            # Half the columns all -0.0, the others mixed with +0.0.
            mixed = (rng.random((n_rows, n_samples)) < 0.5) & (rng.random(n_samples) < 0.5)
            block = np.where(mixed, 0.0, -0.0)
        block = np.asarray(block, dtype=dtype, order=order)
        total = np.zeros(n_samples)
        for row in block:
            total += row
        assert sum_rows(block).dtype == np.float64
        assert sum_rows(block).tobytes() == total.tobytes()


def _row_loop(block, dtype):
    """The oracle: ``total += row`` from +0.0, in ``dtype``."""
    total = np.zeros(block.shape[1], dtype=dtype)
    for row in block:
        total += row
    return total


class TestOneSampleTotals:
    """On a one-sample grid every total adds its rows in order.

    numpy's axis-0 sum adds a one-sample column pairwise in blocks of 8,
    so these tests draw up to 48 members.  Each site keeps its matrix's
    dtype.
    """

    @given(
        n_rows=st.integers(2, 48),
        n_leaves=st.integers(1, 12),
        dtype=st.sampled_from([np.float64, np.float32]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_totals_equal_the_row_loop(self, n_rows, n_leaves, dtype, seed):
        from repro.core.asynchrony import averaged_group_trace
        from repro.core.metrics import node_asynchrony_scores
        from repro.infra import (
            Assignment,
            Level,
            NodePowerView,
            build_topology,
            two_level_spec,
        )
        from repro.traces import add_rows

        rng = np.random.default_rng(seed)
        block = (
            rng.uniform(0, 1, (n_rows, 1)) * 10.0 ** rng.integers(-3, 4, (n_rows, 1))
        ).astype(dtype)
        grid = TimeGrid(0, 60, 1)
        ids = [f"i{k}" for k in range(n_rows)]
        traces = TraceSet(grid, ids, block, dtype=dtype)
        expected = _row_loop(block, dtype)

        assert add_rows(block).dtype == dtype
        assert add_rows(block).tobytes() == expected.tobytes()
        assert traces.total().values.tobytes() == expected.astype(np.float64).tobytes()
        assert traces.aggregate_peak() == float(expected.max())
        order = [int(k) for k in rng.permutation(n_rows)]
        assert traces.aggregate_of([ids[k] for k in order]).values.tobytes() == (
            _row_loop(block[order], dtype).astype(np.float64).tobytes()
        )
        excluded = ids[order[0]]
        averaged = (expected - block[order[0]]) / (n_rows - 1)
        assert averaged_group_trace(traces, excluded).values.tobytes() == (
            averaged.astype(np.float64).tobytes()
        )

        topo = build_topology(two_level_spec("dc", leaves=n_leaves, leaf_capacity=None))
        leaves = topo.leaf_names()
        mapping = {ids[k]: leaves[int(rng.integers(n_leaves))] for k in order}
        assignment = Assignment(topo, mapping)
        view = NodePowerView(topo, assignment, traces)
        leaf_totals = []
        for leaf in leaves:
            rows = [traces.index_of(i) for i in assignment.instances_on_leaf(leaf)]
            total = _row_loop(block[rows], dtype)
            leaf_totals.append(total)
            assert view._node_values[leaf].tobytes() == total.tobytes()
        root = _row_loop(np.stack(leaf_totals), dtype)
        assert view._node_values["dc"].tobytes() == root.tobytes()

        peaks = traces.peaks()
        expected_scores = {}
        for leaf, total in zip(leaves, leaf_totals):
            rows = [traces.index_of(i) for i in assignment.instances_under(leaf)]
            if rows:
                aggregate_peak = float(total.max())
                expected_scores[leaf] = (
                    float(peaks[rows].sum()) / aggregate_peak if aggregate_peak > 0 else 1.0
                )
        assert node_asynchrony_scores(assignment, traces, Level.RPP) == expected_scores
