"""Property-based tests: tracing never perturbs remapping semantics."""

import math
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import obs
from repro.core import RemapConfig, RemappingEngine
from repro.infra import Assignment, Level, build_topology, two_level_spec
from repro.obs.metrics import Histogram
from repro.traces import TimeGrid, TraceSet

GRID = TimeGrid(0, 60, 24)


@st.composite
def remap_scenes(draw):
    """A random fleet on a random 2-4 leaf topology, contiguously placed."""
    leaves = draw(st.integers(2, 4))
    per_leaf = draw(st.integers(2, 4))
    n = leaves * per_leaf
    matrix = draw(
        hnp.arrays(
            dtype=np.float64,
            shape=(n, 24),
            elements=st.floats(0.1, 100, allow_nan=False, allow_infinity=False),
        )
    )
    topo = build_topology(two_level_spec("r", leaves=leaves, leaf_capacity=per_leaf))
    ids = [f"i{k}" for k in range(n)]
    traces = TraceSet(GRID, ids, matrix)
    leaf_names = topo.leaf_names()
    mapping = {ids[k]: leaf_names[k // per_leaf] for k in range(n)}
    return topo, Assignment(topo, mapping), traces


_samples = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), max_size=200
)


def _filled(values) -> Histogram:
    histogram = Histogram()
    for value in values:
        histogram.observe(value)
    return histogram


class TestHistogramMergeProperties:
    @given(left=_samples, right=_samples)
    @settings(max_examples=50, deadline=None)
    def test_merge_moments_match_combined_stream(self, left, right):
        """Exact statistics of a merge equal those of the combined stream."""
        merged = _filled(left).merge(_filled(right))
        combined = left + right
        assert merged.count == len(combined)
        scale = max(1.0, math.fsum(abs(v) for v in combined))
        assert abs(merged.total - math.fsum(combined)) <= 1e-9 * scale
        if combined:
            assert merged.min == min(combined)
            assert merged.max == max(combined)
            assert abs(merged.mean - np.mean(combined)) <= 1e-9 * scale

    @given(left=_samples, right=_samples)
    @settings(max_examples=50, deadline=None)
    def test_merge_reservoir_bounded_and_from_inputs(self, left, right):
        merged = _filled(left).merge(_filled(right))
        reservoir = merged._reservoir
        assert len(reservoir) <= Histogram.RESERVOIR_SIZE
        assert len(reservoir) == min(len(left) + len(right), Histogram.RESERVOIR_SIZE)
        pool = set(left) | set(right)
        assert all(value in pool for value in reservoir)

    @given(values=_samples, quantile=st.floats(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_merge_with_empty_preserves_percentiles(self, values, quantile):
        """Merging in an empty histogram is an identity for percentiles."""
        merged = _filled(values).merge(Histogram())
        reference = _filled(values)
        got = merged.percentile(quantile)
        expected = reference.percentile(quantile)
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert got == expected

    @given(values=_samples)
    @settings(max_examples=50, deadline=None)
    def test_percentile_bounds(self, values):
        """Any percentile of a non-empty histogram lies within [min, max]."""
        histogram = _filled(values)
        if not values:
            assert math.isnan(histogram.percentile(50))
            return
        for quantile in (0.0, 37.5, 50.0, 99.9, 100.0):
            result = histogram.percentile(quantile)
            assert histogram.min <= result <= histogram.max
        assert histogram.percentile(0) == min(values)
        assert histogram.percentile(100) == max(values)


class TestTracedRemapInvariants:
    @given(scene=remap_scenes(), max_swaps=st.integers(0, 10))
    @settings(max_examples=25, deadline=None)
    def test_traced_run_conserves_fleet(self, scene, max_swaps):
        """Under an active tracer the engine still conserves the multiset of
        placed instances and every node's member count."""
        topo, assignment, traces = scene
        engine = RemappingEngine(RemapConfig(level=Level.RPP, max_swaps=max_swaps))
        with obs.tracing() as tracer:
            result = engine.run(assignment, traces)
        assert Counter(result.assignment.instance_ids()) == Counter(
            assignment.instance_ids()
        )
        assert result.assignment.occupancy() == assignment.occupancy()
        # The run is recorded exactly once.
        span = tracer.find("remap")
        assert span is not None
        assert span.calls == 1

    @given(scene=remap_scenes(), max_swaps=st.integers(0, 10))
    @settings(max_examples=25, deadline=None)
    def test_traced_and_untraced_runs_agree(self, scene, max_swaps):
        """Tracing is observation only: identical swaps either way."""
        topo, assignment, traces = scene
        config = RemapConfig(level=Level.RPP, max_swaps=max_swaps)
        plain = RemappingEngine(config).run(assignment, traces)
        with obs.tracing():
            traced = RemappingEngine(config).run(assignment, traces)
        assert traced.assignment.as_mapping() == plain.assignment.as_mapping()
        assert traced.swaps == plain.swaps

    @given(scene=remap_scenes())
    @settings(max_examples=25, deadline=None)
    def test_swap_counters_are_consistent(self, scene):
        """accepted <= attempted, and accepted equals the reported swaps."""
        topo, assignment, traces = scene
        engine = RemappingEngine(RemapConfig(level=Level.RPP, max_swaps=8))
        with obs.tracing() as tracer:
            result = engine.run(assignment, traces)
        counters = tracer.find("remap").counters
        attempted = counters.get("remap.swaps_attempted", 0.0)
        accepted = counters.get("remap.swaps_accepted", 0.0)
        assert accepted <= attempted
        assert accepted == result.n_swaps

    @given(scene=remap_scenes())
    @settings(max_examples=15, deadline=None)
    def test_node_totals_consistent_under_tracing(self, scene):
        """Every swap rebuilds both touched node totals from their member
        rows; tracing must not disturb that: the traced run accepts the
        untraced run's swaps, gain bits included."""
        topo, assignment, traces = scene
        engine = RemappingEngine(RemapConfig(level=Level.RPP, max_swaps=8))
        plain = engine.run(assignment, traces)
        with obs.tracing() as tracer:
            traced = engine.run(assignment, traces)
        assert traced.swaps == plain.swaps
        assert [(s.gain_a.hex(), s.gain_b.hex()) for s in traced.swaps] == [
            (s.gain_a.hex(), s.gain_b.hex()) for s in plain.swaps
        ]
        counters = tracer.find("remap").counters
        assert counters.get("remap.swaps_accepted", 0.0) == traced.n_swaps
