"""Unit tests for the per-power-node flight recorder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import events, telemetry
from repro.obs.telemetry import (
    FlightRecorder,
    Precursor,
    PrecursorConfig,
    RingBuffer,
    _rolling_slope,
    detect_precursors,
)


def oracle_precursors(utilization, config):
    """The per-sample rising-edge scan ``detect_precursors`` replaced."""
    utilization = np.asarray(utilization, dtype=np.float64)
    slopes = _rolling_slope(utilization, config.window)
    projected = utilization + slopes * config.horizon
    below = utilization < config.ceiling
    trending = below & (slopes > 0) & (projected >= config.ceiling)
    banded = below & (utilization >= config.warning_fraction * config.ceiling)
    firing = trending | banded
    precursors = []
    previous = False
    for index, flag in enumerate(firing):
        if flag and not previous:
            precursors.append(
                Precursor(
                    index=index,
                    utilization=float(utilization[index]),
                    slope_per_step=float(slopes[index]),
                    projected=float(projected[index]),
                    reason="trend" if trending[index] else "warning_band",
                )
            )
        previous = bool(flag)
    return precursors


class TestRingBuffer:
    def test_append_and_array(self):
        buffer = RingBuffer(capacity=4)
        for value in (1.0, 2.0, 3.0):
            buffer.append(value)
        assert len(buffer) == 3
        assert buffer.n_total == 3
        np.testing.assert_allclose(buffer.array(), [1.0, 2.0, 3.0])
        assert buffer.last() == 3.0

    def test_wraparound_keeps_newest(self):
        buffer = RingBuffer(capacity=3)
        for value in range(5):
            buffer.append(float(value))
        assert len(buffer) == 3
        assert buffer.n_total == 5
        np.testing.assert_allclose(buffer.array(), [2.0, 3.0, 4.0])

    def test_extend_matches_appends(self):
        by_append = RingBuffer(capacity=5)
        by_extend = RingBuffer(capacity=5)
        chunks = [np.arange(3.0), np.arange(4.0), np.arange(2.0)]
        for chunk in chunks:
            by_extend.extend(chunk)
            for value in chunk:
                by_append.append(float(value))
        np.testing.assert_allclose(by_extend.array(), by_append.array())
        assert by_extend.n_total == by_append.n_total == 9

    def test_extend_larger_than_capacity(self):
        buffer = RingBuffer(capacity=4)
        buffer.extend(np.arange(10.0))
        np.testing.assert_allclose(buffer.array(), [6.0, 7.0, 8.0, 9.0])

    def test_extend_empty_is_noop(self):
        buffer = RingBuffer(capacity=4)
        buffer.extend(np.array([]))
        assert len(buffer) == 0

    def test_empty_buffer_behaviour(self):
        buffer = RingBuffer(capacity=4)
        assert buffer.summary() == {"count": 0}
        with pytest.raises(ValueError):
            buffer.last()

    def test_summary_moments(self):
        buffer = RingBuffer(capacity=8)
        buffer.extend(np.array([1.0, 3.0, 2.0]))
        summary = buffer.summary()
        assert summary["count"] == 3
        assert summary["retained"] == 3
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["last"] == 2.0
        assert summary["mean"] == pytest.approx(2.0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RingBuffer(capacity=0)


class TestFlightRecorder:
    def test_record_scalar_and_array(self):
        recorder = FlightRecorder(capacity=16)
        recorder.record("dc/rpp0", "utilization", 0.5)
        recorder.record("dc/rpp0", "utilization", np.array([0.6, 0.7]))
        np.testing.assert_allclose(
            recorder.series("dc/rpp0", "utilization"), [0.5, 0.6, 0.7]
        )

    def test_paths_and_names(self):
        recorder = FlightRecorder()
        recorder.record("a", "utilization", 1.0)
        recorder.record("b", "slack", 2.0)
        recorder.record("a", "slack", 3.0)
        assert recorder.paths() == ["a", "b"]
        assert set(recorder.names("a")) == {"utilization", "slack"}

    def test_summary_shape(self):
        recorder = FlightRecorder()
        recorder.record("dc", "utilization", np.array([0.2, 0.4]))
        summary = recorder.summary()
        assert summary["dc"]["utilization"]["count"] == 2


class TestPrecursorDetection:
    def test_rising_ramp_fires_trend(self):
        # Climbs steadily toward the ceiling but never crosses it.
        utilization = np.linspace(0.5, 0.99, 60)
        found = detect_precursors(
            utilization, PrecursorConfig(window=6, horizon=12, warning_fraction=0.999)
        )
        assert found
        assert any(p.reason == "trend" for p in found)
        assert all(p.slope_per_step > 0 for p in found if p.reason == "trend")

    def test_flat_series_is_quiet(self):
        utilization = np.full(60, 0.5)
        assert detect_precursors(utilization) == []

    def test_warning_band_fires_without_slope(self):
        utilization = np.full(30, 0.97)
        found = detect_precursors(
            utilization, PrecursorConfig(warning_fraction=0.95)
        )
        # Constant series: one run start, reason is the band not the trend.
        assert len(found) == 1
        assert found[0].reason == "warning_band"
        assert found[0].index == 0

    def test_violating_steps_do_not_fire(self):
        utilization = np.full(30, 1.2)
        assert detect_precursors(utilization) == []

    def test_consecutive_firing_collapses_to_run_starts(self):
        utilization = np.concatenate(
            [np.full(10, 0.5), np.full(10, 0.97), np.full(10, 0.5), np.full(10, 0.97)]
        )
        found = detect_precursors(utilization, PrecursorConfig(window=12, horizon=1))
        band = [p for p in found if p.reason == "warning_band"]
        assert [p.index for p in band] == [10, 30]

    @given(
        n=st.integers(0, 80),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["walk", "band", "steps"]),
        window=st.integers(2, 14),
        horizon=st.integers(1, 14),
        warning_fraction=st.sampled_from([0.5, 0.9, 0.95, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_rising_edges_match_the_sample_loop(
        self, n, seed, kind, window, horizon, warning_fraction
    ):
        """The same precursors in the same order as the per-sample scan, on
        random walks, series hovering at the band edge and step series that
        fire in long runs, including the first and the last sample."""
        rng = np.random.default_rng(seed)
        if kind == "walk":
            utilization = 0.8 + np.cumsum(rng.normal(0, 0.05, n))
        elif kind == "band":
            utilization = rng.choice([0.5, 0.95, 0.97, 1.0, 1.2], n)
        else:
            utilization = np.repeat(rng.uniform(0.3, 1.1, n), rng.integers(1, 5, n))[:n]
        config = PrecursorConfig(
            window=window, horizon=horizon, warning_fraction=warning_fraction
        )
        assert detect_precursors(utilization, config) == oracle_precursors(
            utilization, config
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PrecursorConfig(window=1)
        with pytest.raises(ValueError):
            PrecursorConfig(horizon=0)
        with pytest.raises(ValueError):
            PrecursorConfig(warning_fraction=0.0)


class TestRecordPower:
    def test_noop_when_nothing_installed(self):
        assert telemetry.get_recorder() is None
        assert events.get_event_log() is None
        # Must not raise, must not allocate anything observable.
        telemetry.record_power("dc", np.array([1.0, 2.0]), 10.0)

    def test_series_recorded(self):
        power = np.array([4.0, 8.0, 6.0])
        with telemetry.recording() as recorder:
            telemetry.record_power("dc/rpp0", power, 10.0)
        np.testing.assert_allclose(
            recorder.series("dc/rpp0", "utilization"), [0.4, 0.8, 0.6]
        )
        np.testing.assert_allclose(recorder.series("dc/rpp0", "slack"), [6.0, 2.0, 4.0])
        # Headroom uses the running peak, so it never recovers.
        np.testing.assert_allclose(
            recorder.series("dc/rpp0", "headroom"), [6.0, 2.0, 2.0]
        )
        np.testing.assert_allclose(recorder.series("dc/rpp0", "capped"), [4.0, 8.0, 6.0])

    def test_violation_event_per_contiguous_run(self):
        power = np.array([5.0, 12.0, 13.0, 5.0, 11.0, 5.0])
        with events.recording() as log:
            telemetry.record_power("dc/sb0", power, 10.0, step_minutes=30.0)
        violations = log.by_kind(events.VIOLATION)
        assert len(violations) == 2
        first, second = violations
        assert first.fields["start_index"] == 1
        assert first.fields["duration_samples"] == 2
        assert first.fields["duration_minutes"] == 60.0
        assert first.fields["peak_overload_watts"] == pytest.approx(3.0)
        assert second.fields["start_index"] == 4
        assert second.fields["duration_samples"] == 1

    def test_violation_run_reaching_end_of_trace(self):
        power = np.array([5.0, 12.0, 12.0])
        with events.recording() as log:
            telemetry.record_power("dc", power, 10.0)
        (violation,) = log.by_kind(events.VIOLATION)
        assert violation.fields["start_index"] == 1
        assert violation.fields["duration_samples"] == 2

    def test_advisory_for_warning_band(self):
        power = np.full(30, 9.7)
        with events.recording() as log:
            telemetry.record_power("dc", power, 10.0)
        advisories = log.by_kind(events.ADVISORY)
        assert len(advisories) == 1
        assert advisories[0].fields["reason"] == "warning_band"

    def test_nonpositive_budget_skipped(self):
        with telemetry.recording() as recorder:
            telemetry.record_power("dc", np.array([1.0]), 0.0)
        assert recorder.paths() == []

    def test_recording_restores_previous(self):
        with telemetry.recording() as outer:
            with telemetry.recording() as inner:
                telemetry.record("p", "s", 1.0)
            assert telemetry.get_recorder() is outer
        assert telemetry.get_recorder() is None
        assert inner.paths() == ["p"]
        assert outer.paths() == []


class TestRecordView:
    def test_records_every_budgeted_node(self):
        from repro.analysis import experiments
        from repro.infra.aggregation import NodePowerView
        from repro.infra.budget import provision_hierarchical

        dc = experiments.get_datacenter("DC1", n_instances=48)
        view = NodePowerView(
            dc.topology, experiments.run_placement_study(dc).optimized.assignment,
            dc.test_traces(),
        )
        provision_hierarchical(view, margin=0.05)
        with telemetry.recording() as recorder:
            recorded = telemetry.record_view(view)
        budgeted = [n for n in dc.topology.nodes() if n.budget_watts is not None]
        assert recorded == len(budgeted)
        assert set(recorder.paths()) == {n.name for n in budgeted}
        for path in recorder.paths():
            assert set(recorder.names(path)) == set(telemetry.SERIES_NAMES)

    def test_noop_when_nothing_installed(self):
        class _Boom:
            def __getattr__(self, name):
                raise AssertionError("record_view touched a disabled view")

        assert telemetry.record_view(_Boom()) == 0


class TestRecordDelta:
    def _fleet(self):
        import numpy as np

        from repro.engine.delta import PlacementState
        from repro.infra import Assignment, NodePowerView, build_topology, two_level_spec
        from repro.infra.budget import provision_from_view
        from repro.traces import TimeGrid, TraceSet

        grid = TimeGrid(0, 60, 24)
        rng = np.random.default_rng(3)
        topo = build_topology(two_level_spec("dc", leaves=3, leaf_capacity=4))
        ids = [f"i{k}" for k in range(9)]
        traces = TraceSet(grid, ids, rng.uniform(1, 10, size=(9, 24)))
        mapping = {ids[k]: topo.leaf_names()[k % 3] for k in range(9)}
        state = PlacementState(topo, traces, mapping)
        view = state.register(NodePowerView(topo, Assignment(topo, mapping), traces))
        provision_from_view(view, margin=0.1)
        return topo, state, view

    def test_records_only_dirty_budgeted_nodes(self):
        topo, state, view = self._fleet()
        dirty = state.swap("i0", "i1")
        with telemetry.recording() as recorder:
            recorded = telemetry.record_delta(view, dirty)
        budgeted_dirty = [
            name for name in dirty if topo.node(name).budget_watts is not None
        ]
        assert recorded == len(budgeted_dirty)
        assert set(recorder.paths()) == set(budgeted_dirty)
        # The untouched leaf stays out of the feed.
        assert "dc/rpp2" not in recorder.paths()

    def test_noop_when_nothing_installed(self):
        class _Boom:
            def __getattr__(self, name):
                raise AssertionError("record_delta touched a disabled view")

        assert telemetry.record_delta(_Boom(), ["x"]) == 0
