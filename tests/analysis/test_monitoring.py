"""Unit tests for the fragmentation monitor.

Every monitor here reads the view and the asynchrony index of one
:class:`~repro.engine.delta.PlacementState`: a new week of telemetry is
written into the state's trace rows and announced with
``state.update_traces``, and a placement change goes through the state.
"""

import numpy as np
import pytest

from repro.analysis import FragmentationMonitor, MonitorConfig
from repro.core.metrics import AsynchronyIndex
from repro.engine.delta import FleetDelta, PlacementState
from repro.infra import Assignment, Level, NodePowerView, build_topology, two_level_spec
from repro.traces import TimeGrid, TraceSet, inject_surge


@pytest.fixture
def setting():
    grid = TimeGrid(0, 60, 24)
    up = np.linspace(5, 10, 24)
    down = np.linspace(10, 5, 24)
    topo = build_topology(two_level_spec("dc", leaves=2, leaf_capacity=4))
    traces = TraceSet(grid, ["u1", "d1", "u2", "d2"], np.vstack([up, down, up, down]))
    assignment = Assignment(
        topo, {"u1": "dc/rpp0", "d1": "dc/rpp0", "u2": "dc/rpp1", "d2": "dc/rpp1"}
    )
    return topo, assignment, traces


def monitored(assignment, traces, config=MonitorConfig()):
    """A state holding a view and an RPP index, and a monitor reading them."""
    topo = assignment.topology
    state = PlacementState(topo, traces, assignment)
    view = state.register(NodePowerView(topo, assignment, traces))
    index = state.register(AsynchronyIndex(view, Level.RPP))
    return state, FragmentationMonitor(index, config)


def write_week(state, week):
    """Write a new week into the state's trace rows and announce it."""
    state.traces.matrix[...] = week.matrix
    state.update_traces(*week.ids)


def surge(traces, ids, factor):
    return inject_surge(traces, ids, factor=factor, start_hour=0, end_hour=24)


class TestMonitorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonitorConfig(sum_of_peaks_tolerance=-0.1)
        with pytest.raises(ValueError):
            MonitorConfig(min_asynchrony=0.5)


class TestMonitor:
    def test_calibrates_when_built(self, setting):
        _, assignment, traces = setting
        _, monitor = monitored(assignment, traces)
        (calibration,) = monitor.history
        assert calibration.label == "calibration"
        assert calibration.healthy
        assert calibration.sum_of_peaks == monitor.index.view.sum_of_peaks(Level.RPP)

    def test_healthy_when_stable(self, setting):
        _, assignment, traces = setting
        _, monitor = monitored(assignment, traces)
        snapshot = monitor.observe("week1")
        assert snapshot.healthy
        assert not monitor.needs_remapping()

    def test_flags_sum_of_peaks_drift(self, setting):
        _, assignment, traces = setting
        state, monitor = monitored(
            assignment,
            traces,
            MonitorConfig(sum_of_peaks_tolerance=0.05, min_asynchrony=1.0),
        )
        write_week(state, surge(traces, ["u1", "u2"], 3.0))
        snapshot = monitor.observe("surge-week")
        assert not snapshot.healthy
        assert any(a.kind == "sum_of_peaks" for a in snapshot.advisories)
        assert all(a.level == Level.RPP for a in snapshot.advisories)
        assert monitor.needs_remapping()

    def test_flags_low_asynchrony_node(self, setting):
        topo, _, traces = setting
        # All synchronous instances on one node: its score is ~1.0.
        grouped = Assignment(
            topo, {"u1": "dc/rpp0", "u2": "dc/rpp0", "d1": "dc/rpp1", "d2": "dc/rpp1"}
        )
        _, monitor = monitored(grouped, traces, MonitorConfig(min_asynchrony=1.05))
        snapshot = monitor.observe("week1")
        flagged = [a for a in snapshot.advisories if a.kind == "node_asynchrony"]
        assert flagged
        assert all(a.node_name is not None for a in flagged)

    def test_worst_node_identified(self, setting):
        _, assignment, traces = setting
        _, monitor = monitored(assignment, traces)
        assert monitor.history[0].worst_node in ("dc/rpp0", "dc/rpp1")

    def test_history_accumulates(self, setting):
        _, assignment, traces = setting
        _, monitor = monitored(assignment, traces)
        monitor.observe("w1")
        monitor.observe("w2")
        assert [s.label for s in monitor.history] == ["calibration", "w1", "w2"]

    def test_advisory_severity(self, setting):
        _, assignment, traces = setting
        state, monitor = monitored(
            assignment, traces, MonitorConfig(sum_of_peaks_tolerance=0.0)
        )
        write_week(state, surge(traces, ["u1"], 2.0))
        snapshot = monitor.observe("surge")
        drift = [a for a in snapshot.advisories if a.kind == "sum_of_peaks"]
        assert drift and drift[0].severity > 0

    def test_calibrate_takes_the_live_state_as_reference(self, setting):
        _, assignment, traces = setting
        state, monitor = monitored(
            assignment,
            traces,
            MonitorConfig(sum_of_peaks_tolerance=0.05, min_asynchrony=1.0),
        )
        write_week(state, surge(traces, ["u1", "u2"], 3.0))
        assert not monitor.observe("surge-week").healthy
        recalibrated = monitor.calibrate()
        assert recalibrated.label == "calibration"
        assert recalibrated.sum_of_peaks == monitor.history[-2].sum_of_peaks
        assert monitor.observe("next-week").healthy


class TestEventLogMirroring:
    def test_advisories_mirrored_into_event_log(self, setting):
        from repro.obs import events

        _, assignment, traces = setting
        state, monitor = monitored(
            assignment,
            traces,
            MonitorConfig(sum_of_peaks_tolerance=0.05, min_asynchrony=1.0),
        )
        write_week(state, surge(traces, ["u1", "u2"], 3.0))
        with events.recording() as log:
            snapshot = monitor.observe("surge-week")
        mirrored = log.by_kind(events.ADVISORY)
        assert len(mirrored) == len(snapshot.advisories)
        (event,) = [e for e in mirrored if e.fields["drift"] == "sum_of_peaks"]
        assert event.source == "analysis.monitoring"
        assert event.fields["label"] == "surge-week"
        assert event.fields["observed"] == snapshot.advisories[0].observed

    def test_decision_identical_with_and_without_recording(self, setting):
        """Mirroring is observation only: needs_remapping() is unchanged."""
        from repro.obs import events

        _, assignment, traces = setting
        surged = surge(traces, ["u1", "u2"], 3.0)

        def run(recorded):
            own = TraceSet(traces.grid, traces.ids, traces.matrix.copy())
            state, monitor = monitored(
                assignment,
                own,
                MonitorConfig(sum_of_peaks_tolerance=0.05, min_asynchrony=1.0),
            )

            def weeks():
                healthy_first = monitor.observe("w1")
                write_week(state, surged)
                return healthy_first, monitor.observe("w2")

            if recorded:
                with events.recording():
                    healthy_first, drifted = weeks()
            else:
                healthy_first, drifted = weeks()
            return healthy_first, drifted, monitor.needs_remapping()

        plain_healthy, plain_drifted, plain_decision = run(recorded=False)
        logged_healthy, logged_drifted, logged_decision = run(recorded=True)
        assert plain_decision == logged_decision is True
        assert logged_healthy.healthy == plain_healthy.healthy is True
        assert [a.kind for a in logged_drifted.advisories] == [
            a.kind for a in plain_drifted.advisories
        ]
        assert logged_drifted.sum_of_peaks == plain_drifted.sum_of_peaks

    def test_healthy_observation_emits_nothing(self, setting):
        from repro.obs import events

        _, assignment, traces = setting
        _, monitor = monitored(assignment, traces)
        with events.recording() as log:
            snapshot = monitor.observe("quiet-week")
        assert snapshot.healthy
        assert len(log) == 0


class TestMonitorDeltaFeed:
    def test_delta_observation_matches_full_snapshot(self, setting):
        """Observing the swap through the state yields the same snapshot
        numbers as calibrating over a view built on the swapped placement."""
        topo, assignment, traces = setting
        config = MonitorConfig(min_asynchrony=1.0)
        state, incremental = monitored(assignment, traces, config)
        state.register(incremental)
        state.apply(FleetDelta.swap("d1", "dc/rpp0", "u2", "dc/rpp1"))
        from_delta = incremental.history[-1]

        swapped = assignment.with_swap("d1", "u2")
        fresh_view = NodePowerView(topo, swapped, traces)
        reference = FragmentationMonitor(
            AsynchronyIndex(fresh_view, Level.RPP), config
        ).history[0]
        assert from_delta.sum_of_peaks == reference.sum_of_peaks
        assert from_delta.min_asynchrony == reference.min_asynchrony
        assert from_delta.worst_node == reference.worst_node

    def test_bad_swap_raises_advisory_and_needs_remapping(self, setting):
        """Pairing the synchronous instances via a delta drops both nodes'
        asynchrony to 1.0 — the monitor must flag it without a re-score."""
        _, assignment, traces = setting
        state, monitor = monitored(assignment, traces, MonitorConfig(min_asynchrony=1.05))
        state.register(monitor)
        assert not monitor.needs_remapping()
        # u1+d1 / u2+d2 are anti-phase (healthy); swapping d1 and u2 pairs
        # u1+u2 and d1+d2 — perfectly synchronous nodes.
        state.apply(FleetDelta.swap("d1", "dc/rpp0", "u2", "dc/rpp1"))
        assert monitor.needs_remapping()
        kinds = {a.kind for a in monitor.history[-1].advisories}
        assert "node_asynchrony" in kinds

    def test_snapshot_after_deltas_carries_placement_forward(self, setting):
        """A whole-week observe() after deltas measures the *moved*
        placement, not the calibrated one."""
        _, assignment, traces = setting
        state, monitor = monitored(assignment, traces, MonitorConfig(min_asynchrony=1.05))
        state.register(monitor)
        state.swap("d1", "u2")
        write_week(state, traces)
        snapshot = monitor.observe("same-traces")
        assert not snapshot.healthy
        assert state.assignment().as_mapping() == assignment.with_swap("d1", "u2").as_mapping()

    def test_overfilling_delta_is_rejected(self, setting):
        """The state checks each delta before any subscriber sees it, so a
        move into a full leaf raises and the monitor observes nothing."""
        _, _, traces = setting
        topo = build_topology(two_level_spec("dc", leaves=2, leaf_capacity=2))
        assignment = Assignment(
            topo, {"u1": "dc/rpp0", "d1": "dc/rpp0", "u2": "dc/rpp1", "d2": "dc/rpp1"}
        )
        state, monitor = monitored(assignment, traces)
        state.register(monitor)
        with pytest.raises(ValueError, match="capacity"):
            state.apply(FleetDelta.move("u2", "dc/rpp1", "dc/rpp0"))
        assert len(monitor.history) == 1
        monitor.observe("same-traces")
        assert state.assignment().as_mapping() == assignment.as_mapping()

    def test_registers_as_placement_state_subscriber(self, setting):
        _, assignment, traces = setting
        state, monitor = monitored(assignment, traces, MonitorConfig(min_asynchrony=1.05))
        assert state.register(monitor) is monitor
        state.swap("d1", "u2")
        assert monitor.needs_remapping()
        assert [s.label for s in monitor.history] == ["calibration", "delta:1"]

    def test_one_swap_is_applied_once(self, setting):
        """With a view, an index and a monitor on one state, a swap is
        checked and applied once and each dirty node re-summed once."""
        from repro.obs import metrics as obs_metrics

        _, assignment, traces = setting
        state, monitor = monitored(assignment, traces)
        state.register(monitor)
        with obs_metrics.capturing() as registry:
            dirty = state.swap("d1", "u2")
        counters = registry.snapshot()["counters"]
        assert counters["delta.applied"] == 1
        assert counters["delta.moves"] == 2
        assert counters["delta.view_nodes_recomputed"] == len(dirty) == 3
        assert counters["monitor.delta_observations"] == 1

    def test_registered_before_its_index_is_refused(self, setting):
        """A monitor reads its index's scores, so the index must already be
        on the state; refusing at registration leaves nothing applied."""
        topo, assignment, traces = setting
        state = PlacementState(topo, traces, assignment)
        view = state.register(NodePowerView(topo, assignment, traces))
        monitor = FragmentationMonitor(AsynchronyIndex(view, Level.RPP), MonitorConfig())
        with pytest.raises(ValueError, match="index"):
            state.register(monitor)
        state.register(monitor.index)
        state.register(monitor)
        state.swap("d1", "u2")
        assert len(monitor.history) == 2
