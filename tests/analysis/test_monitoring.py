"""Unit tests for the fragmentation monitor."""

import numpy as np
import pytest

from repro.analysis import FragmentationMonitor, MonitorConfig
from repro.infra import Assignment, Level, build_topology, two_level_spec
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


class TestMonitorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonitorConfig(level=Level.RPP, sum_of_peaks_tolerance=-0.1)
        with pytest.raises(ValueError):
            MonitorConfig(level=Level.RPP, min_asynchrony=0.5)


class TestMonitor:
    def test_requires_calibration(self, setting):
        _, assignment, traces = setting
        monitor = FragmentationMonitor(assignment, MonitorConfig(level=Level.RPP))
        with pytest.raises(RuntimeError):
            monitor.observe("week1", traces)

    def test_healthy_when_stable(self, setting):
        _, assignment, traces = setting
        monitor = FragmentationMonitor(assignment, MonitorConfig(level=Level.RPP))
        monitor.calibrate(traces)
        snapshot = monitor.observe("week1", traces)
        assert snapshot.healthy
        assert not monitor.needs_remapping()

    def test_flags_sum_of_peaks_drift(self, setting):
        _, assignment, traces = setting
        monitor = FragmentationMonitor(
            assignment,
            MonitorConfig(level=Level.RPP, sum_of_peaks_tolerance=0.05, min_asynchrony=1.0),
        )
        monitor.calibrate(traces)
        surged = inject_surge(
            traces, ["u1", "u2"], factor=3.0, start_hour=0, end_hour=24
        )
        snapshot = monitor.observe("surge-week", surged)
        assert not snapshot.healthy
        assert any(a.kind == "sum_of_peaks" for a in snapshot.advisories)
        assert monitor.needs_remapping()

    def test_flags_low_asynchrony_node(self, setting):
        topo, _, traces = setting
        # All synchronous instances on one node: its score is ~1.0.
        grouped = Assignment(
            topo, {"u1": "dc/rpp0", "u2": "dc/rpp0", "d1": "dc/rpp1", "d2": "dc/rpp1"}
        )
        monitor = FragmentationMonitor(
            grouped, MonitorConfig(level=Level.RPP, min_asynchrony=1.05)
        )
        monitor.calibrate(traces)
        snapshot = monitor.observe("week1", traces)
        flagged = [a for a in snapshot.advisories if a.kind == "node_asynchrony"]
        assert flagged
        assert all(a.node_name is not None for a in flagged)

    def test_worst_node_identified(self, setting):
        _, assignment, traces = setting
        monitor = FragmentationMonitor(assignment, MonitorConfig(level=Level.RPP))
        snapshot = monitor.calibrate(traces)
        assert snapshot.worst_node in ("dc/rpp0", "dc/rpp1")

    def test_history_accumulates(self, setting):
        _, assignment, traces = setting
        monitor = FragmentationMonitor(assignment, MonitorConfig(level=Level.RPP))
        monitor.calibrate(traces)
        monitor.observe("w1", traces)
        monitor.observe("w2", traces)
        assert [s.label for s in monitor.history] == ["calibration", "w1", "w2"]

    def test_advisory_severity(self, setting):
        _, assignment, traces = setting
        monitor = FragmentationMonitor(
            assignment, MonitorConfig(level=Level.RPP, sum_of_peaks_tolerance=0.0)
        )
        monitor.calibrate(traces)
        surged = inject_surge(traces, ["u1"], factor=2.0, start_hour=0, end_hour=24)
        snapshot = monitor.observe("surge", surged)
        drift = [a for a in snapshot.advisories if a.kind == "sum_of_peaks"]
        assert drift and drift[0].severity > 0


class TestEventLogMirroring:
    def test_advisories_mirrored_into_event_log(self, setting):
        from repro.obs import events

        _, assignment, traces = setting
        monitor = FragmentationMonitor(
            assignment,
            MonitorConfig(level=Level.RPP, sum_of_peaks_tolerance=0.05, min_asynchrony=1.0),
        )
        monitor.calibrate(traces)
        surged = inject_surge(
            traces, ["u1", "u2"], factor=3.0, start_hour=0, end_hour=24
        )
        with events.recording() as log:
            snapshot = monitor.observe("surge-week", surged)
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
        surged = inject_surge(
            traces, ["u1", "u2"], factor=3.0, start_hour=0, end_hour=24
        )

        def run(recorded):
            monitor = FragmentationMonitor(
                assignment,
                MonitorConfig(
                    level=Level.RPP, sum_of_peaks_tolerance=0.05, min_asynchrony=1.0
                ),
            )
            monitor.calibrate(traces)
            if recorded:
                with events.recording():
                    healthy_first = monitor.observe("w1", traces)
                    drifted = monitor.observe("w2", surged)
            else:
                healthy_first = monitor.observe("w1", traces)
                drifted = monitor.observe("w2", surged)
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
        monitor = FragmentationMonitor(assignment, MonitorConfig(level=Level.RPP))
        monitor.calibrate(traces)
        with events.recording() as log:
            snapshot = monitor.observe("quiet-week", traces)
        assert snapshot.healthy
        assert len(log) == 0


class TestMonitorDeltaFeed:
    def _delta(self):
        from repro.engine.delta import FleetDelta

        return FleetDelta

    def test_requires_calibration(self, setting):
        _, assignment, traces = setting
        monitor = FragmentationMonitor(assignment, MonitorConfig(level=Level.RPP))
        with pytest.raises(RuntimeError):
            monitor.observe_delta("d0", self._delta().swap("u1", "dc/rpp0", "u2", "dc/rpp1"))

    def test_delta_observation_matches_full_snapshot(self, setting):
        """Consuming the swap as a delta yields the same snapshot numbers as
        re-measuring the swapped placement from scratch."""
        _, assignment, traces = setting
        config = MonitorConfig(level=Level.RPP, min_asynchrony=1.0)
        incremental = FragmentationMonitor(assignment, config)
        incremental.calibrate(traces)
        swap = self._delta().swap("d1", "dc/rpp0", "u2", "dc/rpp1")
        from_delta = incremental.observe_delta("after-swap", swap)

        swapped = assignment.with_swap("d1", "u2")
        full = FragmentationMonitor(swapped, config)
        reference = full.calibrate(traces)
        assert from_delta.sum_of_peaks == reference.sum_of_peaks
        assert from_delta.min_asynchrony == reference.min_asynchrony
        assert from_delta.worst_node == reference.worst_node

    def test_bad_swap_raises_advisory_and_needs_remapping(self, setting):
        """Pairing the synchronous instances via a delta drops both nodes'
        asynchrony to 1.0 — the monitor must flag it without a re-score."""
        _, assignment, traces = setting
        monitor = FragmentationMonitor(
            assignment, MonitorConfig(level=Level.RPP, min_asynchrony=1.05)
        )
        monitor.calibrate(traces)
        assert not monitor.needs_remapping()
        # u1+d1 / u2+d2 are anti-phase (healthy); swapping d1 and u2 pairs
        # u1+u2 and d1+d2 — perfectly synchronous nodes.
        monitor.observe_delta("bad-swap", self._delta().swap("d1", "dc/rpp0", "u2", "dc/rpp1"))
        assert monitor.needs_remapping()
        kinds = {a.kind for a in monitor.history[-1].advisories}
        assert "node_asynchrony" in kinds

    def test_snapshot_after_deltas_carries_placement_forward(self, setting):
        """A whole-trace observe() after deltas re-measures the *moved*
        placement, not the calibrated one."""
        _, assignment, traces = setting
        config = MonitorConfig(level=Level.RPP, min_asynchrony=1.05)
        monitor = FragmentationMonitor(assignment, config)
        monitor.calibrate(traces)
        monitor.observe_delta("bad-swap", self._delta().swap("d1", "dc/rpp0", "u2", "dc/rpp1"))
        snapshot = monitor.observe("same-traces", traces)
        assert not snapshot.healthy
        assert monitor.assignment.as_mapping() == assignment.with_swap("d1", "u2").as_mapping()

    def test_overfilling_delta_is_rejected(self, setting):
        """The monitor's own placement state checks each delta, so a move
        into a full leaf raises and leaves the monitor's placement as it was."""
        _, _, traces = setting
        topo = build_topology(two_level_spec("dc", leaves=2, leaf_capacity=2))
        assignment = Assignment(
            topo, {"u1": "dc/rpp0", "d1": "dc/rpp0", "u2": "dc/rpp1", "d2": "dc/rpp1"}
        )
        monitor = FragmentationMonitor(assignment, MonitorConfig(level=Level.RPP))
        monitor.calibrate(traces)
        with pytest.raises(ValueError, match="capacity"):
            monitor.observe_delta(
                "overfill", self._delta().move("u2", "dc/rpp1", "dc/rpp0")
            )
        assert len(monitor.history) == 1
        monitor.observe("same-traces", traces)
        assert monitor.assignment.as_mapping() == assignment.as_mapping()

    def test_registers_as_placement_state_subscriber(self, setting):
        from repro.engine.delta import PlacementState

        topo, assignment, traces = setting
        monitor = FragmentationMonitor(
            assignment, MonitorConfig(level=Level.RPP, min_asynchrony=1.05)
        )
        monitor.calibrate(traces)
        state = PlacementState(topo, traces, assignment)
        state.register(monitor)
        state.swap("d1", "u2")
        assert monitor.needs_remapping()
