"""Tests for the longitudinal drift + adaptation simulation."""

import numpy as np
import pytest

from repro.analysis.longitudinal import (
    DriftingFleet,
    LongitudinalSimulation,
    PhaseConvergenceEvent,
    amplitude_drift,
    combined_drift,
    no_drift,
    phase_drift,
)
from repro.core import PlacementConfig, WorkloadAwarePlacer
from repro.infra import Level, build_topology, ocp_spec
from repro.traces import (
    TimeGrid,
    TraceSet,
    TraceSynthesizer,
    cache_profile,
    db_profile,
    hadoop_profile,
    web_profile,
)


PROFILES = {
    "web": web_profile(),
    "cache": cache_profile(),
    "db": db_profile(),
    "hadoop": hadoop_profile(),
}


@pytest.fixture(scope="module")
def setting():
    synthesizer = TraceSynthesizer(weeks=2, step_minutes=60, seed=5)
    records = synthesizer.fleet(
        [
            (web_profile(), 24),
            (cache_profile(), 16),
            (db_profile(), 16),
            (hadoop_profile(), 8),
        ],
        test_weeks=0,
    )
    topology = build_topology(
        ocp_spec(
            "long",
            suites=2,
            msbs_per_suite=1,
            sbs_per_msb=2,
            rpps_per_sb=2,
            racks_per_rpp=1,
            servers_per_rack=10,
        )
    )
    placement = WorkloadAwarePlacer(PlacementConfig(seed=0, kmeans_n_init=2)).place(
        records, topology
    )
    return records, topology, placement.assignment


class TestDriftFunctions:
    def test_no_drift(self):
        profile = web_profile()
        assert no_drift(profile, 10) is profile

    def test_phase_drift_shifts(self):
        drift = phase_drift(1.0)
        assert drift(web_profile(), 3).peak_hour == pytest.approx(17.0)

    def test_phase_drift_wraps(self):
        drift = phase_drift(6.0)
        assert drift(web_profile(), 3).peak_hour == pytest.approx(8.0)

    def test_amplitude_drift_grows(self):
        drift = amplitude_drift(0.1)
        base = web_profile()
        grown = drift(base, 2)
        assert grown.swing_watts == pytest.approx(base.swing_watts * 1.21)

    def test_combined(self):
        drift = combined_drift(phase_drift(1.0), amplitude_drift(0.1))
        out = drift(web_profile(), 1)
        assert out.peak_hour == pytest.approx(15.0)
        assert out.swing_watts > web_profile().swing_watts


class TestDriftingFleet:
    def test_week_shapes(self, setting):
        records, _, _ = setting
        fleet = DriftingFleet(records, PROFILES, no_drift, step_minutes=60, seed=1)
        week = fleet.week(0)
        assert len(week) == len(records)
        assert week.grid.covers_whole_weeks()

    def test_personalities_stable_across_weeks(self, setting):
        """The same instance keeps its relative standing week over week."""
        records, _, _ = setting
        fleet = DriftingFleet(records, PROFILES, no_drift, step_minutes=60, seed=1)
        w0 = fleet.week(0)
        w1 = fleet.week(1)
        web_ids = [r.instance_id for r in records if r.service == "web"]
        peaks0 = np.array([w0.row(i).max() for i in web_ids])
        peaks1 = np.array([w1.row(i).max() for i in web_ids])
        # Strong rank correlation: personality (amplitude) persists.
        order0 = np.argsort(peaks0)
        order1 = np.argsort(peaks1)
        agreement = np.mean(order0[:8] == order1[:8])
        assert np.corrcoef(peaks0, peaks1)[0, 1] > 0.8 or agreement > 0.5

    def test_weeks_differ(self, setting):
        records, _, _ = setting
        fleet = DriftingFleet(records, PROFILES, no_drift, step_minutes=60, seed=1)
        assert not np.allclose(fleet.week(0).matrix, fleet.week(1).matrix)

    def test_drift_visible(self, setting):
        records, _, _ = setting
        fleet = DriftingFleet(
            records, PROFILES, phase_drift(2.0), step_minutes=60, seed=1
        )
        web_ids = [r.instance_id for r in records if r.service == "web"]
        w0 = fleet.week(0).subset(web_ids).total()
        w5 = fleet.week(5).subset(web_ids).total()
        assert abs(w0.peak_hour() - w5.peak_hour()) >= 4


class TestSimulation:
    def test_stable_world_needs_no_swaps(self, setting):
        records, topology, assignment = setting
        fleet = DriftingFleet(records, PROFILES, no_drift, step_minutes=60, seed=1)
        sim = LongitudinalSimulation(fleet, assignment, level=Level.RPP)
        result = sim.run(3)
        assert len(result.adaptive) == 3
        # Without drift the placement stays healthy: few or no swaps.
        assert result.total_swaps() <= 4

    def test_adaptation_tracks_drift(self, setting):
        records, topology, assignment = setting
        fleet = DriftingFleet(
            records, PROFILES, phase_drift(1.5), step_minutes=60, seed=1
        )
        sim = LongitudinalSimulation(fleet, assignment, level=Level.RPP)
        result = sim.run(6)
        # The adaptive arm must end at least as good as the frozen one.
        assert result.adaptive[-1].sum_of_peaks <= result.static[-1] * 1.005

    def test_rejects_zero_weeks(self, setting):
        records, topology, assignment = setting
        fleet = DriftingFleet(records, PROFILES, no_drift, step_minutes=60, seed=1)
        sim = LongitudinalSimulation(fleet, assignment, level=Level.RPP)
        with pytest.raises(ValueError):
            sim.run(0)


class _Shifted:
    """A fleet whose later weeks come with another grid or id order."""

    def __init__(self, fleet, change):
        self.fleet = fleet
        self.change = change
        self.first = None

    def week(self, week_index):
        traces = self.fleet.week(week_index)
        if week_index == 0:
            self.first = traces
            return traces
        grid, ids, matrix = traces.grid, traces.ids, traces.matrix
        if self.change == "ids":
            ids, matrix = ids[::-1], matrix[::-1]
        else:
            grid = TimeGrid(
                grid.start_minute + grid.step_minutes, grid.step_minutes, grid.n_samples
            )
        return TraceSet(grid, ids, matrix)


class TestOneState:
    def test_one_state_across_weeks(self, setting, monkeypatch):
        """One state, one monitor, a view per week for the frozen arm plus
        the live one, and one delta per later week plus one per swap."""
        from repro.analysis import longitudinal
        from repro.obs import metrics as obs_metrics

        built = {"view": 0, "state": 0, "monitor": 0}

        def counting(cls, key):
            class Counted(cls):
                def __init__(self, *args, **kwargs):
                    built[key] += 1
                    super().__init__(*args, **kwargs)

            return Counted

        for name, key in (
            ("NodePowerView", "view"),
            ("PlacementState", "state"),
            ("FragmentationMonitor", "monitor"),
        ):
            counted = counting(getattr(longitudinal, name), key)
            monkeypatch.setattr(longitudinal, name, counted)
        records, _, assignment = setting
        # Half the db fleet converges on one phase from week 2: the loop
        # remaps twice.
        db_ids = [r.instance_id for r in records if r.service == "db"]
        rng = np.random.default_rng(3)
        affected = rng.choice(db_ids, size=len(db_ids) // 2, replace=False)
        event = PhaseConvergenceEvent(
            week=2, instance_ids=frozenset(affected), target_offset_hours=12.0
        )
        fleet = DriftingFleet(
            records, PROFILES, no_drift, step_minutes=60, seed=1, event=event
        )
        sim = LongitudinalSimulation(fleet, assignment, level=Level.RPP)
        n_weeks = 4
        with obs_metrics.capturing() as registry:
            result = sim.run(n_weeks)
        swaps = result.total_swaps()
        remapped = [outcome.swaps_performed > 0 for outcome in result.adaptive]
        assert remapped == [False, False, True, True]
        assert built == {"view": n_weeks + 1, "state": 1, "monitor": 1}
        counters = registry.snapshot()["counters"]
        assert counters["delta.applied"] == n_weeks - 1 + swaps

    @pytest.mark.parametrize("change", ["ids", "grid"])
    def test_week_that_does_not_match_is_refused(self, setting, change):
        records, _, assignment = setting
        fleet = _Shifted(
            DriftingFleet(records, PROFILES, no_drift, step_minutes=60, seed=1), change
        )
        sim = LongitudinalSimulation(fleet, assignment, level=Level.RPP)
        with pytest.raises(ValueError, match="grid and instance order"):
            sim.run(2)
        assert np.array_equal(fleet.first.matrix, fleet.fleet.week(0).matrix)
