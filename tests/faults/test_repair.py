"""Unit tests for the telemetry sanitisation pipeline."""

import numpy as np
import pytest

from repro.faults import (
    FaultPlan,
    GridMisalignment,
    NegativeGlitch,
    PowerSpike,
    RawTelemetry,
    RepairPolicy,
    SensorDropout,
    StuckSensor,
    dirty_copy,
    realign,
    repair_telemetry,
)
from repro.traces import TimeGrid, TraceSet

GRID = TimeGrid(0, 10, 288)


def smooth_traces(n_rows=6, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(GRID.n_samples)
    base = 100.0 + 30.0 * np.sin(2 * np.pi * t / 144)
    matrix = base + rng.normal(0, 1.5, (n_rows, GRID.n_samples))
    return TraceSet(GRID, [f"s{i}" for i in range(n_rows)], np.maximum(matrix, 1.0))


class TestCleanPassThrough:
    def test_clean_input_unchanged(self):
        traces = smooth_traces()
        outcome = repair_telemetry(traces)
        assert outcome.report.n_flagged == 0
        np.testing.assert_allclose(outcome.traces.matrix, traces.matrix)

    def test_accepts_traceset_directly(self):
        outcome = repair_telemetry(smooth_traces())
        assert isinstance(outcome.traces, TraceSet)


class TestGapRepair:
    def test_gaps_interpolated(self):
        traces = smooth_traces()
        dirty = dirty_copy(
            traces, FaultPlan((SensorDropout(fraction_of_traces=1.0),), seed=1)
        )
        outcome = repair_telemetry(dirty)
        assert np.isfinite(outcome.traces.matrix).all()
        assert outcome.report.n_missing_input > 0
        assert outcome.report.n_interpolated >= outcome.report.n_missing_input
        # Interpolation lands near the clean signal.
        err = np.abs(outcome.traces.matrix - traces.matrix).max()
        assert err < 10.0

    def test_dead_trace_zero_filled(self):
        traces = smooth_traces(n_rows=2)
        matrix = traces.matrix.copy()
        matrix[0, 10:] = np.nan  # >80% missing
        outcome = repair_telemetry(RawTelemetry(GRID, list(traces.ids), matrix))
        assert outcome.report.dead_traces == ["s0"]
        assert outcome.traces.row("s0").max() == 0.0
        assert outcome.traces.row("s1").max() > 0


class TestDetectors:
    def test_negative_readings_flagged(self):
        traces = smooth_traces()
        dirty = dirty_copy(
            traces, FaultPlan((NegativeGlitch(fraction_of_traces=1.0),), seed=2)
        )
        outcome = repair_telemetry(dirty)
        assert outcome.report.n_negative > 0
        assert (outcome.traces.matrix >= 0).all()

    def test_spikes_removed(self):
        traces = smooth_traces()
        dirty = dirty_copy(
            traces,
            FaultPlan((PowerSpike(fraction_of_traces=1.0, spikes_per_trace=2),), seed=3),
        )
        outcome = repair_telemetry(dirty)
        assert outcome.report.n_spikes > 0
        assert outcome.traces.matrix.max() < traces.matrix.max() * 2

    def test_stuck_runs_repaired(self):
        traces = smooth_traces()
        dirty = dirty_copy(
            traces,
            FaultPlan((StuckSensor(fraction_of_traces=1.0, stuck_samples=36),), seed=4),
        )
        outcome = repair_telemetry(dirty)
        assert outcome.report.n_stuck > 0

    def test_flat_trace_not_flagged_as_stuck(self):
        matrix = np.full((1, GRID.n_samples), 42.0)
        outcome = repair_telemetry(RawTelemetry(GRID, ["flat"], matrix))
        assert outcome.report.n_stuck == 0
        np.testing.assert_allclose(outcome.traces.row("flat"), 42.0)


class TestFixpoint:
    def test_no_op_refill_ends_the_loop(self, monkeypatch):
        """A stuck run through a row's last sample is re-filled with its own
        value, so the detect/re-fill loop has reached its fixpoint: it stops
        by the second detect pass and counts each flagged sample once at
        most."""
        import repro.faults.repair as repair_module

        traces = smooth_traces(n_rows=2)
        matrix = traces.matrix.copy()
        matrix[0, -20:] = matrix[0, -21]  # 20 stuck samples after a real one
        passes = []
        detect = repair_module._stuck_mask

        def counting_detect(values, min_run):
            passes.append(min_run)
            return detect(values, min_run)

        monkeypatch.setattr(repair_module, "_stuck_mask", counting_detect)
        outcome = repair_telemetry(RawTelemetry(GRID, list(traces.ids), matrix))
        assert len(passes) <= 2
        assert outcome.report.n_stuck <= 20
        assert outcome.report.n_interpolated <= 20
        np.testing.assert_array_equal(outcome.traces.matrix, matrix)


class TestRealign:
    def test_misaligned_grid_snapped_back(self):
        traces = smooth_traces()
        dirty = dirty_copy(
            traces, FaultPlan((GridMisalignment(offset_minutes=3),), seed=5)
        )
        outcome = repair_telemetry(dirty)
        assert outcome.traces.grid == GRID
        assert outcome.report.realigned_minutes == 3
        # A 3-minute skew on a smooth diurnal signal is nearly invisible.
        err = np.abs(outcome.traces.matrix - traces.matrix).max()
        assert err < 10.0

    def test_explicit_target_grid(self):
        traces = smooth_traces()
        shifted = RawTelemetry(
            TimeGrid(3, 10, GRID.n_samples), list(traces.ids), traces.matrix.copy()
        )
        aligned = realign(shifted, GRID)
        assert aligned.grid == GRID

    def test_resampling_rejected(self):
        traces = smooth_traces()
        raw = RawTelemetry.from_traceset(traces)
        with pytest.raises(ValueError):
            realign(raw, TimeGrid(0, 5, GRID.n_samples))


class TestPolicyValidation:
    def test_bad_policies_rejected(self):
        with pytest.raises(ValueError):
            RepairPolicy(despike_window=2)
        with pytest.raises(ValueError):
            RepairPolicy(despike_factor=1.0)
        with pytest.raises(ValueError):
            RepairPolicy(stuck_min_run=1)
        with pytest.raises(ValueError):
            RepairPolicy(max_dead_fraction=0.0)


class TestReport:
    def test_summary_and_fraction(self):
        traces = smooth_traces()
        dirty = dirty_copy(
            traces,
            FaultPlan(
                (
                    SensorDropout(fraction_of_traces=0.5),
                    NegativeGlitch(fraction_of_traces=0.5),
                ),
                seed=6,
            ),
        )
        report = repair_telemetry(dirty).report
        summary = report.summary()
        assert summary["missing"] == report.n_missing_input
        assert 0 < report.repaired_fraction < 1
