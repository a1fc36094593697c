"""Unit tests for the synthetic trace generator."""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.traces import test_trace_set as heldout_trace_set
from repro.traces import (
    InstancePersonality,
    ServiceKind,
    TraceSynthesizer,
    db_profile,
    draw_personality,
    hadoop_profile,
    training_trace_set,
    web_profile,
)


@pytest.fixture
def synth():
    return TraceSynthesizer(weeks=3, step_minutes=30, seed=1)


class TestSynthesizer:
    def test_rejects_zero_weeks(self):
        with pytest.raises(ValueError):
            TraceSynthesizer(weeks=0)

    def test_trace_covers_weeks(self, synth):
        trace = synth.instance_trace(web_profile())
        assert trace.grid.covers_whole_weeks()
        assert trace.grid.n_weeks == 3

    def test_trace_nonnegative(self, synth):
        trace = synth.instance_trace(web_profile())
        assert trace.valley() >= 0

    def test_web_peaks_daytime(self, synth):
        personality = InstancePersonality(0.0, 1.0, 1.0)
        trace = synth.instance_trace(web_profile(), personality)
        assert 10 <= trace.peak_hour() <= 18

    def test_db_peaks_nighttime(self, synth):
        personality = InstancePersonality(0.0, 1.0, 1.0)
        trace = synth.instance_trace(db_profile(), personality)
        peak_hour = trace.peak_hour()
        assert peak_hour <= 6 or peak_hour >= 22

    def test_hadoop_flat(self, synth):
        personality = InstancePersonality(0.0, 1.0, 1.0)
        trace = synth.instance_trace(hadoop_profile(), personality)
        assert trace.peak_to_mean() < 1.5

    def test_web_swings_harder_than_hadoop(self, synth):
        personality = InstancePersonality(0.0, 1.0, 1.0)
        web = synth.instance_trace(web_profile(), personality)
        hadoop = synth.instance_trace(hadoop_profile(), personality)
        assert web.peak_to_mean() > hadoop.peak_to_mean()

    def test_determinism(self):
        a = TraceSynthesizer(weeks=2, step_minutes=30, seed=9).instance_trace(
            web_profile()
        )
        b = TraceSynthesizer(weeks=2, step_minutes=30, seed=9).instance_trace(
            web_profile()
        )
        assert a == b

    def test_different_seeds_differ(self):
        a = TraceSynthesizer(weeks=2, step_minutes=30, seed=1).instance_trace(
            web_profile()
        )
        b = TraceSynthesizer(weeks=2, step_minutes=30, seed=2).instance_trace(
            web_profile()
        )
        assert a != b

    def test_phase_offset_shifts_peak(self, synth):
        early = synth.instance_trace(
            web_profile(), InstancePersonality(-3.0, 1.0, 1.0)
        )
        late = synth.instance_trace(
            web_profile(), InstancePersonality(3.0, 1.0, 1.0)
        )
        assert early.peak_hour() < late.peak_hour()

    def test_amplitude_scale_raises_peak(self, synth):
        small = synth.instance_trace(
            web_profile(), InstancePersonality(0.0, 0.5, 1.0)
        )
        big = synth.instance_trace(
            web_profile(), InstancePersonality(0.0, 1.5, 1.0)
        )
        assert big.peak() > small.peak()


class TestPersonality:
    def test_draw_within_bounds(self, rng):
        for _ in range(50):
            p = draw_personality(web_profile(), rng)
            assert 0.2 <= p.amplitude_scale <= 3.0
            assert 0.2 <= p.baseline_scale <= 3.0

    def test_negative_scales_rejected(self):
        with pytest.raises(ValueError):
            InstancePersonality(0.0, -1.0, 1.0)

    def test_zero_jitter_profile_gives_unit_scales(self, rng):
        profile = web_profile().with_heterogeneity(0.0)
        p = draw_personality(profile, rng)
        assert p.phase_offset_hours == 0.0
        assert p.amplitude_scale == pytest.approx(1.0)
        assert p.baseline_scale == pytest.approx(1.0)


class TestFleetGeneration:
    def test_service_instances_metadata(self, synth):
        records = synth.service_instances(web_profile(), 5)
        assert len(records) == 5
        assert all(r.service == "web" for r in records)
        assert all(r.kind == ServiceKind.LATENCY_CRITICAL for r in records)
        assert len({r.instance_id for r in records}) == 5

    def test_service_instances_train_test_split(self, synth):
        records = synth.service_instances(web_profile(), 2, test_weeks=1)
        for record in records:
            assert record.training_trace.grid.n_weeks == 1
            assert record.test_trace is not None

    def test_count_must_be_positive(self, synth):
        with pytest.raises(ValueError):
            synth.service_instances(web_profile(), 0)

    @pytest.mark.parametrize("test_weeks", [0, 1])
    def test_non_finite_traces_rejected(self, synth, test_weeks):
        """Each block is checked once, and rejects what a check per record did."""
        profile = replace(web_profile(), peak_watts=float("inf"))
        with pytest.raises(ValueError, match="^trace values must be finite$"):
            synth.service_instances(profile, 3, test_weeks=test_weeks)

    def test_fleet_concatenates(self, synth):
        records = synth.fleet([(web_profile(), 3), (db_profile(), 2)])
        assert len(records) == 5
        assert {r.service for r in records} == {"web", "db"}

    def test_training_trace_set(self, synth):
        records = synth.fleet([(web_profile(), 3)])
        ts = training_trace_set(records)
        assert len(ts) == 3
        assert ts.grid.n_weeks == 1

    def test_test_trace_set(self, synth):
        records = synth.fleet([(web_profile(), 3)])
        ts = heldout_trace_set(records)
        assert len(ts) == 3

    def test_test_trace_set_requires_test_weeks(self, synth):
        records = synth.service_instances(web_profile(), 2, test_weeks=0)
        with pytest.raises(ValueError):
            heldout_trace_set(records)

    def test_instance_heterogeneity_visible(self):
        """Instances of the same service should not be identical."""
        synth = TraceSynthesizer(weeks=2, step_minutes=30, seed=3)
        records = synth.service_instances(web_profile(), 6)
        peaks = [r.training_trace.peak() for r in records]
        assert np.std(peaks) > 0

    def test_averaging_suppresses_noise(self):
        """The averaged I-trace should be smoother than any single week."""
        synth = TraceSynthesizer(weeks=3, step_minutes=30, seed=4)
        raw = synth.instance_trace(web_profile(), InstancePersonality(0, 1, 1))
        averaged = raw.average_weeks()
        weekly_stds = [w.values.std() for w in raw.split_weeks()]
        # Averaging cannot increase time-of-week variance beyond a single
        # week's (noise cancels; only the shared diurnal signal remains).
        assert averaged.values.std() <= max(weekly_stds) * 1.05


class TestMemory:
    def test_records_retain_only_their_training_and_test_weeks(self):
        """A record keeps its averaged week and its held-out week alive, not
        the raw multi-week telemetry they came from."""
        synth = TraceSynthesizer(weeks=3, step_minutes=30, seed=11)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            records = synth.service_instances(web_profile(), 600)
            records += synth.service_instances(hadoop_profile(), 400)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        week_bytes = sum(
            r.training_trace.values.nbytes + r.test_trace.values.nbytes for r in records
        )
        assert retained <= 1.25 * week_bytes, retained / week_bytes
