"""Property-based tests: block synthesis equals per-instance synthesis exactly.

:meth:`TraceSynthesizer.service_instances` builds a service's instances a
block of rows at a time.  The oracle here is the per-instance loop it
replaced, kept verbatim below: scalar ``rng.normal`` draws, a 1-D activity
series, one AR(1) convolution per instance, then ``split_weeks`` and
:meth:`InstanceRecord.from_weeks`.  Every record must match to the bit and
the generator must end in the same state, for every shape, jitter and noise
setting, week split, sampling step, and block boundary.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces import (
    InstancePersonality,
    InstanceRecord,
    PowerTrace,
    ServiceInstance,
    ServiceProfile,
    Shape,
    TraceSynthesizer,
    draw_personality,
)
from repro.traces.synthesis import SYNTHESIS_BLOCK_ROWS

B = SYNTHESIS_BLOCK_ROWS
COUNTS = (1, B - 1, B, B + 1, 2 * B + 1)


# ----------------------------------------------------------------------
# The per-instance oracle
# ----------------------------------------------------------------------
def oracle_personality(profile, rng):
    phase = float(rng.normal(0.0, profile.phase_jitter_hours))
    amplitude = float(np.clip(rng.normal(1.0, profile.amplitude_jitter), 0.2, 3.0))
    baseline = float(np.clip(rng.normal(1.0, profile.baseline_jitter), 0.2, 3.0))
    return InstancePersonality(phase, amplitude, baseline)


def oracle_ar1_noise(n_samples, std, rng, rho=0.9):
    if std == 0:
        return np.zeros(n_samples)
    length = min(n_samples, max(8, int(np.ceil(np.log(1e-3) / np.log(rho)))))
    kernel = rho ** np.arange(length)
    kernel /= np.sqrt((kernel * kernel).sum())
    white = rng.normal(0.0, std, size=n_samples + length - 1)
    return np.convolve(white, kernel, mode="valid")


def oracle_instance_trace(grid, weeks, profile, rng, personality=None):
    if personality is None:
        personality = oracle_personality(profile, rng)
    hours = grid.hours_of_day() - personality.phase_offset_hours
    activity = profile.activity(np.mod(hours, 24.0))
    weekend = (grid.days_of_week() >= 5).astype(np.float64)
    weekly = 1.0 - weekend * (1.0 - profile.weekend_factor)
    week_scale = rng.normal(1.0, 0.03, size=weeks).clip(0.8, 1.2)
    week_factor = np.repeat(week_scale, grid.samples_per_week)[: grid.n_samples]
    noise = oracle_ar1_noise(grid.n_samples, profile.noise_std, rng)
    utilisation = np.clip(activity * weekly * week_factor * (1.0 + noise), 0.0, 1.5)
    idle = profile.idle_watts * personality.baseline_scale
    swing = profile.swing_watts * personality.amplitude_scale
    values = idle + swing * utilisation
    return PowerTrace(grid, np.maximum(values, 0.0))


def oracle_records(grid, weeks, profile, count, rng, test_weeks):
    records = []
    for index in range(count):
        instance = ServiceInstance(f"{profile.name}-{index:05d}", profile.name, profile.kind)
        raw = oracle_instance_trace(grid, weeks, profile, rng)
        records.append(
            InstanceRecord.from_weeks(instance, raw.split_weeks(), test_weeks=test_weeks)
        )
    return records


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def jitter():
    return st.one_of(st.just(0.0), st.floats(0.01, 3.0))


@st.composite
def profiles(draw, shapes=Shape.ALL):
    idle = draw(st.floats(0.0, 200.0))
    return ServiceProfile(
        name="svc",
        shape=draw(st.sampled_from(shapes)),
        idle_watts=idle,
        peak_watts=idle + draw(st.floats(1.0, 250.0)),
        peak_hour=draw(st.floats(0.0, 23.9)),
        sharpness=draw(st.floats(0.2, 6.0)),
        weekend_factor=draw(st.floats(0.2, 1.2)),
        noise_std=draw(st.one_of(st.just(0.0), st.floats(0.001, 0.3))),
        phase_jitter_hours=draw(jitter()),
        amplitude_jitter=draw(jitter()),
        baseline_jitter=draw(jitter()),
    )


@st.composite
def week_splits(draw):
    weeks = draw(st.integers(1, 4))
    return weeks, draw(st.integers(0, weeks - 1))


def assert_same_records(actual, expected):
    assert [r.instance for r in actual] == [r.instance for r in expected]
    for got, want in zip(actual, expected):
        assert got.training_trace.grid == want.training_trace.grid
        assert np.array_equal(got.training_trace.values, want.training_trace.values)
        if want.test_trace is None:
            assert got.test_trace is None
        else:
            assert got.test_trace.grid == want.test_trace.grid
            assert np.array_equal(got.test_trace.values, want.test_trace.values)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
class TestBlockSynthesisIsExact:
    @pytest.mark.parametrize("shape", Shape.ALL)
    @settings(max_examples=12, deadline=None)
    @given(
        data=st.data(),
        split=week_splits(),
        step=st.sampled_from((30, 60, 120)),
        count=st.sampled_from(COUNTS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_service_instances_match_per_instance_loop(
        self, shape, data, split, step, count, seed
    ):
        profile = data.draw(profiles(shapes=(shape,)))
        weeks, test_weeks = split
        synth = TraceSynthesizer(weeks=weeks, step_minutes=step, seed=seed)
        rng = np.random.default_rng(seed)
        actual = synth.service_instances(profile, count, test_weeks=test_weeks)
        expected = oracle_records(synth.grid, weeks, profile, count, rng, test_weeks)
        assert_same_records(actual, expected)
        assert synth._rng.bit_generator.state == rng.bit_generator.state

    @settings(max_examples=15, deadline=None)
    @given(
        first=profiles(),
        second=profiles(),
        counts=st.tuples(st.sampled_from(COUNTS), st.sampled_from(COUNTS)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fleet_continues_the_stream_across_services(self, first, second, counts, seed):
        second = replace(second, name="other")
        synth = TraceSynthesizer(weeks=3, step_minutes=60, seed=seed)
        rng = np.random.default_rng(seed)
        actual = synth.fleet([(first, counts[0]), (second, counts[1])])
        expected = oracle_records(synth.grid, 3, first, counts[0], rng, 1)
        expected += oracle_records(synth.grid, 3, second, counts[1], rng, 1)
        assert_same_records(actual, expected)
        assert synth._rng.bit_generator.state == rng.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(
        profile=profiles(),
        weeks=st.integers(1, 4),
        step=st.sampled_from((30, 60, 120)),
        fixed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_instance_trace_is_the_one_row_case(self, profile, weeks, step, fixed, seed):
        synth = TraceSynthesizer(weeks=weeks, step_minutes=step, seed=seed)
        rng = np.random.default_rng(seed)
        personality = (
            draw_personality(profile, np.random.default_rng(seed + 1)) if fixed else None
        )
        actual = synth.instance_trace(profile, personality)
        expected = oracle_instance_trace(synth.grid, weeks, profile, rng, personality)
        assert actual == expected
        assert synth._rng.bit_generator.state == rng.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(profile=profiles(), seed=st.integers(0, 2**32 - 1))
    def test_draw_personality_matches_scalar_draws(self, profile, seed):
        rng = np.random.default_rng(seed)
        oracle_rng = np.random.default_rng(seed)
        assert draw_personality(profile, rng) == oracle_personality(profile, oracle_rng)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestNoiseKernel:
    """The block kernel's noise arithmetic against ``np.convolve``'s."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        zeros=st.one_of(st.just("all"), st.lists(st.integers(0, 199), max_size=40)),
        std=st.floats(0.001, 0.3),
        step=st.sampled_from((30, 60, 120)),
    )
    def test_signed_zeros_never_reach_the_noise_factor(self, seed, zeros, std, step):
        """Scaling without ``0.0 +`` and correlating with the reversed
        kernel gives the factor ``1.0 + np.convolve(0.0 + std * z, kernel)``
        to the bit, -0.0 draws included."""
        synth = TraceSynthesizer(weeks=1, step_minutes=step, seed=0)
        reversed_kernel = synth._reversed_kernel
        z = np.random.default_rng(seed).standard_normal(
            synth.grid.n_samples + len(reversed_kernel) - 1
        )
        if zeros == "all":
            z[:] = -0.0
        else:
            z[[index for index in zeros if index < len(z)]] = -0.0
        factor = 1.0 + np.correlate(std * z, reversed_kernel, mode="valid")
        oracle = 1.0 + np.convolve(0.0 + std * z, reversed_kernel[::-1], mode="valid")
        assert np.array_equal(factor, oracle)
