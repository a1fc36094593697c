"""Synthetic power-trace generation.

The paper measures three weeks of per-minute power telemetry for every server
in three production Facebook datacenters.  We cannot obtain those traces, so
this module synthesises the closest structural equivalent (see DESIGN.md,
"Substitutions"): per-instance traces composed of

* a service-level diurnal/weekly activity shape (:class:`ServiceProfile`),
* per-instance heterogeneity — phase offsets, amplitude/baseline scaling —
  drawn once per instance and stable across weeks (this is the signal the
  placement framework exploits),
* week-over-week variation and AR(1)-correlated short-term noise (this is
  the signal Eq. 4's multi-week averaging is designed to suppress).

A service's instances are built :data:`SYNTHESIS_BLOCK_ROWS` at a time, one
instance per row.  Each instance consumes ``3 + weeks + m`` standard
normals in a fixed order (three personality draws, one scale per week,
``m`` white-noise samples), so one ``(rows, 3 + weeks + m)`` draw per block
is the same stream as drawing instance by instance, and ``loc + scale * z``
is ``rng.normal(loc, scale)`` to the bit (the white noise skips the
``0.0 +``, which no output can see; see :meth:`TraceSynthesizer._raw_block`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .grid import MINUTES_PER_WEEK, TimeGrid
from .instance import InstanceRecord, ServiceInstance, training_week_count
from .profiles import ServiceProfile
from .series import PowerTrace
from .traceset import TraceSet

#: Instances synthesised per block by :meth:`TraceSynthesizer.service_instances`
#: — bounds each intermediate at ``block_rows × n_samples`` floats regardless
#: of the service's size.  Any value gives the same traces.
SYNTHESIS_BLOCK_ROWS = 128

#: Personality draws per instance: phase offset, amplitude, baseline.
_PERSONALITY_DRAWS = 3


@dataclass(frozen=True)
class InstancePersonality:
    """Stable per-instance deviations from the service shape.

    Drawn once per instance; identical across weeks.  This is precisely the
    "instance-level heterogeneity ... from imbalanced accessing pattern or
    skewed popularity" of Sec. 3.3.
    """

    phase_offset_hours: float
    amplitude_scale: float
    baseline_scale: float

    def __post_init__(self) -> None:
        if self.amplitude_scale < 0 or self.baseline_scale < 0:
            raise ValueError("personality scales cannot be negative")


def _personality_columns(
    profile: ServiceProfile, z: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase, amplitude and baseline per row, from ``z``'s first three columns.

    Each is ``loc + scale * z``, the arithmetic of ``rng.normal(loc, scale)``,
    including the ``0.0 +`` (it turns ``-0.0`` into ``0.0``).
    """
    phase = 0.0 + profile.phase_jitter_hours * z[:, 0]
    amplitude = np.clip(1.0 + profile.amplitude_jitter * z[:, 1], 0.2, 3.0)
    baseline = np.clip(1.0 + profile.baseline_jitter * z[:, 2], 0.2, 3.0)
    return phase, amplitude, baseline


def draw_personality(
    profile: ServiceProfile, rng: np.random.Generator
) -> InstancePersonality:
    """Sample one instance's personality from the profile's jitter model."""
    phase, amplitude, baseline = _personality_columns(
        profile, rng.standard_normal((1, _PERSONALITY_DRAWS))
    )
    return InstancePersonality(float(phase[0]), float(amplitude[0]), float(baseline[0]))


class TraceSynthesizer:
    """Generates multi-week instance power traces for service profiles.

    Parameters
    ----------
    weeks:
        Number of whole weeks to synthesise (the paper collects 3: two for
        training, one held out — Sec. 5.1).
    step_minutes:
        Sampling step.  The paper logs per minute; the default of 10 minutes
        keeps fleet-scale experiments fast while preserving hourly structure.
    seed:
        Seed for the top-level RNG.  All randomness flows from here, so a
        given (seed, fleet spec) pair is fully reproducible.
    """

    def __init__(
        self,
        *,
        weeks: int = 3,
        step_minutes: int = 10,
        seed: int = 0,
    ) -> None:
        if weeks <= 0:
            raise ValueError("weeks must be positive")
        self.weeks = weeks
        self.grid = TimeGrid.for_weeks(weeks, step_minutes=step_minutes)
        self._rng = np.random.default_rng(seed)
        self._day_hours = self.grid.hours_of_day()[: self.grid.samples_per_day]
        self._weekend = (self.grid.days_of_week() >= 5).astype(np.float64)
        self._reversed_kernel = _ar1_kernel(self.grid.n_samples)[::-1].copy()

    # ------------------------------------------------------------------
    def instance_trace(
        self,
        profile: ServiceProfile,
        personality: Optional[InstancePersonality] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> PowerTrace:
        """One instance's raw multi-week power trace.

        The one-row case of the block kernel :meth:`service_instances` runs,
        so it draws from ``rng`` exactly what one instance of a block does.
        """
        rng = rng if rng is not None else self._rng
        return PowerTrace(self.grid, self._raw_block(profile, 1, rng, personality)[0])

    def _raw_block(
        self,
        profile: ServiceProfile,
        rows: int,
        rng: np.random.Generator,
        personality: Optional[InstancePersonality] = None,
    ) -> np.ndarray:
        """Raw multi-week traces of ``rows`` instances, shape ``(rows, n_samples)``.

        Draws every instance's personality (unless ``personality`` fixes it
        for all rows), week scales and white noise in one call, in the order
        per-instance draws would take them.
        """
        weeks, per_week = self.weeks, self.grid.samples_per_week
        noise_len = (
            (self.grid.n_samples + len(self._reversed_kernel) - 1) if profile.noise_std else 0
        )
        if personality is None:
            z = rng.standard_normal((rows, _PERSONALITY_DRAWS + weeks + noise_len))
            phase, amplitude, baseline = _personality_columns(profile, z)
            z = z[:, _PERSONALITY_DRAWS:]
        else:
            z = rng.standard_normal((rows, weeks + noise_len))
            phase = np.full(rows, personality.phase_offset_hours)
            amplitude = np.full(rows, personality.amplitude_scale)
            baseline = np.full(rows, personality.baseline_scale)

        # The activity shape is a function of the hour of day alone: compute
        # one day of it per instance and broadcast it over every day.
        per_day = self.grid.samples_per_day
        activity = profile.activity(np.mod(self._day_hours - phase[:, None], 24.0))
        # Weekly structure: weekends dampened for user-facing services.
        weekly = 1.0 - self._weekend * (1.0 - profile.weekend_factor)
        utilisation = np.empty((rows, self.grid.n_samples))
        np.multiply(
            activity[:, None, :],
            weekly.reshape(-1, per_day),
            out=utilisation.reshape(rows, -1, per_day),
        )

        # Week-over-week drift: each week gets a small load multiplier.
        week_scale = np.clip(1.0 + 0.03 * z[:, :weeks], 0.8, 1.2)
        by_week = utilisation.reshape(rows, weeks, per_week)
        by_week *= week_scale[:, :, None]

        # AR(1)-correlated multiplicative noise (sensor + load jitter).  One
        # correlation per row with the reversed kernel, which is what
        # np.convolve runs: its valid mode sums each output with BLAS ddot,
        # and any batched form (matmul, sliding sums) rounds the sums
        # differently.  The ``0.0 +`` of ``rng.normal(0.0, std)`` is left
        # out of the white noise: it only turns a -0.0 into 0.0, a zero
        # term of either sign adds nothing to a sum, and the ``1.0 +``
        # below maps a zero sum of either sign to 1.0.
        if noise_len:
            white = np.multiply(z[:, weeks:], profile.noise_std, out=z[:, weeks:])
            noise = np.empty_like(utilisation)
            for row, samples in zip(noise, white):
                row[:] = np.correlate(samples, self._reversed_kernel, mode="valid")
            noise += 1.0
            utilisation *= noise
        np.clip(utilisation, 0.0, 1.5, out=utilisation)

        idle = profile.idle_watts * baseline
        swing = profile.swing_watts * amplitude
        watts = np.multiply(utilisation, swing[:, None], out=utilisation)
        watts += idle[:, None]
        return np.maximum(watts, 0.0, out=watts)

    def service_instances(
        self,
        profile: ServiceProfile,
        count: int,
        *,
        id_prefix: Optional[str] = None,
        test_weeks: int = 1,
    ) -> List[InstanceRecord]:
        """``count`` instance records for one service.

        Each record holds the Eq.-4 averaged training trace (first
        ``weeks - test_weeks`` weeks) and the held-out test week, each a
        row of its block's training or test matrix (so no record keeps the
        raw multi-week traces alive).  Each of those matrices is checked
        once, by :meth:`PowerTrace.rows`, with the checks and messages a
        ``PowerTrace`` per row would raise.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        n_train = training_week_count(self.weeks, test_weeks)
        prefix = id_prefix if id_prefix is not None else profile.name
        per_week = self.grid.samples_per_week
        train_grid = self.grid.one_week()
        test_grid = replace(
            train_grid,
            start_minute=train_grid.start_minute + (self.weeks - 1) * MINUTES_PER_WEEK,
        )
        with obs.span("synthesize.service", service=profile.name, count=count):
            obs.count("synthesize.instances", count)
            records: List[InstanceRecord] = []
            for start in range(0, count, SYNTHESIS_BLOCK_ROWS):
                rows = min(SYNTHESIS_BLOCK_ROWS, count - start)
                raw = self._raw_block(profile, rows, self._rng)
                by_week = raw.reshape(rows, self.weeks, per_week)
                # Eq. 4, adding weeks in order as average_instance_trace does.
                total = by_week[:, 0]
                for week in range(1, n_train):
                    total = total + by_week[:, week]
                training = PowerTrace.rows(train_grid, total / n_train)
                test = (
                    PowerTrace.rows(test_grid, by_week[:, -1].copy())
                    if test_weeks
                    else [None] * rows
                )
                # Positional arguments: keywords cost a fifth of a record.
                for row in range(rows):
                    instance = ServiceInstance(
                        f"{prefix}-{start + row:05d}", profile.name, profile.kind
                    )
                    records.append(InstanceRecord(instance, training[row], test[row]))
            return records

    def fleet(
        self,
        composition: Sequence[Tuple[ServiceProfile, int]],
        *,
        test_weeks: int = 1,
    ) -> List[InstanceRecord]:
        """Instance records for a whole fleet given (profile, count) pairs."""
        with obs.span("synthesize", services=len(composition)):
            records: List[InstanceRecord] = []
            for profile, count in composition:
                records.extend(
                    self.service_instances(profile, count, test_weeks=test_weeks)
                )
            return records


def _ar1_kernel(n_samples: int, rho: float = 0.9) -> np.ndarray:
    """Unit-energy AR(1) impulse response, truncated where ``rho^k`` is negligible.

    Convolving white noise of std ``s`` with it gives zero-mean temporally
    correlated noise with marginal std ``s``.
    """
    length = min(n_samples, max(8, int(np.ceil(np.log(1e-3) / np.log(rho)))))
    kernel = rho ** np.arange(length)
    kernel /= np.sqrt((kernel * kernel).sum())  # unit marginal variance
    return kernel


def training_trace_set(records: Sequence[InstanceRecord]) -> TraceSet:
    """The fleet's averaged training I-traces as one :class:`TraceSet`."""
    return TraceSet.from_traces(
        {record.instance_id: record.training_trace for record in records}
    )


def test_trace_set(records: Sequence[InstanceRecord]) -> TraceSet:
    """The fleet's held-out test-week traces as one :class:`TraceSet`."""
    missing = [r.instance_id for r in records if r.test_trace is None]
    if missing:
        raise ValueError(f"records without test traces: {missing[:5]}")
    return TraceSet.from_traces(
        {record.instance_id: record.test_trace for record in records}
    )
