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

from collections import abc
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Sequence, Tuple, Union

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
        # The grids of a record's training week and of its held-out week,
        # which is always the last one.
        self._train_grid = self.grid.one_week()
        self._test_grid = replace(
            self._train_grid,
            start_minute=self._train_grid.start_minute + (weeks - 1) * MINUTES_PER_WEEK,
        )

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
        read-only row of the service's training or test matrix (so no
        record keeps the raw multi-week traces alive).  :meth:`fleet`
        writes the same rows into the fleet's matrices instead.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        n_train = training_week_count(self.weeks, test_weeks)
        shape = (count, self.grid.samples_per_week)
        test = np.empty(shape) if test_weeks else None
        return self._write_service(profile, np.empty(shape), test, n_train, id_prefix)

    def _write_service(
        self,
        profile: ServiceProfile,
        training: np.ndarray,
        test: Optional[np.ndarray],
        n_train: int,
        id_prefix: Optional[str] = None,
    ) -> List[InstanceRecord]:
        """Synthesize one instance per row of ``training`` (and ``test``).

        Built :data:`SYNTHESIS_BLOCK_ROWS` rows at a time.  Each block's
        rows are written in place, checked once by :meth:`PowerTrace.rows`
        (with the checks and messages a ``PowerTrace`` per row would raise)
        and made read-only; the records hold them as views.
        """
        count = len(training)
        prefix = id_prefix if id_prefix is not None else profile.name
        per_week = self.grid.samples_per_week
        with obs.span("synthesize.service", service=profile.name, count=count):
            obs.count("synthesize.instances", count)
            records: List[InstanceRecord] = []
            for start in range(0, count, SYNTHESIS_BLOCK_ROWS):
                rows = min(SYNTHESIS_BLOCK_ROWS, count - start)
                raw = self._raw_block(profile, rows, self._rng)
                by_week = raw.reshape(rows, self.weeks, per_week)
                # Eq. 4, adding weeks in order as average_instance_trace does;
                # dividing into the block is ``total / n_train`` to the bit.
                total = by_week[:, 0]
                for week in range(1, n_train):
                    total = total + by_week[:, week]
                block = training[start : start + rows]
                np.divide(total, n_train, out=block)
                training_rows = PowerTrace.rows(self._train_grid, _read_only(block))
                if test is None:
                    test_rows = [None] * rows
                else:
                    block = test[start : start + rows]
                    block[...] = by_week[:, -1]
                    test_rows = PowerTrace.rows(self._test_grid, _read_only(block))
                # Positional arguments: keywords cost a fifth of a record.
                for row in range(rows):
                    instance = ServiceInstance(
                        f"{prefix}-{start + row:05d}", profile.name, profile.kind
                    )
                    records.append(
                        InstanceRecord(instance, training_rows[row], test_rows[row])
                    )
            return records

    def fleet(
        self,
        composition: Sequence[Tuple[ServiceProfile, int]],
        *,
        test_weeks: int = 1,
    ) -> Fleet:
        """Instance records for a whole fleet given (profile, count) pairs.

        The fleet's training weeks and test weeks are allocated here, one
        ``(n, T)`` matrix each, and every service writes its rows into its
        slice of them, in composition order, with the arithmetic of
        :meth:`service_instances` (so each record has the same bits).
        """
        if any(count <= 0 for _, count in composition):
            raise ValueError("count must be positive")
        n_train = training_week_count(self.weeks, test_weeks)
        shape = (sum(count for _, count in composition), self.grid.samples_per_week)
        training = np.empty(shape)
        test = np.empty(shape) if test_weeks else None
        with obs.span("synthesize", services=len(composition)):
            records: List[InstanceRecord] = []
            start = 0
            for profile, count in composition:
                stop = start + count
                records.extend(
                    self._write_service(
                        profile,
                        training[start:stop],
                        None if test is None else test[start:stop],
                        n_train,
                    )
                )
                start = stop
            ids = [record.instance_id for record in records]
            return Fleet(
                records,
                TraceSet(self._train_grid, ids, _read_only(training)),
                None if test is None else TraceSet(self._test_grid, ids, _read_only(test)),
            )


def _read_only(matrix: np.ndarray) -> np.ndarray:
    """``matrix``, with writes through it (and views taken after) refused."""
    matrix.flags.writeable = False
    return matrix


class Fleet(abc.Sequence):
    """A synthesized fleet: its records over two read-only fleet matrices.

    ``training`` holds every record's Eq.-4 training week and ``test`` its
    held-out week (``None`` when no week was held out), one row per record
    in record order, and each record's traces are views of its rows.  Built
    by :meth:`TraceSynthesizer.fleet`.  Readers take the sets in place
    through :func:`fleet_trace_set`; a caller that writes copies them with
    :func:`training_trace_set` or :func:`test_trace_set`, since a write
    into a fleet matrix raises ``ValueError``.  Indexing with a slice
    returns a list of records, which is not a fleet.
    """

    __slots__ = ("_records", "training", "test")

    def __init__(
        self,
        records: List[InstanceRecord],
        training: TraceSet,
        test: Optional[TraceSet],
    ) -> None:
        self._records = records
        self.training = training
        self.test = test

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[InstanceRecord, List[InstanceRecord]]:
        return self._records[index]

    def __iter__(self) -> Iterator[InstanceRecord]:
        return iter(self._records)


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
    """The fleet's averaged training I-traces as one :class:`TraceSet`.

    A writable copy that the caller owns, for a :class:`Fleet` too.
    """
    return TraceSet.from_traces(
        {record.instance_id: record.training_trace for record in records}
    )


def test_trace_set(records: Sequence[InstanceRecord]) -> TraceSet:
    """The fleet's held-out test-week traces as one :class:`TraceSet`.

    A writable copy that the caller owns, for a :class:`Fleet` too.
    """
    missing = [r.instance_id for r in records if r.test_trace is None]
    if missing:
        raise ValueError(f"records without test traces: {missing[:5]}")
    return TraceSet.from_traces(
        {record.instance_id: record.test_trace for record in records}
    )


def fleet_trace_set(
    records: Sequence[InstanceRecord], *, test: bool = False
) -> TraceSet:
    """The records' training traces (held-out test weeks with ``test``), to read.

    For a :class:`Fleet`, its own read-only set, in O(1).  For any other
    sequence of records (a slice, repaired records, an import) the copy
    :func:`training_trace_set` or :func:`test_trace_set` makes.
    """
    if isinstance(records, Fleet):
        own = records.test if test else records.training
        if own is not None:
            return own
    return test_trace_set(records) if test else training_trace_set(records)
