"""Property-based tests for the fault-injection subsystem.

Three invariants the chaos harness leans on:

* repair is idempotent — sanitised telemetry passes through unchanged;
* interpolating an injected gap recovers the clean trace (exactly for
  linear signals, within a curvature bound for smooth ones);
* the emergency capping fallback never sheds a service class below its
  policy floor.

Repair's vectorised NaN percentile is also held to ``np.nanpercentile``'s
bits.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.faults import (
    FaultPlan,
    NegativeGlitch,
    PowerSpike,
    RawTelemetry,
    RepairPolicy,
    SensorDropout,
    StuckSensor,
    dirty_copy,
    repair_telemetry,
)
from repro.faults.repair import _nan_percentile_lastaxis
from repro.infra import Assignment, CappingPolicy, CappingSimulator, PowerNode, PowerTopology
from repro.traces import ServiceKind, TimeGrid, TraceSet

GRID = TimeGrid(0, 10, 288)


def smooth_matrix(n_rows, seed, noise=1.0):
    rng = np.random.default_rng(seed)
    t = np.arange(GRID.n_samples)
    base = 100.0 + 30.0 * np.sin(2 * np.pi * t / 144)
    return np.maximum(base + rng.normal(0, noise, (n_rows, GRID.n_samples)), 1.0)


class TestRepairIdempotent:
    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_second_repair_is_identity(self, seed):
        traces = TraceSet(GRID, ["a", "b", "c", "d"], smooth_matrix(4, seed))
        plan = FaultPlan(
            faults=(
                SensorDropout(fraction_of_traces=0.5),
                StuckSensor(fraction_of_traces=0.5),
                PowerSpike(fraction_of_traces=0.5, spikes_per_trace=2),
                NegativeGlitch(fraction_of_traces=0.25),
            ),
            seed=seed,
        )
        first = repair_telemetry(dirty_copy(traces, plan))
        second = repair_telemetry(first.traces)
        np.testing.assert_allclose(
            second.traces.matrix, first.traces.matrix, atol=1e-9
        )

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_repaired_output_is_strict_traceset(self, seed):
        traces = TraceSet(GRID, ["a", "b"], smooth_matrix(2, seed))
        plan = FaultPlan(
            faults=(SensorDropout(fraction_of_traces=1.0),), seed=seed
        )
        outcome = repair_telemetry(dirty_copy(traces, plan))
        # TraceSet construction itself enforces finite, non-negative values;
        # re-check explicitly so a loosened TraceSet cannot mask a regression.
        assert np.isfinite(outcome.traces.matrix).all()
        assert (outcome.traces.matrix >= 0).all()


class TestGapInterpolation:
    @given(
        st.integers(1, GRID.n_samples - 14),  # interior gap start
        st.integers(1, 12),
        st.floats(0.1, 5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_linear_trace_recovered_exactly(self, start, length, slope):
        clean = 10.0 + slope * np.arange(GRID.n_samples, dtype=np.float64)
        dirty = clean.copy()
        dirty[start : start + length] = np.nan
        outcome = repair_telemetry(RawTelemetry(GRID, ["ramp"], dirty[None, :]))
        np.testing.assert_allclose(outcome.traces.row("ramp"), clean, atol=1e-6)

    @given(st.integers(1, GRID.n_samples - 14), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_sinusoid_recovered_within_curvature_bound(self, start, length):
        amplitude = 30.0
        t = np.arange(GRID.n_samples)
        clean = 100.0 + amplitude * np.sin(2 * np.pi * t / 144)
        dirty = clean.copy()
        dirty[start : start + length] = np.nan
        # Disable the stuck-at detector: a gap landing on the sine's flat
        # extremum gets widened by stuck-run marking, and the curvature
        # bound below only holds for the injected gap width.
        policy = RepairPolicy(stuck_min_run=GRID.n_samples)
        outcome = repair_telemetry(
            RawTelemetry(GRID, ["sine"], dirty[None, :]), policy=policy
        )
        # Linear interpolation of A sin(wt) over g samples errs at most
        # A w^2 (g+1)^2 / 8; with w = 2*pi/144 and g <= 12 that is ~4% of A.
        tolerance = amplitude * (2 * np.pi / 144) ** 2 * (length + 1) ** 2 / 8
        err = np.abs(outcome.traces.row("sine") - clean).max()
        assert err <= tolerance + 1e-9


@st.composite
def nan_stacks(draw):
    """Small row matrices or (rows, samples, window) stacks with NaN
    readings, all-NaN slices among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from([(1, 1), (1, 2), (3, 7), (5, 24), (2, 6, 11), (4, 5, 11)]))
    values = rng.uniform(0, 500, shape)
    values[rng.random(shape) < draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))] = np.nan
    if draw(st.booleans()):
        values[0] = np.nan
    return values


class TestNanPercentileMatchesNumpy:
    @given(values=nan_stacks(), q=st.sampled_from([0, 10, 50, 95, 99.5, 100]))
    @settings(max_examples=200, deadline=None)
    def test_bit_for_bit(self, values, q):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN slices
            expected = np.nanpercentile(values, q, axis=-1)
        assert _nan_percentile_lastaxis(values, q).tobytes() == expected.tobytes()


class TestCappingFloors:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=(3, 24),
            elements=st.floats(0, 200, allow_nan=False, allow_infinity=False),
        ),
        st.floats(1, 400),
    )
    @settings(max_examples=40, deadline=None)
    def test_capped_draw_never_below_class_floor(self, matrix, budget):
        """The fallback sheds down to the floors, never through them."""
        grid = TimeGrid(0, 60, 24)
        root = PowerNode("dc", level="datacenter", budget_watts=budget)
        topology = PowerTopology(root)
        assignment = Assignment(
            topology, {"lc": "dc", "batch": "dc", "other": "dc"}
        )
        traces = TraceSet(grid, ["lc", "batch", "other"], matrix)
        kinds = {
            "lc": ServiceKind.LATENCY_CRITICAL,
            "batch": ServiceKind.BATCH,
            "other": ServiceKind.OTHER,
        }
        policy = CappingPolicy()
        _, capped = CappingSimulator(
            topology, assignment, traces, kinds, policy=policy
        ).run_capped()
        for instance_id in ("lc", "batch", "other"):
            floor = policy.floor_for(kinds[instance_id])
            np.testing.assert_array_less(
                floor * traces.row(instance_id) - 1e-6,
                capped.row(instance_id) + 1e-9,
            )
