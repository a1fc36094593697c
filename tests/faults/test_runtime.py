"""Unit tests for runtime faults and the emergency capping fallback."""

import numpy as np
import pytest

from repro.engine import (
    ConversionFaultModel,
    FailureEvent,
    FleetDescription,
    ScenarioSpec,
    ServerFailureSchedule,
    execute,
)
from repro.reshaping import ConversionPolicy, ThrottleBoostPolicy
from repro.sim import DemandTrace, DVFSModel, ServerPowerModel
from repro.traces import TimeGrid


@pytest.fixture
def grid():
    return TimeGrid.for_days(2, step_minutes=60)


@pytest.fixture
def demand(grid):
    hours = grid.hours_of_day()
    shape = 0.35 + 0.5 * np.exp(2.0 * (np.cos(2 * np.pi * (hours - 14) / 24) - 1))
    return DemandTrace(grid, shape * 100.0)


def make_fleet(budget_watts=45_000.0):
    return FleetDescription(
        n_lc=100,
        n_batch=40,
        lc_model=ServerPowerModel(90, 240),
        batch_model=ServerPowerModel(150, 235),
        budget_watts=budget_watts,
    )


def run_chaos(mode, demand, extra_servers, budget_watts=45_000.0, **models):
    """One chaos-mode scenario on the standard fleet, through the engine."""
    spec = ScenarioSpec(
        mode=mode,
        fleet=make_fleet(budget_watts),
        demand=demand,
        conversion=ConversionPolicy(conversion_threshold=0.85),
        throttle=ThrottleBoostPolicy(),
        dvfs=DVFSModel(),
        extra_servers=extra_servers,
        **models,
    )
    return execute(spec).result


class TestFailureSchedule:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FailureEvent(start_index=-1, duration_samples=1, n_servers=1)
        with pytest.raises(ValueError):
            FailureEvent(start_index=0, duration_samples=0, n_servers=1)
        with pytest.raises(ValueError):
            FailureEvent(start_index=0, duration_samples=1, n_servers=0)
        with pytest.raises(ValueError):
            FailureEvent(start_index=0, duration_samples=1, n_servers=1, pool="gpu")

    def test_lost_servers_window(self):
        schedule = ServerFailureSchedule(
            events=(
                FailureEvent(start_index=2, duration_samples=3, n_servers=5),
                FailureEvent(
                    start_index=4, duration_samples=2, n_servers=2, pool="batch"
                ),
            )
        )
        lc, batch = schedule.lost_servers(8)
        np.testing.assert_array_equal(lc, [0, 0, 5, 5, 5, 0, 0, 0])
        np.testing.assert_array_equal(batch, [0, 0, 0, 0, 2, 2, 0, 0])
        assert schedule.downtime_server_steps(8) == 15 + 4

    def test_event_clipped_at_trace_end(self):
        schedule = ServerFailureSchedule(
            events=(FailureEvent(start_index=6, duration_samples=10, n_servers=1),)
        )
        lc, _ = schedule.lost_servers(8)
        assert lc.sum() == 2

    def test_random_schedule_deterministic(self, grid):
        a = ServerFailureSchedule.random(grid, n_lc=100, n_batch=40, seed=3)
        b = ServerFailureSchedule.random(grid, n_lc=100, n_batch=40, seed=3)
        assert a == b

    def test_random_schedule_scales_with_rate(self, grid):
        quiet = ServerFailureSchedule.random(
            grid, n_lc=100, n_batch=40, events_per_week=0.0, seed=1
        )
        busy = ServerFailureSchedule.random(
            grid, n_lc=100, n_batch=40, events_per_week=50.0, seed=1
        )
        assert len(quiet.events) == 0
        assert len(busy.events) > 0


class TestConversionFaultModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConversionFaultModel(latency_steps=-1)
        with pytest.raises(ValueError):
            ConversionFaultModel(failure_prob=1.0)
        with pytest.raises(ValueError):
            ConversionFaultModel(max_retries=-1)

    def test_no_faults_is_identity(self):
        target = np.array([0.0, 5.0, 5.0, 2.0, 8.0, 0.0])
        realized, log = ConversionFaultModel().realize(
            target, np.random.default_rng(0)
        )
        np.testing.assert_array_equal(realized, target)
        assert log.n_aborted == 0
        assert log.delayed_server_steps == 0.0

    def test_realized_never_exceeds_target(self):
        rng = np.random.default_rng(1)
        target = np.abs(np.cumsum(rng.normal(0, 3, 200)))
        model = ConversionFaultModel(latency_steps=2, failure_prob=0.4)
        realized, _ = model.realize(target, np.random.default_rng(2))
        assert (realized <= target + 1e-12).all()

    def test_latency_delays_upward_transition(self):
        target = np.array([0.0, 10.0, 10.0, 10.0, 10.0, 10.0])
        realized, log = ConversionFaultModel(latency_steps=2).realize(
            target, np.random.default_rng(0)
        )
        np.testing.assert_array_equal(realized, [0, 0, 0, 10, 10, 10])
        assert log.n_transitions == 1
        assert log.delayed_server_steps == 20.0

    def test_downward_is_immediate(self):
        target = np.array([10.0, 0.0, 0.0])
        realized, _ = ConversionFaultModel(latency_steps=4).realize(
            target, np.random.default_rng(0)
        )
        np.testing.assert_array_equal(realized, [10, 0, 0])

    def test_certain_failure_aborts(self):
        target = np.concatenate([[0.0], np.full(20, 10.0)])
        model = ConversionFaultModel(failure_prob=0.99, max_retries=1)
        realized, log = model.realize(target, np.random.default_rng(3))
        assert log.n_aborted >= 1
        assert realized[-1] == 0.0


class TestChaosRuntimeParity:
    def test_defaults_reproduce_parent(self, demand):
        """No faults + generous budget == the clean Sec. 4 conversion run."""
        fleet = make_fleet()
        policy = ConversionPolicy(conversion_threshold=0.85)

        def run(mode):
            spec = ScenarioSpec(
                mode=mode,
                fleet=fleet,
                demand=demand,
                conversion=policy,
                extra_servers=20,
            )
            return execute(spec).result

        expected = run("conversion")
        result = run("conversion_chaos")
        assert not result.recovery.engaged
        np.testing.assert_allclose(
            result.scenario.total_power, expected.total_power
        )
        np.testing.assert_allclose(result.scenario.lc_served, expected.lc_served)

    def test_failures_increase_drops(self, grid, demand):
        big_outage = ServerFailureSchedule(
            events=(
                FailureEvent(start_index=10, duration_samples=12, n_servers=40),
            )
        )
        clean = run_chaos("conversion_chaos", demand, 10)
        hurt = run_chaos("conversion_chaos", demand, 10, failures=big_outage)
        assert (
            hurt.scenario.dropped_fraction() >= clean.scenario.dropped_fraction()
        )
        assert hurt.recovery.failure_downtime_server_steps == 40 * 12

    def test_flaky_conversions_logged(self, demand):
        result = run_chaos(
            "conversion_chaos",
            demand,
            20,
            conversion_faults=ConversionFaultModel(latency_steps=2, failure_prob=0.3),
            seed=7,
        )
        log = result.recovery.conversion_lc
        assert log is not None
        assert log.n_transitions > 0


class TestRecovery:
    def test_fallback_restores_power_safety(self, demand):
        result = run_chaos("conversion_chaos", demand, 10, budget_watts=28_000.0)
        recovery = result.recovery
        assert recovery.engaged
        assert recovery.overload_steps_before > 0
        assert recovery.overload_steps_after == 0
        assert result.scenario.overload_steps() == 0
        assert not recovery.trips_after
        assert result.power_safe()
        assert recovery.capping is not None
        # The raw (pre-recovery) scenario is preserved for inspection.
        assert result.raw.overload_steps() == recovery.overload_steps_before

    def test_no_engagement_under_budget(self, demand):
        result = run_chaos("conversion_chaos", demand, 10)
        assert not result.recovery.engaged
        assert result.scenario is result.raw

    def test_throttle_boost_chaos_recovered(self, demand):
        result = run_chaos(
            "throttle_boost_chaos", demand, 10, budget_watts=28_000.0
        )
        assert result.scenario.overload_steps() == 0
        assert result.power_safe()
