"""Unit tests for the reactive conversion controller."""

import numpy as np
import pytest

from repro.engine import FleetDescription, ScenarioSpec, execute
from repro.reshaping import (
    ConversionPolicy,
    ReactiveConfig,
    ReactiveConversionRuntime,
)
from repro.sim import DemandTrace, ServerPowerModel
from repro.traces import TimeGrid


@pytest.fixture
def fleet():
    return FleetDescription(
        n_lc=100,
        n_batch=60,
        lc_model=ServerPowerModel(90, 240),
        batch_model=ServerPowerModel(150, 235),
        budget_watts=50_000.0,
    )


@pytest.fixture
def grid():
    return TimeGrid.for_days(3, step_minutes=30)


@pytest.fixture
def demand(grid):
    hours = grid.hours_of_day()
    shape = 0.3 + 0.55 * np.exp(2.2 * (np.cos(2 * np.pi * (hours - 14) / 24) - 1))
    return DemandTrace(grid, shape * 100.0)


@pytest.fixture
def policy():
    return ConversionPolicy(conversion_threshold=0.85)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReactiveConfig(observation_window_steps=0)
        with pytest.raises(ValueError):
            ReactiveConfig(delay_steps=-1)
        with pytest.raises(ValueError):
            ReactiveConfig(enter_fraction=0.8, exit_fraction=0.9)


class TestReactiveRuntime:
    def test_converts_at_peak(self, fleet, demand, policy):
        runtime = ReactiveConversionRuntime(fleet, policy)
        result = runtime.run_conversion(demand, 12)
        assert result.n_lc_active.max() > fleet.n_lc
        assert result.n_lc_active.min() == fleet.n_lc

    def test_batch_extras_capped(self, fleet, demand):
        policy = ConversionPolicy(
            conversion_threshold=0.85, max_batch_conversion_fraction=0.05
        )
        runtime = ReactiveConversionRuntime(fleet, policy)
        result = runtime.run_conversion(demand, 12)
        assert result.n_batch_active.max() <= fleet.n_batch + 3

    def test_no_flapping_with_hysteresis(self, fleet, demand, policy):
        """Transitions should track the diurnal cycle (~2/day), not noise."""
        runtime = ReactiveConversionRuntime(
            fleet, policy, config=ReactiveConfig(enter_fraction=0.95, exit_fraction=0.8)
        )
        result = runtime.run_conversion(demand, 12)
        transitions = int(np.sum(np.abs(np.diff(result.n_lc_active)) > 0))
        days = demand.grid.n_days
        assert transitions <= 4 * days

    def test_delay_visible(self, fleet, demand, policy):
        """With a long conversion delay, LC capacity arrives late."""
        fast = ReactiveConversionRuntime(
            fleet, policy, config=ReactiveConfig(delay_steps=0)
        ).run_conversion(demand, 12)
        slow = ReactiveConversionRuntime(
            fleet, policy, config=ReactiveConfig(delay_steps=8)
        ).run_conversion(demand, 12)
        fast_first = int(np.argmax(fast.n_lc_active > fleet.n_lc))
        slow_first = int(np.argmax(slow.n_lc_active > fleet.n_lc))
        assert slow_first >= fast_first

    def test_close_to_oracle_on_diurnal_load(self, fleet, demand, policy):
        """The headline: predictable peaks make reactive ~ oracle."""
        oracle = execute(
            ScenarioSpec(
                mode="conversion",
                fleet=fleet,
                demand=demand,
                conversion=policy,
                extra_servers=12,
            )
        ).result
        reactive = ReactiveConversionRuntime(fleet, policy).run_conversion(demand, 12)
        assert reactive.lc_total() >= oracle.lc_total() * 0.98
        assert reactive.batch_total() >= oracle.batch_total() * 0.90

    def test_negative_extras_rejected(self, fleet, demand, policy):
        runtime = ReactiveConversionRuntime(fleet, policy)
        with pytest.raises(ValueError):
            runtime.run_conversion(demand, -1)

    def test_zero_extras_is_static(self, fleet, demand, policy):
        runtime = ReactiveConversionRuntime(fleet, policy)
        result = runtime.run_conversion(demand, 0)
        assert np.all(result.n_lc_active == fleet.n_lc)
        assert np.all(result.n_batch_active == fleet.n_batch)

    def test_accounting_conserves_extras(self, fleet, demand, policy):
        """Serving + batch + parked extras always equals the extra pool."""
        runtime = ReactiveConversionRuntime(fleet, policy)
        extra = 12
        result = runtime.run_conversion(demand, extra)
        lc_extras = result.n_lc_active - fleet.n_lc
        batch_extras = result.n_batch_active - fleet.n_batch
        assert np.all(lc_extras >= -1e-9)
        assert np.all(batch_extras >= -1e-9)
        assert np.all(result.parked >= 0)
        assert result.parked.max() > 0  # idle and in-transit extras
        np.testing.assert_array_equal(lc_extras + batch_extras + result.parked, extra)
