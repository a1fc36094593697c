"""Unit tests for the Sec. 4 reshaping scenarios, run through the engine."""

import numpy as np
import pytest

from repro.engine import (
    FleetDescription,
    ReshapingComparison,
    ScenarioSpec,
    execute,
)
from repro.reshaping import ConversionPolicy, ThrottleBoostPolicy
from repro.sim import DemandTrace, DVFSModel, ServerPowerModel
from repro.traces import TimeGrid


def scenarios(fleet, conversion, **models):
    """``run(mode, demand, **spec_fields)`` for one fleet and its policies."""

    def run(mode, demand, **kwargs):
        spec = ScenarioSpec(
            mode=mode,
            fleet=fleet,
            demand=demand,
            conversion=conversion,
            **models,
            **kwargs,
        )
        return execute(spec).result

    return run


@pytest.fixture
def grid():
    return TimeGrid.for_days(2, step_minutes=60)


@pytest.fixture
def fleet():
    return FleetDescription(
        n_lc=100,
        n_batch=40,
        lc_model=ServerPowerModel(90, 240),
        batch_model=ServerPowerModel(150, 235),
        budget_watts=45_000.0,
    )


@pytest.fixture
def demand(grid):
    """Diurnal demand: peak per-server load 0.85 on the original fleet."""
    hours = grid.hours_of_day()
    shape = 0.35 + 0.5 * np.exp(2.0 * (np.cos(2 * np.pi * (hours - 14) / 24) - 1))
    return DemandTrace(grid, shape * 100.0)


@pytest.fixture
def run(fleet):
    return scenarios(
        fleet,
        ConversionPolicy(conversion_threshold=0.85),
        throttle=ThrottleBoostPolicy(),
        dvfs=DVFSModel(),
    )


class TestFleetValidation:
    def test_requires_lc(self):
        with pytest.raises(ValueError):
            FleetDescription(
                n_lc=0, n_batch=1,
                lc_model=ServerPowerModel(90, 240),
                batch_model=ServerPowerModel(150, 235),
                budget_watts=1000,
            )

    def test_requires_budget(self):
        with pytest.raises(ValueError):
            FleetDescription(
                n_lc=1, n_batch=1,
                lc_model=ServerPowerModel(90, 240),
                batch_model=ServerPowerModel(150, 235),
                budget_watts=0,
            )


class TestPre:
    def test_no_drops_at_calibrated_demand(self, run, demand):
        result = run("pre", demand)
        assert result.dropped_fraction() == pytest.approx(0.0, abs=1e-9)

    def test_power_positive_and_bounded(self, run, demand, fleet):
        result = run("pre", demand)
        assert result.total_power.min() > 0
        assert result.peak_power() <= fleet.budget_watts

    def test_slack_metrics(self, run, demand):
        result = run("pre", demand)
        assert result.mean_slack() > 0
        assert result.energy_slack() > 0
        assert result.overload_steps() == 0


class TestLCOnly:
    def test_more_servers_serve_more(self, run, demand):
        pre = run("pre", demand)
        grown = run("lc_only", demand.scaled(1.1), extra_servers=10)
        assert grown.lc_total() > pre.lc_total()

    def test_negative_extra_rejected(self, run, demand):
        with pytest.raises(ValueError):
            run("lc_only", demand, extra_servers=-1)


class TestConversion:
    def test_phase_switching_visible(self, run, demand):
        result = run("conversion", demand.scaled(1.1), extra_servers=10)
        # Conversion servers join LC at peak...
        assert result.n_lc_active.max() == pytest.approx(110.0)
        # ...and leave it off-peak.
        assert result.n_lc_active.min() == pytest.approx(100.0)

    def test_batch_gains_during_offpeak(self, run, demand, fleet):
        pre = run("pre", demand)
        conv = run("conversion", demand.scaled(1.1), extra_servers=10)
        assert conv.batch_total() > pre.batch_total()

    def test_convertible_cap_respected(self, fleet, demand):
        policy = ConversionPolicy(
            conversion_threshold=0.85, max_batch_conversion_fraction=0.1
        )
        run = scenarios(fleet, policy)
        result = run("conversion", demand.scaled(1.1), extra_servers=10)
        assert result.n_batch_active.max() <= fleet.n_batch + 4


class TestThrottleBoost:
    def test_throttles_during_peak(self, run, demand):
        result = run(
            "throttle_boost",
            demand.scaled(1.1),
            extra_servers=10,
            extra_throttle_funded=5,
        )
        assert result.batch_freq.min() == pytest.approx(0.8)

    def test_boosts_during_offpeak(self, run, demand):
        result = run(
            "throttle_boost",
            demand.scaled(1.1),
            extra_servers=10,
            extra_throttle_funded=5,
        )
        assert result.batch_freq.max() > 1.0

    def test_stays_under_budget(self, run, demand, fleet):
        result = run(
            "throttle_boost",
            demand.scaled(1.1),
            extra_servers=10,
            extra_throttle_funded=5,
        )
        assert result.overload_steps() == 0

    def test_default_e_th_from_policy(self, run, demand):
        result = run("throttle_boost", demand.scaled(1.1), extra_servers=10)
        assert result.n_lc_active.max() >= 110.0

    def test_negative_e_th_rejected(self, run, demand):
        with pytest.raises(ValueError):
            run(
                "throttle_boost", demand, extra_servers=10, extra_throttle_funded=-1
            )


class TestComparison:
    def test_improvements_and_slack(self, run, demand):
        comparison = ReshapingComparison(pre=run("pre", demand))
        comparison.scenarios["conversion"] = run(
            "conversion", demand.scaled(1.1), extra_servers=10
        )
        comparison.scenarios["throttle_boost"] = run(
            "throttle_boost",
            demand.scaled(1.15),
            extra_servers=10,
            extra_throttle_funded=5,
        )
        assert comparison.lc_improvement("conversion") > 0
        assert comparison.batch_improvement("conversion") > 0
        assert comparison.lc_improvement("throttle_boost") > comparison.lc_improvement(
            "conversion"
        )
        assert comparison.slack_reduction("throttle_boost") > 0

    def test_slack_reduction_with_mask(self, run, demand):
        comparison = ReshapingComparison(pre=run("pre", demand))
        comparison.scenarios["conversion"] = run(
            "conversion", demand.scaled(1.1), extra_servers=10
        )
        mask = np.zeros(demand.grid.n_samples, dtype=bool)
        mask[:10] = True
        value = comparison.slack_reduction("conversion", mask=mask)
        assert isinstance(value, float)

    def test_scenario_baseline(self, run, demand):
        comparison = ReshapingComparison(pre=run("pre", demand))
        comparison.scenarios["lc_only"] = run(
            "lc_only", demand.scaled(1.1), extra_servers=10
        )
        comparison.scenarios["conversion"] = run(
            "conversion", demand.scaled(1.1), extra_servers=10
        )
        value = comparison.slack_reduction("conversion", baseline="lc_only")
        assert isinstance(value, float)


class TestOverloadClamp:
    """Regression: a mis-sized budget must not leave the boosted scenario
    over budget.  Before the clamp, a batch-heavy fleet whose nominal draw
    exceeded the budget kept ``freq >= 1`` everywhere and reported overload
    steps; the guard now re-solves the batch frequency against the actual
    non-batch draw."""

    @pytest.fixture
    def tight_run(self):
        fleet = FleetDescription(
            n_lc=10,
            n_batch=10,
            lc_model=ServerPowerModel(100, 200),
            batch_model=ServerPowerModel(100, 300),
            budget_watts=4_000.0,  # nominal batch-heavy draw is 4 200 W
        )
        return scenarios(
            fleet,
            ConversionPolicy(conversion_threshold=0.9),
            throttle=ThrottleBoostPolicy(),
            dvfs=DVFSModel(),
        )

    @pytest.fixture
    def low_demand(self, grid):
        # Constant load 0.2 per LC server: batch-heavy at every step.
        return DemandTrace(grid, np.full(grid.n_samples, 2.0))

    def test_overbudget_nominal_is_clamped(self, tight_run, low_demand):
        result = tight_run(
            "throttle_boost", low_demand, extra_servers=0, extra_throttle_funded=0
        )
        assert result.overload_steps() == 0
        # The cure is batch DVFS, not dropped LC traffic.
        assert (result.batch_freq < 1.0).all()
        assert result.dropped_fraction() == pytest.approx(0.0, abs=1e-9)
        # power = 1200 (LC) + 10 x (100 + 200 f^3) = 4000  =>  f^3 = 0.9
        np.testing.assert_allclose(result.batch_freq, 0.9 ** (1 / 3), atol=1e-6)
        np.testing.assert_allclose(result.total_power, 4_000.0, atol=1e-3)

    def test_clamp_untouched_when_budget_fits(self, run, demand):
        generous = run(
            "throttle_boost", demand, extra_servers=10, extra_throttle_funded=5
        )
        assert generous.overload_steps() == 0
        # Boost is still allowed to run the batch fleet above nominal.
        assert generous.batch_freq.max() >= 1.0
