"""End-to-end tests of the chaos harness at small scale."""

import pytest

from repro.analysis import experiments
from repro.faults import (
    DEFAULT_SUITE,
    format_chaos_table,
    run_chaos_scenario,
    scenario_by_name,
)
from repro.infra import NodePowerView, provision_hierarchical

SMALL = dict(n_instances=96, step_minutes=60, weeks=2)


@pytest.fixture(scope="module")
def clean_outcome():
    return run_chaos_scenario(scenario_by_name("clean"), dc_name="DC1", **SMALL)


@pytest.fixture(scope="module")
def dirty_outcome():
    return run_chaos_scenario(
        scenario_by_name("sensor_dropout"), dc_name="DC1", **SMALL
    )


@pytest.fixture(scope="module")
def storm_outcome():
    return run_chaos_scenario(
        scenario_by_name("perfect_storm"), dc_name="DC1", **SMALL
    )


class TestSuiteRegistry:
    def test_names_unique(self):
        names = [s.name for s in DEFAULT_SUITE]
        assert len(names) == len(set(names))

    def test_lookup(self):
        assert scenario_by_name("clean").name == "clean"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            scenario_by_name("meteor_strike")


class TestCleanControl:
    def test_passes_with_no_faults(self, clean_outcome):
        assert clean_outcome.passed
        assert clean_outcome.repair.n_flagged == 0
        assert clean_outcome.dirty_missing_fraction == 0.0
        assert clean_outcome.quality_delta == 0.0

    def test_no_recovery_needed(self, clean_outcome):
        assert not clean_outcome.reshaping.recovery.engaged
        assert clean_outcome.placement_trips == 0
        assert clean_outcome.placement_safe


class TestDirtyTelemetry:
    def test_repair_actually_ran(self, dirty_outcome):
        assert dirty_outcome.dirty_missing_fraction > 0
        assert dirty_outcome.repair.n_interpolated > 0

    def test_quality_within_tolerance(self, dirty_outcome):
        assert dirty_outcome.checks()["quality_within_tolerance"]

    def test_safety_checks_hold(self, dirty_outcome):
        assert dirty_outcome.reshaping.scenario.overload_steps() == 0
        assert not dirty_outcome.reshaping.recovery.trips_after


class TestPerfectStorm:
    def test_recovers_to_power_safe(self, storm_outcome):
        """Even with every fault at once the run ends power-safe."""
        assert storm_outcome.reshaping.scenario.overload_steps() == 0
        assert not storm_outcome.reshaping.recovery.trips_after
        assert storm_outcome.reshaping.power_safe()

    def test_faults_were_exercised(self, storm_outcome):
        assert storm_outcome.repair.n_flagged > 0
        assert storm_outcome.reshaping.recovery.failure_downtime_server_steps > 0


def test_scenario_leaves_the_cached_budgets_alone():
    """The audit provisions the cached datacenter for its own trip count.

    A later reader of that datacenter (``run_reshaping_study``, whose
    placement study is cached too) once read the audit's budgets instead.
    The budgets are first set to what the margin-free placement study
    provisions, so a budget leaked by an earlier scenario cannot hide a
    leak here.
    """
    dc = experiments.get_datacenter("DC1", **SMALL)
    experiments.run_placement_study(dc)
    provision_hierarchical(NodePowerView(dc.topology, dc.baseline, dc.test_traces()))
    before = {node.name: node.budget_watts for node in dc.topology.nodes()}
    outcome = run_chaos_scenario(scenario_by_name("clean"), dc_name="DC1", **SMALL)
    after = {node.name: node.budget_watts for node in dc.topology.nodes()}
    assert after == before
    # The reshape still ran on the audit's root budget, not the restored one.
    assert outcome.reshaping.scenario.budget_watts != before[dc.topology.root.name]


def test_audit_records_each_placement_trip_once():
    """The audit scans the deployed placement once, so an event log holds
    one breaker event per placement trip, and the verdict reads those trips."""
    from repro.obs import events

    with events.recording() as log:
        outcome = run_chaos_scenario(
            scenario_by_name("stuck_sensors"), dc_name="DC1", **SMALL
        )
    assert outcome.placement_trips > 0
    assert not outcome.placement_safe
    assert len(log.by_kind(events.BREAKER_TRIP)) == outcome.placement_trips


class TestReporting:
    def test_table_lists_every_scenario(self, clean_outcome, dirty_outcome):
        table = format_chaos_table([clean_outcome, dirty_outcome])
        assert "clean" in table
        assert "sensor_dropout" in table
        assert "verdict" in table

    def test_empty_table(self):
        assert "Chaos suite" in format_chaos_table([])
