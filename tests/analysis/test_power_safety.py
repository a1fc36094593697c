"""Small-scale test of the power-safety experiment (Sec. 3.2's claim)."""

import pytest

from repro.analysis import experiments as E

SMALL = dict(n_instances=192, step_minutes=30)


def test_cached_datacenter_budgets_are_left_alone():
    """The study provisions budgets on the cached datacenter for its own
    capping runs; a later reader of that datacenter once saw them.

    The placement study's evaluation sets the budgets every reader of the
    cached datacenter expects, so it runs before they are recorded.  The
    test comes before the module's study fixture: once budgets leaked by
    an earlier study are in place, a leak would leave them unchanged."""
    dc = E.get_datacenter("DC3", **SMALL)
    E.run_placement_study(dc)
    before = {node.name: node.budget_watts for node in dc.topology.nodes()}
    E.run_power_safety("DC3", **SMALL)
    after = {node.name: node.budget_watts for node in dc.topology.nodes()}
    assert after == before


@pytest.fixture(scope="module")
def study():
    return E.run_power_safety("DC3", surge_factor=1.3, **SMALL)


class TestPowerSafety:
    def test_both_placements_evaluated(self, study):
        assert set(study.reports) == {"oblivious", "smoothoperator"}

    def test_surge_causes_capping_somewhere(self, study):
        assert study.reports["oblivious"].total_event_steps > 0

    def test_workload_aware_placement_suffers_less_lc_capping(self, study):
        """The paper's safety claim: spreading synchronous instances shares
        the surge, so less latency-critical work gets capped."""
        assert (
            study.reports["smoothoperator"].lc_energy_shed
            <= study.reports["oblivious"].lc_energy_shed
        )

    def test_workload_aware_placement_has_fewer_events(self, study):
        assert (
            study.reports["smoothoperator"].total_event_steps
            <= study.reports["oblivious"].total_event_steps
        )

    def test_helpers(self, study):
        assert study.lc_shed("oblivious") >= study.lc_shed("smoothoperator")
        assert study.event_steps("oblivious") >= 0
