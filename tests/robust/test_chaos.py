"""Unit tests for the spike-burst chaos scenarios (small scale).

Quality numbers (≥80% violations avoided at ≤15% capacity overhead) are
gated at reference scale by ``benchmarks/bench_robust.py``; here we pin
the mechanics — scenario validation, burst determinism, the self-restoring
budget audit, and the Γ=0 control taking identical damage on both sides.
"""

import numpy as np
import pytest

from repro.analysis import experiments
from repro.robust import (
    SPIKE_SUITE,
    SpikeScenario,
    format_robust_table,
    run_robust_scenario,
    spike_scenario_by_name,
)
from repro.robust.chaos import _burst_windows

SMALL = dict(n_instances=120, step_minutes=60, weeks=2)


@pytest.fixture(scope="module")
def control_outcome():
    return run_robust_scenario(spike_scenario_by_name("gamma_zero_control"), **SMALL)


@pytest.fixture(scope="module")
def pair_outcome():
    return run_robust_scenario(spike_scenario_by_name("pair_spike"), **SMALL)


# ----------------------------------------------------------------------
# scenario definitions
# ----------------------------------------------------------------------
def test_suite_names_are_unique_and_resolvable():
    names = [s.name for s in SPIKE_SUITE]
    assert len(set(names)) == len(names)
    for name in names:
        assert spike_scenario_by_name(name).name == name
    with pytest.raises(KeyError, match="unknown spike scenario"):
        spike_scenario_by_name("nope")


def test_scenario_validation():
    ok = dict(name="x", description="", gamma=1, burst_group=1)
    with pytest.raises(ValueError):
        SpikeScenario(**{**ok, "gamma": -1})
    with pytest.raises(ValueError):
        SpikeScenario(**{**ok, "burst_group": 0})
    with pytest.raises(ValueError):
        SpikeScenario(**{**ok, "n_bursts": 0})
    with pytest.raises(ValueError):
        SpikeScenario(**{**ok, "spiky_fraction": 1.5})
    with pytest.raises(ValueError):
        SpikeScenario(**{**ok, "spike_watts": -1.0})
    with pytest.raises(ValueError):
        SpikeScenario(**{**ok, "budget_margin": -0.1})


def test_burst_windows_deterministic_and_peak_aimed():
    scenario = spike_scenario_by_name("pair_spike")
    values = np.zeros(100)
    values[60] = 5.0
    first = _burst_windows(scenario, "node-a", values)
    again = _burst_windows(scenario, "node-a", values)
    other = _burst_windows(scenario, "node-b", values)
    assert first == again  # same scenario + node → same windows
    assert first != other  # per-node seeding decorrelates background bursts
    assert len(first) == scenario.n_bursts
    assert first[0] == (60, 60 + scenario.burst_duration_samples)
    for start, stop in first:
        assert 0 <= start < stop <= 100


# ----------------------------------------------------------------------
# the control: Γ=0 must change nothing
# ----------------------------------------------------------------------
def test_control_takes_identical_damage_on_both_sides(control_outcome):
    outcome = control_outcome
    assert outcome.gamma == 0
    assert outcome.n_swaps == 0
    assert outcome.robust.violation_steps == outcome.nominal.violation_steps
    assert outcome.robust.breaker_trips == outcome.nominal.breaker_trips
    assert outcome.robust.provisioned_watts == pytest.approx(
        outcome.nominal.provisioned_watts
    )
    assert outcome.avoided_violation_fraction == 0.0
    assert outcome.headroom_sacrifice_fraction == pytest.approx(0.0)


# ----------------------------------------------------------------------
# a protected scenario: structure of the outcome
# ----------------------------------------------------------------------
def test_protected_outcome_is_fully_populated(pair_outcome):
    outcome = pair_outcome
    assert outcome.gamma == 2
    for side in (outcome.nominal, outcome.robust):
        assert side.violation_steps >= 0
        assert side.violation_events >= 0
        assert side.provisioned_watts > 0
        assert side.min_headroom_watts <= side.mean_headroom_watts
        assert side.event_counts  # utilization records at minimum
    assert outcome.avoided_violation_fraction <= 1.0
    assert outcome.headroom_per_violation_avoided >= 0.0


def test_scenario_restores_cached_topology_budgets(pair_outcome):
    dc = experiments.get_datacenter("DC1", **SMALL)
    saved = {node.name: node.budget_watts for node in dc.topology.nodes()}
    run_robust_scenario(spike_scenario_by_name("pair_spike"), **SMALL)
    for node in dc.topology.nodes():
        assert node.budget_watts == saved[node.name]


def test_format_robust_table_lists_every_scenario(control_outcome, pair_outcome):
    table = format_robust_table([control_outcome, pair_outcome])
    assert "gamma_zero_control" in table
    assert "pair_spike" in table
    assert "avoided" in table
