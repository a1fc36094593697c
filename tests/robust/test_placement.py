"""Unit tests for the Γ-robust placer (swap loop, Γ=0 fallback)."""

import pytest

from repro.core.placement import PlacementConfig, WorkloadAwarePlacer
from repro.robust import (
    GammaAccountant,
    RobustPlacementConfig,
    RobustPlacer,
    UncertainPowerModel,
)


def spiky_model(records, *, fraction=0.25, spike_watts=120.0, seed=5):
    return UncertainPowerModel.from_records(records).with_spike_minority(
        fraction, spike_watts, seed=seed
    )


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError, match="gamma"):
        RobustPlacementConfig(gamma=-1)
    with pytest.raises(ValueError, match="tolerance"):
        RobustPlacementConfig(swap_nominal_tolerance_watts=-1.0)
    with pytest.raises(ValueError, match="max_swaps"):
        RobustPlacementConfig(max_swaps=-1)


def test_empty_fleet_is_rejected(tiny_topology):
    with pytest.raises(ValueError, match="nothing to place"):
        RobustPlacer().place([], tiny_topology)


# ----------------------------------------------------------------------
# Γ = 0 fallback
# ----------------------------------------------------------------------
def test_gamma_zero_reduces_to_the_nominal_placement(tiny_records, tiny_topology):
    nominal = WorkloadAwarePlacer(PlacementConfig(seed=0)).place(
        tiny_records, tiny_topology
    )
    robust = RobustPlacer(RobustPlacementConfig(gamma=0)).place(
        tiny_records, tiny_topology
    )
    assert robust.assignment.as_mapping() == nominal.assignment.as_mapping()
    assert robust.gamma == 0
    assert robust.n_swaps == 0
    assert robust.fallback is not None


# ----------------------------------------------------------------------
# swap loop
# ----------------------------------------------------------------------
def test_swap_places_everyone_and_respects_capacity(
    tiny_records, tiny_topology
):
    model = spiky_model(tiny_records)
    result = RobustPlacer(RobustPlacementConfig(gamma=1)).place(
        tiny_records, tiny_topology, model=model
    )
    mapping = result.assignment.as_mapping()
    assert sorted(mapping) == sorted(r.instance_id for r in tiny_records)
    for leaf in tiny_topology.leaves():
        assert len(result.assignment.instances_on_leaf(leaf.name)) <= leaf.capacity


def test_swap_strategy_spreads_spike_radii(tiny_records, tiny_topology):
    """The swap loop must strictly reduce the worst per-leaf top-Γ burden."""
    model = spiky_model(tiny_records)
    seed = WorkloadAwarePlacer(PlacementConfig(seed=0)).place(
        tiny_records, tiny_topology
    )
    result = RobustPlacer(RobustPlacementConfig(gamma=1)).place(
        tiny_records, tiny_topology, model=model
    )

    def worst_burden(assignment):
        worst = 0.0
        for leaf in tiny_topology.leaves():
            acc = GammaAccountant(1)
            for iid in assignment.instances_on_leaf(leaf.name):
                acc.add(iid, model.nominal_of(iid), model.radius_of(iid))
            worst = max(worst, acc.top_sum + acc.radius_sum)
        return worst

    assert result.n_swaps > 0
    assert worst_burden(result.assignment) < worst_burden(seed.assignment)


def test_swap_preserves_per_leaf_occupancy(tiny_records, tiny_topology):
    """Swaps are 1-for-1: the leaf occupancy histogram cannot change."""
    model = spiky_model(tiny_records)
    seed = WorkloadAwarePlacer(PlacementConfig(seed=0)).place(
        tiny_records, tiny_topology
    )
    result = RobustPlacer(RobustPlacementConfig(gamma=1)).place(
        tiny_records, tiny_topology, model=model
    )
    for leaf in tiny_topology.leaves():
        assert len(result.assignment.instances_on_leaf(leaf.name)) == len(
            seed.assignment.instances_on_leaf(leaf.name)
        )


def test_max_swaps_zero_returns_the_seed_placement(tiny_records, tiny_topology):
    model = spiky_model(tiny_records)
    seed = WorkloadAwarePlacer(PlacementConfig(seed=0)).place(
        tiny_records, tiny_topology
    )
    result = RobustPlacer(
        RobustPlacementConfig(gamma=1, max_swaps=0)
    ).place(tiny_records, tiny_topology, model=model)
    assert result.n_swaps == 0
    assert result.assignment.as_mapping() == seed.assignment.as_mapping()

