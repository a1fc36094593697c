"""Unit tests for the Γ-sum accounting (exact sums, incremental updates)."""

import numpy as np
import pytest

from repro.robust import (
    GammaAccountant,
    RobustHeadroomIndex,
    UncertainPowerModel,
    gamma_sum,
    robust_load,
    robust_node_headroom,
    robust_node_loads,
)
from repro.infra import Assignment


# ----------------------------------------------------------------------
# gamma_sum / robust_load
# ----------------------------------------------------------------------
def test_gamma_sum_is_the_top_gamma_total():
    radii = np.array([5.0, 1.0, 3.0, 2.0])
    assert gamma_sum(radii, 0) == 0.0
    assert gamma_sum(radii, 1) == 5.0
    assert gamma_sum(radii, 2) == 8.0
    assert gamma_sum(radii, 4) == 11.0
    assert gamma_sum(radii, 10) == 11.0  # Γ beyond the set: worst case
    assert gamma_sum(np.array([]), 3) == 0.0
    with pytest.raises(ValueError, match="negative"):
        gamma_sum(radii, -1)


def test_robust_load_adds_nominal_sum():
    nominal = np.array([10.0, 20.0])
    radii = np.array([4.0, 1.0])
    assert robust_load(nominal, radii, 0) == 30.0
    assert robust_load(nominal, radii, 1) == 34.0
    assert robust_load(nominal, radii, 2) == 35.0


# ----------------------------------------------------------------------
# GammaAccountant
# ----------------------------------------------------------------------
def test_accountant_matches_brute_force_over_random_churn(rng):
    """400 random add/remove steps, checked exactly against re-computation."""
    for gamma in (0, 1, 3, 7):
        acc = GammaAccountant(gamma)
        alive = {}
        counter = 0
        for _ in range(400):
            if alive and rng.random() < 0.4:
                victim = list(alive)[int(rng.integers(len(alive)))]
                acc.remove(victim)
                del alive[victim]
            else:
                iid = f"i{counter}"
                counter += 1
                nominal = float(rng.uniform(0, 200))
                radius = float(rng.uniform(0, 50))
                acc.add(iid, nominal, radius)
                alive[iid] = (nominal, radius)
            nominal_vec = np.array([v[0] for v in alive.values()])
            radius_vec = np.array([v[1] for v in alive.values()])
            expected = robust_load(nominal_vec, radius_vec, gamma)
            assert acc.robust_load() == pytest.approx(expected, abs=1e-6)
            assert acc.nominal_sum == pytest.approx(float(nominal_vec.sum()))
            assert acc.radius_sum == pytest.approx(float(radius_vec.sum()))


def test_accountant_rejects_duplicates_and_unknowns():
    acc = GammaAccountant(2)
    acc.add("a", 1.0, 1.0)
    with pytest.raises(ValueError, match="already"):
        acc.add("a", 1.0, 1.0)
    with pytest.raises(KeyError):
        acc.remove("missing")
    with pytest.raises(ValueError, match="negative"):
        GammaAccountant(-1)


def test_accountant_recompute_restores_exact_sums():
    acc = GammaAccountant(2)
    for k in range(20):
        acc.add(f"i{k}", float(k), float(k % 7))
    top, nominal = acc.top_sum, acc.nominal_sum
    acc.recompute()
    assert acc.top_sum == pytest.approx(top)
    assert acc.nominal_sum == pytest.approx(nominal)


# ----------------------------------------------------------------------
# RobustHeadroomIndex
# ----------------------------------------------------------------------
@pytest.fixture
def small_index(tiny_topology):
    ids = [f"i{k}" for k in range(6)]
    model = UncertainPowerModel(
        ids, np.full(6, 100.0), np.array([10.0, 20.0, 30.0, 5.0, 5.0, 5.0])
    )
    return RobustHeadroomIndex(tiny_topology, model, 1), model


def test_index_place_updates_every_ancestor(small_index, tiny_topology):
    index, _ = small_index
    leaf = tiny_topology.leaves()[0]
    index.place("i0", leaf.name)
    index.place("i2", leaf.name)
    for name in index.path(leaf.name):
        # Γ=1: Σ nominal + max radius = 200 + 30
        assert index.robust_load(name) == pytest.approx(230.0)
    assert index.leaf_of("i2") == leaf.name
    assert index.as_mapping() == {"i0": leaf.name, "i2": leaf.name}


def test_index_remove_and_move_keep_ancestors_consistent(
    small_index, tiny_topology
):
    index, _ = small_index
    first, second = tiny_topology.leaves()[:2]
    index.place("i1", first.name)
    index.move("i1", second.name)
    assert index.robust_load(first.name) == 0.0
    assert index.robust_load(second.name) == pytest.approx(120.0)
    assert index.remove("i1") == second.name
    root = tiny_topology.root.name
    assert index.robust_load(root) == 0.0
    with pytest.raises(KeyError):
        index.leaf_of("i1")


# ----------------------------------------------------------------------
# vectorised sweeps
# ----------------------------------------------------------------------
def test_vectorised_sweeps_agree_with_the_index(tiny_topology):
    leaves = tiny_topology.leaves()
    ids = [f"i{k}" for k in range(8)]
    model = UncertainPowerModel(
        ids, np.linspace(50, 120, 8), np.linspace(0, 35, 8)
    )
    mapping = {iid: leaves[k % len(leaves)].name for k, iid in enumerate(ids)}
    assignment = Assignment(tiny_topology, mapping)
    index = RobustHeadroomIndex(tiny_topology, model, 2)
    for iid, leaf_name in mapping.items():
        index.place(iid, leaf_name)

    loads = robust_node_loads(tiny_topology, assignment, model, 2)
    for name, load in loads.items():
        assert load == pytest.approx(index.robust_load(name))

    for node in tiny_topology.nodes():
        node.budget_watts = 400.0
    headroom = robust_node_headroom(tiny_topology, assignment, model, 2)
    for name, slack in headroom.items():
        assert slack == pytest.approx(400.0 - loads[name])
