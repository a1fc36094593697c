"""Unit tests for headroom analysis and expansion planning."""

import numpy as np
import pytest

from repro.engine.delta import FleetDelta, PlacementState
from repro.infra import (
    Assignment,
    NodePowerView,
    build_topology,
    node_headroom,
    plan_expansion,
    provision_hierarchical,
    two_level_spec,
)
from repro.traces import TimeGrid, TraceSet


@pytest.fixture
def setup():
    """Two leaves; leaf0 holds a 10 W-peak trace, leaf1 a 4 W-peak one.

    Budgets are fixed at 10 W per leaf (20 W root), so leaf0 has no
    headroom and leaf1 has 6 W.
    """
    grid = TimeGrid(0, 60, 24)
    topo = build_topology(two_level_spec("dc", leaves=2, leaf_capacity=10))
    traces = TraceSet(
        grid,
        ["a", "b"],
        np.vstack(
            [np.full(24, 10.0), np.full(24, 4.0)]
        ),
    )
    assignment = Assignment(topo, {"a": "dc/rpp0", "b": "dc/rpp1"})
    view = NodePowerView(topo, assignment, traces)
    topo.node("dc/rpp0").budget_watts = 10.0
    topo.node("dc/rpp1").budget_watts = 10.0
    topo.node("dc").budget_watts = 20.0
    return topo, view


class TestHeadroom:
    def test_node_headroom(self, setup):
        _, view = setup
        headroom = node_headroom(view)
        assert headroom["dc/rpp0"] == pytest.approx(0.0)
        assert headroom["dc/rpp1"] == pytest.approx(6.0)
        assert headroom["dc"] == pytest.approx(6.0)

    def test_skips_unbudgeted(self, setup):
        topo, view = setup
        topo.node("dc").budget_watts = None
        assert "dc" not in node_headroom(view)


class TestExpansion:
    def test_fills_where_headroom_is(self, setup):
        _, view = setup
        plan = plan_expansion(view, per_server_watts=2.0)
        assert plan.extra_per_leaf["dc/rpp1"] == 3
        assert plan.extra_per_leaf["dc/rpp0"] == 0
        assert plan.total_extra == 3

    def test_root_constraint_binds(self, setup):
        topo, view = setup
        topo.node("dc").budget_watts = 15.0  # root has only 1 W headroom
        plan = plan_expansion(view, per_server_watts=2.0)
        assert plan.total_extra == 0

    def test_expansion_fraction(self, setup):
        _, view = setup
        plan = plan_expansion(view, per_server_watts=2.0)
        # 3 extra over 2 original instances.
        assert plan.expansion_fraction == pytest.approx(1.5)

    def test_respect_leaf_capacity(self, setup):
        topo, view = setup
        topo.node("dc/rpp1").capacity = 2  # 1 used, only 1 slot free
        plan = plan_expansion(view, per_server_watts=2.0, respect_leaf_capacity=True)
        assert plan.extra_per_leaf["dc/rpp1"] == 1

    def test_requires_positive_server_watts(self, setup):
        _, view = setup
        with pytest.raises(ValueError):
            plan_expansion(view, per_server_watts=0)

    def test_requires_budgets(self, setup):
        topo, view = setup
        topo.node("dc").budget_watts = None
        with pytest.raises(ValueError):
            plan_expansion(view, per_server_watts=1.0)


class TestHierarchicalInteraction:
    def test_defragmented_placement_unlocks_servers(self):
        """End-to-end micro-version of the paper's headline claim."""
        grid = TimeGrid(0, 60, 24)
        topo = build_topology(two_level_spec("dc", leaves=2, leaf_capacity=10))
        up = np.concatenate([np.zeros(12), np.full(12, 10.0)])
        down = np.concatenate([np.full(12, 10.0), np.zeros(12)])
        traces = TraceSet(grid, ["u1", "u2", "d1", "d2"], np.vstack([up, up, down, down]))

        poor = Assignment(
            topo, {"u1": "dc/rpp0", "u2": "dc/rpp0", "d1": "dc/rpp1", "d2": "dc/rpp1"}
        )
        good = Assignment(
            topo, {"u1": "dc/rpp0", "d1": "dc/rpp0", "u2": "dc/rpp1", "d2": "dc/rpp1"}
        )
        poor_view = NodePowerView(topo, poor, traces)
        provision_hierarchical(poor_view, margin=0.0)

        # Under the poor placement there is no room anywhere.
        assert plan_expansion(poor_view, per_server_watts=10.0).total_extra == 0

        # The good placement halves leaf peaks: each leaf fits one more
        # 10 W server under the same budgets.
        good_view = NodePowerView(topo, good, traces)
        plan = plan_expansion(good_view, per_server_watts=10.0)
        assert plan.total_extra == 2


class TestLiveMembership:
    """Plans read the view's live membership, not its as-built placement."""

    @staticmethod
    def views_after(delta):
        """A view driven through ``delta``, and one rebuilt from its result.

        Two 2-slot leaves, one 1 W instance on each to start; budgets of
        3 W per leaf and 4 W at the root.
        """
        grid = TimeGrid(0, 60, 24)
        topo = build_topology(two_level_spec("dc", leaves=2, leaf_capacity=2))
        traces = TraceSet(grid, ["i0", "i1", "i2"], np.ones((3, 24)))
        start = {"i0": "dc/rpp0", "i1": "dc/rpp1"}
        state = PlacementState(topo, traces, start)
        live = state.register(NodePowerView(topo, Assignment(topo, start), traces))
        state.apply(delta)
        rebuilt = NodePowerView(topo, live.materialized_assignment(), traces)
        for name, budget in (("dc/rpp0", 3.0), ("dc/rpp1", 3.0), ("dc", 4.0)):
            topo.node(name).budget_watts = budget
        return live, rebuilt

    def test_leaf_capacity_follows_a_move(self):
        live, rebuilt = self.views_after(FleetDelta.move("i0", "dc/rpp0", "dc/rpp1"))
        plan = plan_expansion(live, per_server_watts=1.0, respect_leaf_capacity=True)
        expected = plan_expansion(
            rebuilt, per_server_watts=1.0, respect_leaf_capacity=True
        )
        # rpp1 is full after the move; the as-built placement had it half empty.
        assert plan.extra_per_leaf == expected.extra_per_leaf
        assert plan.extra_per_leaf["dc/rpp1"] == 0

    @pytest.mark.parametrize(
        "delta, count",
        [
            (FleetDelta.remove("i1", "dc/rpp1"), 1),
            (FleetDelta.place("i2", "dc/rpp0"), 3),
        ],
        ids=["removal", "arrival"],
    )
    def test_original_count_follows_deltas(self, delta, count):
        live, rebuilt = self.views_after(delta)
        plan = plan_expansion(live, per_server_watts=1.0)
        assert plan.original_count == count
        assert plan == plan_expansion(rebuilt, per_server_watts=1.0)
