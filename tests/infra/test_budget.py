"""Unit tests for budget provisioning policies."""

import gc
import weakref

import numpy as np
import pytest

from repro.datasets.facebook import build_datacenter, dc1_spec, dc2_spec, dc3_spec
from repro.engine.delta import FleetDelta, PlacementState
from repro.infra import (
    Assignment,
    GammaProvisioningPolicy,
    NodePowerView,
    PeakProvisioningPolicy,
    PercentileProvisioningPolicy,
    apply_budgets,
    build_topology,
    compute_budgets,
    preserved_budgets,
    provision_from_view,
    provision_hierarchical,
    two_level_spec,
)
from repro.traces import TimeGrid, TraceSet


@pytest.fixture
def setup():
    grid = TimeGrid(0, 60, 24)
    topo = build_topology(two_level_spec("dc", leaves=2, leaf_capacity=4))
    up = np.linspace(0, 10, 24)
    down = np.linspace(10, 0, 24)
    traces = TraceSet(grid, ["u", "d"], np.vstack([up, down]))
    assignment = Assignment(topo, {"u": "dc/rpp0", "d": "dc/rpp1"})
    view = NodePowerView(topo, assignment, traces)
    return topo, view


class TestPolicies:
    def test_peak_policy(self, setup):
        _, view = setup
        policy = PeakProvisioningPolicy(margin=0.1)
        assert policy.budget_for(view, "dc/rpp0") == pytest.approx(11.0)

    def test_peak_policy_rejects_negative_margin(self):
        with pytest.raises(ValueError):
            PeakProvisioningPolicy(margin=-0.1)

    def test_percentile_policy(self, setup):
        _, view = setup
        policy = PercentileProvisioningPolicy(under_provision=50.0)
        assert policy.budget_for(view, "dc/rpp0") == pytest.approx(5.0)

    def test_percentile_policy_validation(self):
        with pytest.raises(ValueError):
            PercentileProvisioningPolicy(under_provision=100)


class TestApplication:
    def test_compute_budgets_covers_all_nodes(self, setup):
        topo, view = setup
        budgets = compute_budgets(view, PeakProvisioningPolicy())
        assert set(budgets) == {n.name for n in topo.nodes()}

    def test_apply_budgets(self, setup):
        topo, view = setup
        apply_budgets(topo, {"dc": 100.0})
        assert topo.node("dc").budget_watts == 100.0

    def test_apply_negative_rejected(self, setup):
        topo, _ = setup
        with pytest.raises(ValueError):
            apply_budgets(topo, {"dc": -1.0})

    @pytest.mark.parametrize("budget", [float("nan"), float("inf")])
    def test_apply_non_finite_rejected(self, setup, budget):
        topo, _ = setup
        with pytest.raises(ValueError):
            apply_budgets(topo, {"dc": budget})
        assert topo.node("dc").budget_watts is None

    def test_provision_from_view_writes(self, setup):
        topo, view = setup
        budgets = provision_from_view(view, margin=0.0)
        assert topo.node("dc/rpp0").budget_watts == pytest.approx(10.0)
        assert budgets["dc"] == pytest.approx(view.node_peak("dc"))


class TestHierarchical:
    def test_parents_are_sum_of_children(self, setup):
        topo, view = setup
        provision_hierarchical(view, margin=0.0)
        children_sum = (
            topo.node("dc/rpp0").budget_watts + topo.node("dc/rpp1").budget_watts
        )
        assert topo.node("dc").budget_watts == pytest.approx(children_sum)

    def test_root_exceeds_own_peak_when_children_async(self, setup):
        """The fragmentation signature: root budget > root peak."""
        topo, view = setup
        provision_hierarchical(view, margin=0.0)
        # up+down is constant 10, so root peak is 10 but budget is 20.
        assert topo.node("dc").budget_watts == pytest.approx(20.0)
        assert view.node_peak("dc") == pytest.approx(10.0)

    def test_margin_applies_at_leaves(self, setup):
        topo, view = setup
        provision_hierarchical(view, margin=0.5)
        assert topo.node("dc/rpp0").budget_watts == pytest.approx(15.0)
        assert topo.node("dc").budget_watts == pytest.approx(30.0)

    def test_negative_margin_rejected(self, setup):
        _, view = setup
        with pytest.raises(ValueError):
            provision_hierarchical(view, margin=-0.1)


def recursive_budgets(view, margin):
    """The recursive walk provision_hierarchical once ran, as the reference."""
    budgets = {}

    def visit(node):
        if node.is_leaf:
            budgets[node.name] = view.node_peak(node.name) * (1.0 + margin)
        else:
            budgets[node.name] = sum(visit(child) for child in node.children)
        return budgets[node.name]

    visit(view.topology.root)
    return budgets


class TestHierarchicalOnPaperFleets:
    @pytest.mark.parametrize("factory", [dc1_spec, dc2_spec, dc3_spec])
    def test_budgets_equal_the_recursive_walk(self, factory):
        dc = build_datacenter(factory(n_instances=480))
        view = NodePowerView(dc.topology, dc.baseline, dc.test_traces())
        with preserved_budgets(dc.topology):
            budgets = provision_hierarchical(view, margin=0.05)
        assert budgets == recursive_budgets(view, 0.05)

    def test_view_is_freed_without_the_cyclic_collector(self):
        """Provisioning leaves no cycle holding the view: it dies at ``del``."""
        dc = build_datacenter(dc3_spec(n_instances=480))
        view = NodePowerView(dc.topology, dc.baseline, dc.test_traces())
        alive = weakref.ref(view)
        gc.collect()
        gc.disable()
        try:
            with preserved_budgets(dc.topology):
                provision_hierarchical(view)
            del view
            assert alive() is None
        finally:
            gc.enable()


class TestPreservedBudgets:
    def test_restores_budgets_and_unbudgeted_nodes(self, setup):
        topo, view = setup
        apply_budgets(topo, {"dc/rpp0": 5.0})
        before = {node.name: node.budget_watts for node in topo.nodes()}
        assert before["dc"] is None
        with preserved_budgets(topo):
            provision_hierarchical(view, margin=0.5)
            assert topo.node("dc").budget_watts is not None
        assert {node.name: node.budget_watts for node in topo.nodes()} == before

    def test_restores_on_exception(self, setup):
        topo, view = setup
        with pytest.raises(RuntimeError):
            with preserved_budgets(topo):
                provision_hierarchical(view)
                raise RuntimeError("measurement failed")
        assert all(node.budget_watts is None for node in topo.nodes())


class TestGammaPolicyLiveMembership:
    def test_budgets_follow_deltas(self):
        """Γ budgets read the view's live members, not its as-built placement."""

        class Model:
            radius = {"i0": 5.0, "i1": 1.0}

            def rows(self, ids):
                return np.ones(len(ids)), np.array([self.radius[i] for i in ids])

        grid = TimeGrid(0, 60, 24)
        topo = build_topology(two_level_spec("dc", leaves=2, leaf_capacity=2))
        traces = TraceSet(grid, ["i0", "i1"], np.ones((2, 24)))
        start = {"i0": "dc/rpp0", "i1": "dc/rpp1"}
        state = PlacementState(topo, traces, start)
        live = state.register(NodePowerView(topo, Assignment(topo, start), traces))
        state.apply(FleetDelta.move("i0", "dc/rpp0", "dc/rpp1"))
        rebuilt = NodePowerView(topo, live.materialized_assignment(), traces)

        policy = GammaProvisioningPolicy(model=Model(), gamma=1)
        budgets = compute_budgets(live, policy)
        assert budgets == compute_budgets(rebuilt, policy)
        assert budgets["dc/rpp0"] == 0.0
        assert budgets["dc/rpp1"] == pytest.approx(2.0 + 5.0)
