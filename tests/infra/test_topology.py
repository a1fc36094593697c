"""Unit tests for the power tree model."""

import pytest

from repro.infra import Level, PowerNode, PowerTopology, TopologyError


def build_small_tree():
    root = PowerNode("dc", Level.DATACENTER)
    suite = root.add_child(PowerNode("dc/suite0", Level.SUITE))
    suite.add_child(PowerNode("dc/suite0/rpp0", Level.RPP, capacity=4))
    suite.add_child(PowerNode("dc/suite0/rpp1", Level.RPP, capacity=4))
    return PowerTopology(root)


class TestPowerNode:
    def test_empty_name_rejected(self):
        with pytest.raises(TopologyError):
            PowerNode("", Level.RPP)

    def test_negative_budget_rejected(self):
        with pytest.raises(TopologyError):
            PowerNode("x", Level.RPP, budget_watts=-1)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf")])
    def test_non_finite_budget_rejected(self, budget):
        # A NaN budget would pass a plain ``< 0`` check and silently
        # disable the node's breaker.
        with pytest.raises(TopologyError):
            PowerNode("x", Level.RPP, budget_watts=budget)

    def test_zero_capacity_rejected(self):
        with pytest.raises(TopologyError):
            PowerNode("x", Level.RACK, capacity=0)

    def test_add_child_sets_parent(self):
        root = PowerNode("r", Level.DATACENTER)
        child = root.add_child(PowerNode("r/c", Level.SUITE))
        assert child.parent is root
        assert root.children == [child]

    def test_double_parent_rejected(self):
        a = PowerNode("a", Level.DATACENTER)
        b = PowerNode("b", Level.DATACENTER)
        child = PowerNode("c", Level.SUITE)
        a.add_child(child)
        with pytest.raises(TopologyError):
            b.add_child(child)

    def test_is_leaf(self):
        root = PowerNode("r", Level.DATACENTER)
        assert root.is_leaf
        root.add_child(PowerNode("r/c", Level.SUITE))
        assert not root.is_leaf

    def test_iter_subtree_preorder(self):
        topo = build_small_tree()
        names = [node.name for node in topo.root.iter_subtree()]
        assert names == ["dc", "dc/suite0", "dc/suite0/rpp0", "dc/suite0/rpp1"]

    def test_path_from_root(self):
        topo = build_small_tree()
        leaf = topo.node("dc/suite0/rpp1")
        assert [n.name for n in leaf.path_from_root()] == [
            "dc",
            "dc/suite0",
            "dc/suite0/rpp1",
        ]


class TestPowerTopology:
    def test_duplicate_names_rejected(self):
        root = PowerNode("dc", Level.DATACENTER)
        root.add_child(PowerNode("x", Level.SUITE))
        root.add_child(PowerNode("x", Level.SUITE))
        with pytest.raises(TopologyError):
            PowerTopology(root)

    def test_node_lookup(self):
        topo = build_small_tree()
        assert topo.node("dc/suite0").level == Level.SUITE
        assert "dc/suite0" in topo
        assert "nope" not in topo

    def test_unknown_node(self):
        with pytest.raises(TopologyError):
            build_small_tree().node("ghost")

    def test_levels_in_order(self):
        topo = build_small_tree()
        assert topo.levels() == [Level.DATACENTER, Level.SUITE, Level.RPP]

    def test_nodes_at_level(self):
        topo = build_small_tree()
        assert len(topo.nodes_at_level(Level.RPP)) == 2

    def test_nodes_at_missing_level(self):
        with pytest.raises(TopologyError):
            build_small_tree().nodes_at_level(Level.MSB)

    def test_leaves(self):
        topo = build_small_tree()
        assert topo.leaf_names() == ["dc/suite0/rpp0", "dc/suite0/rpp1"]

    def test_parent_of(self):
        topo = build_small_tree()
        assert topo.parent_of("dc/suite0/rpp0").name == "dc/suite0"
        assert topo.parent_of("dc") is None

    def test_total_leaf_capacity(self):
        assert build_small_tree().total_leaf_capacity() == 8

    def test_unbounded_capacity(self):
        root = PowerNode("dc", Level.DATACENTER)
        root.add_child(PowerNode("dc/r", Level.RPP))
        assert PowerTopology(root).total_leaf_capacity() is None

    def test_describe(self):
        text = build_small_tree().describe()
        assert "1 datacenter" in text
        assert "2 rpps" in text
