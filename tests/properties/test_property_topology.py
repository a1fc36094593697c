"""The topology's structural index equals a fresh pre-order walk.

:class:`~repro.infra.topology.PowerTopology` indexes leaves, levels and
each node's leaves once at construction; these properties rebuild every
answer by walking the tree (``PowerNode.iter_subtree``) and compare, on
random trees with uneven depth, repeated level names and unbounded leaves.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infra.topology import PowerNode, PowerTopology

LEVELS = ("datacenter", "suite", "msb", "rpp", "rack")


@st.composite
def trees(draw):
    """A random tree: per node a child count, a level and a leaf capacity."""
    counter = iter(range(10_000))

    def grow(depth):
        level = draw(st.sampled_from(LEVELS[depth:]))
        fanout = 0 if depth >= 4 else draw(st.integers(0, 3))
        capacity = draw(st.one_of(st.none(), st.integers(1, 40))) if not fanout else None
        node = PowerNode(f"n{next(counter)}", level, capacity=capacity)
        for _ in range(fanout):
            node.add_child(grow(depth + 1))
        return node

    return grow(0)


def walked_capacity(node):
    total = 0
    for leaf in node.leaves():
        if leaf.capacity is None:
            return None
        total += leaf.capacity
    return total


class TestTopologyIndex:
    @given(trees())
    @settings(max_examples=80, deadline=None)
    def test_index_equals_preorder_walk(self, root):
        topology = PowerTopology(root)
        walk = list(root.iter_subtree())

        assert topology.nodes() == walk
        assert topology.leaves() == [node for node in walk if node.is_leaf]
        assert topology.leaf_names() == [node.name for node in walk if node.is_leaf]
        levels = list(dict.fromkeys(node.level for node in walk))
        assert topology.levels() == levels
        for level in levels:
            assert topology.nodes_at_level(level) == [
                node for node in walk if node.level == level
            ]
        for node in walk:
            assert topology.leaves_under(node.name) == node.leaves()
            assert topology.has_leaf(node.name) == node.is_leaf
            assert topology.total_leaf_capacity(node.name) == walked_capacity(node)
        assert topology.total_leaf_capacity() == walked_capacity(root)

    @given(trees())
    @settings(max_examples=30, deadline=None)
    def test_structural_queries_return_fresh_lists(self, root):
        topology = PowerTopology(root)
        for query in (
            topology.nodes,
            topology.leaves,
            topology.leaf_names,
            topology.levels,
            lambda: topology.nodes_at_level(root.level),
            lambda: topology.leaves_under(root.name),
        ):
            first = query()
            expected = list(first)
            first.clear()
            assert query() == expected
