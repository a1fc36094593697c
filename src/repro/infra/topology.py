"""Multi-level power delivery infrastructure (Sec. 2.1, Figure 2).

Facebook datacenters feed power through a four-level tree: the datacenter
substation supplies suites, each suite has main switching boards (MSBs)
feeding switching boards (SBs), which feed reactive power panels (RPPs),
which feed racks of servers.  The power budget of each node is approximately
the sum of its children's budgets, and a node's breaker trips if its
aggregate draw exceeds its budget.

This module models that tree.  Nodes are identified by unique names; servers
(service instances) attach only to *leaf* nodes.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple


class Level:
    """Canonical levels of the power tree, root to leaf."""

    DATACENTER = "datacenter"
    SUITE = "suite"
    MSB = "msb"
    SB = "sb"
    RPP = "rpp"
    RACK = "rack"

    #: Root-to-leaf ordering used by the default topology.
    DEFAULT_ORDER: Tuple[str, ...] = (DATACENTER, SUITE, MSB, SB, RPP, RACK)


class TopologyError(ValueError):
    """Raised for structurally invalid power trees or lookups."""


class PowerNode:
    """One power delivery device in the tree.

    A node knows its name, level, parent, children, and (optionally) a power
    budget in watts.  Budgets can also be assigned later from a provisioning
    policy (see :mod:`repro.infra.budget`).
    """

    __slots__ = ("name", "level", "parent", "children", "budget_watts", "capacity")

    def __init__(
        self,
        name: str,
        level: str,
        *,
        budget_watts: Optional[float] = None,
        capacity: Optional[int] = None,
    ) -> None:
        if not name:
            raise TopologyError("node name cannot be empty")
        if budget_watts is not None and not 0 <= budget_watts < math.inf:
            raise TopologyError("budget must be a finite, non-negative number of watts")
        if capacity is not None and capacity <= 0:
            raise TopologyError("capacity must be positive when given")
        self.name = name
        self.level = level
        self.parent: Optional["PowerNode"] = None
        self.children: List["PowerNode"] = []
        self.budget_watts = budget_watts
        #: Max number of service instances attachable beneath this node
        #: (meaningful for leaves; None = unbounded).
        self.capacity = capacity

    def add_child(self, child: "PowerNode") -> "PowerNode":
        if child.parent is not None:
            raise TopologyError(f"node {child.name} already has a parent")
        child.parent = self
        self.children.append(child)
        return child

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def iter_subtree(self) -> Iterator["PowerNode"]:
        """Pre-order traversal of this node and its descendants."""
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def leaves(self) -> List["PowerNode"]:
        return [node for node in self.iter_subtree() if node.is_leaf]

    def path_from_root(self) -> List["PowerNode"]:
        path: List[PowerNode] = []
        node: Optional[PowerNode] = self
        while node is not None:
            path.append(node)
            node = node.parent
        return list(reversed(path))

    def __repr__(self) -> str:
        return f"PowerNode({self.name!r}, level={self.level!r}, children={len(self.children)})"


class PowerTopology:
    """A whole power tree with name-indexed lookup.

    The tree is validated on construction: names must be unique and every
    non-root node must be reachable from the root.

    The same walk indexes the tree's structure: the pre-order leaf list,
    the nodes at each level, and each node's leaves (a contiguous slice of
    the leaf list, since pre-order visits a subtree's leaves together).
    Structural queries read the index instead of re-walking the tree, so
    the structure is frozen once wrapped: attach every child before
    constructing the topology.  Budgets and capacities stay mutable.
    """

    def __init__(self, root: PowerNode) -> None:
        self.root = root
        self._by_name: Dict[str, PowerNode] = {}
        self._by_level: Dict[str, List[PowerNode]] = {}
        self._leaves: List[PowerNode] = []
        #: node name → (start, end) of its leaves in ``_leaves``
        self._leaf_span: Dict[str, Tuple[int, int]] = {}
        self._index(root)
        self._leaf_names = frozenset(leaf.name for leaf in self._leaves)

    def _index(self, node: PowerNode) -> None:
        if node.name in self._by_name:
            raise TopologyError(f"duplicate node name: {node.name}")
        self._by_name[node.name] = node
        self._by_level.setdefault(node.level, []).append(node)
        start = len(self._leaves)
        if node.is_leaf:
            self._leaves.append(node)
        for child in node.children:
            self._index(child)
        self._leaf_span[node.name] = (start, len(self._leaves))

    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def node(self, name: str) -> PowerNode:
        try:
            return self._by_name[name]
        except KeyError:
            raise TopologyError(f"unknown node: {name}") from None

    def nodes(self) -> List[PowerNode]:
        return list(self._by_name.values())

    def levels(self) -> List[str]:
        """Distinct levels present, in root-to-leaf encounter order."""
        return list(self._by_level)

    def nodes_at_level(self, level: str) -> List[PowerNode]:
        try:
            return list(self._by_level[level])
        except KeyError:
            raise TopologyError(f"no nodes at level {level!r}") from None

    def leaves(self) -> List[PowerNode]:
        return list(self._leaves)

    def leaf_names(self) -> List[str]:
        return [leaf.name for leaf in self._leaves]

    def has_leaf(self, name: str) -> bool:
        """Whether ``name`` is a leaf of this tree."""
        return name in self._leaf_names

    def leaves_under(self, name: str) -> List[PowerNode]:
        """Leaves of the subtree rooted at ``name``, in pre-order."""
        try:
            start, end = self._leaf_span[name]
        except KeyError:
            raise TopologyError(f"unknown node: {name}") from None
        return self._leaves[start:end]

    def parent_of(self, name: str) -> Optional[PowerNode]:
        return self.node(name).parent

    def total_leaf_capacity(self, under: Optional[str] = None) -> Optional[int]:
        """Sum of the leaf capacities under node ``under`` (default: the
        whole tree); None if any of those leaves is unbounded."""
        leaves = self._leaves if under is None else self.leaves_under(under)
        total = 0
        for leaf in leaves:
            if leaf.capacity is None:
                return None
            total += leaf.capacity
        return total

    def describe(self) -> str:
        """Human-readable per-level summary ("4 suites, 8 MSBs, ...")."""
        parts = []
        for level, nodes in self._by_level.items():
            count = len(nodes)
            parts.append(f"{count} {level}{'s' if count != 1 else ''}")
        return ", ".join(parts)
