"""Unit tests for the delta-driven fleet-state core (repro.engine.delta)."""

import numpy as np
import pytest

from repro.core.metrics import AsynchronyIndex, node_asynchrony_scores
from repro.engine.delta import FleetDelta, Move, PlacementState, dirty_nodes
from repro.infra import (
    Assignment,
    HeadroomIndex,
    Level,
    NodePowerView,
    build_topology,
    ocp_spec,
    two_level_spec,
)
from repro.infra.budget import provision_from_view
from repro.infra.headroom import node_headroom
from repro.traces import TimeGrid, TraceSet

GRID = TimeGrid(0, 30, 48)


def small_fleet(per_leaf=3, leaves=4, seed=0):
    rng = np.random.default_rng(seed)
    topo = build_topology(
        two_level_spec("dc", leaves=leaves, leaf_capacity=per_leaf + 2)
    )
    n = per_leaf * leaves
    ids = [f"i{k}" for k in range(n)]
    traces = TraceSet(GRID, ids, rng.uniform(5, 50, size=(n, GRID.n_samples)))
    leaf_names = topo.leaf_names()
    mapping = {ids[k]: leaf_names[k % leaves] for k in range(n)}
    return topo, Assignment(topo, mapping), traces


class TestFleetDelta:
    def test_move_validation(self):
        with pytest.raises(ValueError):
            Move("a", None, None)
        with pytest.raises(ValueError):
            Move("a", "leaf", "leaf")

    def test_duplicate_instance_rejected(self):
        with pytest.raises(ValueError, match="multiple moves"):
            FleetDelta(moves=(Move("a", "x", "y"), Move("a", "y", "z")))

    def test_constructors(self):
        swap = FleetDelta.swap("a", "la", "b", "lb")
        assert swap.moves == (Move("a", "la", "lb"), Move("b", "lb", "la"))
        assert FleetDelta.place("a", "l").moves == (Move("a", None, "l"),)
        assert FleetDelta.remove("a", "l").moves == (Move("a", "l", None),)
        assert FleetDelta.trace_update("a", "b").trace_updates == ("a", "b")
        assert not FleetDelta()
        assert FleetDelta.trace_update("a")

    def test_touched_leaves_order_and_dedup(self):
        delta = FleetDelta.swap("a", "la", "b", "lb")
        assert delta.touched_leaves() == ["la", "lb"]
        delta = FleetDelta.trace_update("a", "b")
        assert delta.touched_leaves() == []
        assert delta.touched_leaves({"a": "lx", "b": "lx"}) == ["lx"]


class TestDirtyNodes:
    def test_union_of_root_paths(self):
        topo = build_topology(
            ocp_spec("dc", suites=2, msbs_per_suite=1, sbs_per_msb=1,
                     rpps_per_sb=1, racks_per_rpp=2, servers_per_rack=4)
        )
        leaves = topo.leaf_names()
        dirty = dirty_nodes(topo, [leaves[0], leaves[-1]])
        # Root appears once, both full paths covered, root-first.
        assert dirty[0] == topo.root.name
        assert dirty.count(topo.root.name) == 1
        for name in dirty:
            topo.node(name)
        path0 = {n.name for n in topo.node(leaves[0]).path_from_root()}
        path1 = {n.name for n in topo.node(leaves[-1]).path_from_root()}
        assert set(dirty) == path0 | path1


class TestPlacementState:
    def test_mapping_round_trip(self):
        topo, assignment, traces = small_fleet()
        state = PlacementState(topo, traces, assignment)
        rebuilt = state.assignment()
        assert rebuilt.as_mapping() == assignment.as_mapping()
        for leaf in topo.leaves():
            assert rebuilt.instances_on_leaf(leaf.name) == state.members(leaf.name)

    def test_swap_move_place_remove(self):
        topo, assignment, traces = small_fleet()
        state = PlacementState(topo, traces, assignment)
        a = state.members("dc/rpp0")[0]
        b = state.members("dc/rpp1")[0]
        state.swap(a, b)
        assert state.leaf_of(a) == "dc/rpp1"
        assert state.leaf_of(b) == "dc/rpp0"
        state.move(a, "dc/rpp2")
        assert state.leaf_of(a) == "dc/rpp2"
        state.remove(a)
        assert a not in state
        state.place(a, "dc/rpp0")
        assert state.leaf_of(a) == "dc/rpp0"
        assert len(state) == len(assignment)

    def test_validation(self):
        topo, assignment, traces = small_fleet()
        state = PlacementState(topo, traces, assignment)
        with pytest.raises(ValueError, match="not"):
            state.apply(FleetDelta.move("i0", "dc/rpp3", "dc/rpp1"))
        with pytest.raises(KeyError):
            state.apply(FleetDelta.place("i0", "nope"))
        with pytest.raises(ValueError, match="already placed"):
            state.apply(FleetDelta.place("i0", "dc/rpp1"))
        with pytest.raises(ValueError, match="no trace"):
            state.apply(FleetDelta.place("ghost", "dc/rpp1"))
        with pytest.raises(KeyError):
            state.update_traces("ghost")

    def test_capacity_enforced(self):
        topo, assignment, traces = small_fleet(per_leaf=3)
        state = PlacementState(topo, traces, assignment)
        movers = [i for i in traces.ids if state.leaf_of(i) != "dc/rpp0"]
        state.move(movers[0], "dc/rpp0")
        state.move(movers[1], "dc/rpp0")  # leaf now at capacity 5
        with pytest.raises(ValueError, match="capacity"):
            state.move(movers[2], "dc/rpp0")

    def test_swap_into_full_leaf_allowed(self):
        """Capacity is judged on net post-delta occupancy: a swap's paired
        departure frees the slot its arrival needs."""
        topo, assignment, traces = small_fleet(per_leaf=3)
        state = PlacementState(topo, traces, assignment)
        movers = [i for i in traces.ids if state.leaf_of(i) != "dc/rpp0"]
        state.move(movers[0], "dc/rpp0")
        state.move(movers[1], "dc/rpp0")  # rpp0 now at capacity 5
        resident = state.members("dc/rpp0")[0]
        outsider = [i for i in traces.ids if state.leaf_of(i) == "dc/rpp1"][0]
        state.swap(resident, outsider)
        assert state.leaf_of(outsider) == "dc/rpp0"
        assert len(state.members("dc/rpp0")) == 5

    def test_rejected_delta_leaves_state_untouched(self):
        topo, assignment, traces = small_fleet()
        state = PlacementState(topo, traces, assignment)
        before = state.mapping()
        bad = FleetDelta(
            moves=(
                Move("i0", state.leaf_of("i0"), "dc/rpp3"),
                Move("i1", "dc/rpp3", "dc/rpp0"),  # wrong src leaf
            )
        )
        with pytest.raises(ValueError):
            state.apply(bad)
        assert state.mapping() == before
        assert state.version == 0

    def test_counters_and_histogram(self):
        from repro.obs import metrics as obs_metrics

        topo, assignment, traces = small_fleet()
        with obs_metrics.capturing() as registry:
            state = PlacementState(topo, traces, assignment)
            a = state.members("dc/rpp0")[0]
            b = state.members("dc/rpp1")[0]
            dirty = state.swap(a, b)
        metrics = registry.snapshot()
        assert metrics["counters"]["delta.applied"] == 1
        assert metrics["counters"]["delta.moves"] == 2
        assert metrics["counters"]["delta.nodes_dirtied"] == len(dirty)
        assert "delta.apply_s" in metrics["histograms"]

    def test_subscriber_fan_out_order(self):
        topo, assignment, traces = small_fleet()
        state = PlacementState(topo, traces, assignment)
        calls = []

        class Probe:
            def __init__(self, tag):
                self.tag = tag

            def apply_delta(self, delta):
                calls.append((self.tag, delta))

        state.register(Probe("first"))
        state.register(Probe("second"))
        a = state.members("dc/rpp0")[0]
        b = state.members("dc/rpp1")[0]
        state.swap(a, b)
        assert [tag for tag, _ in calls] == ["first", "second"]
        assert calls[0][1] is calls[1][1]


class TestViewRejectsWholeDelta:
    """A delta the view rejects changes nothing, whichever move is bad."""

    @staticmethod
    def _view_with_spare():
        topo, assignment, traces = small_fleet()
        rng = np.random.default_rng(1)
        spare = TraceSet(GRID, ["spare"], rng.uniform(5, 50, size=(1, GRID.n_samples)))
        view = NodePowerView(topo, assignment, traces.merged_with(spare))
        a = view.member_ids("dc/rpp0")[0]
        b = view.member_ids("dc/rpp1")[0]
        view.apply_delta(FleetDelta.swap(a, "dc/rpp0", b, "dc/rpp1"))
        return topo, view

    @staticmethod
    def _snapshot(topo, view):
        return (
            {leaf: view.member_ids(leaf) for leaf in topo.leaf_names()},
            view.version,
            view.last_dirty,
            {node.name: view.node_trace(node.name).values for node in topo.nodes()},
        )

    @pytest.mark.parametrize(
        "second, error",
        [
            (Move("spare", "dc/rpp2", "dc/rpp3"), ValueError),  # not placed
            (Move("spare", None, "dc/nowhere"), KeyError),  # not a leaf
            (Move("i2", None, "dc/rpp3"), ValueError),  # already placed
            (Move("ghost", None, "dc/rpp3"), ValueError),  # no trace
        ],
    )
    def test_rejected_second_move_changes_nothing(self, second, error):
        topo, view = self._view_with_spare()
        before = self._snapshot(topo, view)
        first = Move(view.member_ids("dc/rpp0")[0], "dc/rpp0", "dc/rpp3")
        with pytest.raises(error):
            view.apply_delta(FleetDelta(moves=(first, second)))
        after = self._snapshot(topo, view)
        assert after[:3] == before[:3]
        for name, values in before[3].items():
            assert np.array_equal(after[3][name], values), name
        fresh = NodePowerView(topo, view.materialized_assignment(), view.traces)
        for node in topo.nodes():
            assert np.array_equal(
                view._node_values[node.name], fresh._node_values[node.name]
            )

    def test_refresh_of_an_instance_the_delta_removes_changes_nothing(self):
        topo, view = self._view_with_spare()
        before = self._snapshot(topo, view)
        leaving = view.member_ids("dc/rpp2")[0]
        with pytest.raises(KeyError):
            view.apply_delta(
                FleetDelta(
                    moves=(Move(leaving, "dc/rpp2", None),),
                    trace_updates=(leaving,),
                )
            )
        assert self._snapshot(topo, view)[:3] == before[:3]

    def test_arrivals_are_judged_after_departures(self):
        """A swap and a departure-then-arrival pass the up-front check."""
        topo, view = self._view_with_spare()
        a = view.member_ids("dc/rpp2")[0]
        b = view.member_ids("dc/rpp3")[0]
        view.apply_delta(
            FleetDelta(
                moves=(
                    Move(a, "dc/rpp2", "dc/rpp3"),
                    Move(b, "dc/rpp3", "dc/rpp2"),
                    Move("spare", None, "dc/rpp0"),
                )
            )
        )
        assert view.member_ids("dc/rpp3")[-1] == a
        assert view.member_ids("dc/rpp2")[-1] == b
        assert view.member_ids("dc/rpp0")[-1] == "spare"
        assert view.version == 2


class TestSharedViewGuard:
    def test_indices_sharing_a_view_apply_each_delta_once(self):
        """Two indices over one view: the view advances once per delta."""
        topo, assignment, traces = small_fleet()
        state = PlacementState(topo, traces, assignment)
        view = NodePowerView(topo, state.assignment(), traces)
        provision_from_view(view, margin=1.5)
        state.register(view)
        score_index = state.register(AsynchronyIndex(view, Level.RPP))
        head_index = state.register(HeadroomIndex(view))
        a = state.members("dc/rpp0")[0]
        b = state.members("dc/rpp1")[0]
        state.swap(a, b)
        assert view.version == 1

        fresh_view = NodePowerView(topo, state.assignment(), traces)
        assert score_index.scores() == node_asynchrony_scores(
            state.assignment(), traces, Level.RPP, view=fresh_view
        )
        assert head_index.headroom() == node_headroom(fresh_view)

    def test_index_drives_view_when_standalone(self):
        topo, assignment, traces = small_fleet()
        view = NodePowerView(topo, assignment, traces)
        index = AsynchronyIndex(view, Level.RPP)
        delta = FleetDelta.swap(
            assignment.instances_on_leaf("dc/rpp0")[0],
            "dc/rpp0",
            assignment.instances_on_leaf("dc/rpp1")[0],
            "dc/rpp1",
        )
        index.apply_delta(delta)
        assert view.version == 1
        fresh = NodePowerView(topo, view.materialized_assignment(), traces)
        assert index.scores() == node_asynchrony_scores(
            view.materialized_assignment(), traces, Level.RPP, view=fresh
        )
