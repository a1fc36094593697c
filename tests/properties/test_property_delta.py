"""Property tests: incremental state == full recompute, for any delta sequence.

The delta layer's contract is exactness: after an arbitrary sequence of
swaps, moves, arrivals, departures, and in-place trace refreshes, every
incrementally maintained index (per-node aggregates and peaks, asynchrony
scores, nominal headroom) must be *bit-identical* to a from-scratch
rebuild from the materialized assignment, and so must the last snapshot
of a subscribed fragmentation monitor; the Γ-robust accountants (whose
O(1) float patches reorder additions by design) must agree within
accumulation tolerance.  Float32 fast-path traces are exercised alongside
float64, and a second family of scenes runs on a deeper tree (five levels
below the root, eight or more racks per RPP, some racks empty) on one- and
24-sample grids, so deltas re-sum internal nodes below the root.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.monitoring import FragmentationMonitor, MonitorConfig
from repro.core.metrics import AsynchronyIndex, node_asynchrony_scores
from repro.engine.delta import PlacementState
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
from repro.robust import RobustHeadroomIndex, UncertainPowerModel
from repro.traces import TimeGrid, TraceSet

GRID = TimeGrid(0, 60, 24)


@st.composite
def delta_scenes(draw):
    """A random fleet plus a random mixed delta sequence."""
    leaves = draw(st.integers(2, 4))
    per_leaf = draw(st.integers(2, 4))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    n = leaves * per_leaf
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0.5, 50.0, size=(n, GRID.n_samples)).astype(dtype)
    topo = build_topology(
        two_level_spec("r", leaves=leaves, leaf_capacity=per_leaf + 2)
    )
    ids = [f"i{k}" for k in range(n)]
    traces = TraceSet(GRID, ids, matrix, dtype=dtype)
    leaf_names = topo.leaf_names()
    mapping = {ids[k]: leaf_names[k // per_leaf] for k in range(n)}
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["swap", "move", "churn", "trace"]),
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(0, leaves - 1),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return topo, Assignment(topo, mapping), traces, ops, rng


@st.composite
def deep_scenes(draw):
    """A small OCP tree with empty racks plus a random mixed delta sequence."""
    topo = build_topology(
        ocp_spec(
            "dc",
            suites=draw(st.integers(1, 2)),
            msbs_per_suite=1,
            sbs_per_msb=1,
            rpps_per_sb=draw(st.integers(1, 2)),
            racks_per_rpp=draw(st.integers(8, 10)),
            servers_per_rack=4,
        )
    )
    leaf_names = topo.leaf_names()
    used = draw(st.integers(1, len(leaf_names) - 1))
    n = draw(st.integers(max(2, used), min(3 * used, 40)))
    grid = TimeGrid(0, 60, draw(st.sampled_from([1, 24])))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0.5, 50.0, size=(n, grid.n_samples)).astype(dtype)
    ids = [f"i{k}" for k in range(n)]
    traces = TraceSet(grid, ids, matrix, dtype=dtype)
    mapping = {ids[k]: leaf_names[k % used] for k in range(n)}
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["swap", "move", "churn", "trace"]),
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(0, len(leaf_names) - 1),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return topo, Assignment(topo, mapping), traces, ops, rng


def _apply_ops(state, traces, ops, rng):
    """Translate the drawn op tuples into applied deltas (skipping no-ops)."""
    ids = traces.ids
    leaf_names = state.topology.leaf_names()
    applied = 0
    for kind, a, b, leaf_idx in ops:
        id_a, id_b = ids[a], ids[b]
        if kind == "swap":
            if (
                id_a in state
                and id_b in state
                and state.leaf_of(id_a) != state.leaf_of(id_b)
            ):
                state.swap(id_a, id_b)
                applied += 1
        elif kind == "move":
            dst = leaf_names[leaf_idx]
            if id_a in state and state.leaf_of(id_a) != dst:
                leaf = state.topology.node(dst)
                if leaf.capacity is None or len(state.members(dst)) < leaf.capacity:
                    state.move(id_a, dst)
                    applied += 1
        elif kind == "churn":
            # Departure then re-arrival on a (possibly) different leaf.
            if id_a in state:
                state.remove(id_a)
                applied += 1
            else:
                dst = leaf_names[leaf_idx]
                leaf = state.topology.node(dst)
                if leaf.capacity is None or len(state.members(dst)) < leaf.capacity:
                    state.place(id_a, dst)
                    applied += 1
        else:  # in-place trace refresh
            if id_a in state:
                row = traces.index_of(id_a)
                traces.matrix[row] = (
                    rng.uniform(0.5, 50.0, size=traces.grid.n_samples)
                ).astype(traces.matrix.dtype)
                state.update_traces(id_a)
                applied += 1
    return applied


def _assert_dtypes(view):
    dtype = view.traces.matrix.dtype
    for node in view.topology.nodes():
        assert view._node_values[node.name].dtype == dtype, node.name


def _run_scene(scene):
    """Apply the scene's ops; every index must equal a rebuild, bit for bit."""
    topo, assignment, traces, ops, rng = scene
    state = PlacementState(topo, traces, assignment)
    view = state.register(NodePowerView(topo, state.assignment(), traces))
    _assert_dtypes(view)
    provision_from_view(view, margin=0.25)
    score_index = state.register(AsynchronyIndex(view, Level.RPP))
    head_index = state.register(HeadroomIndex(view))
    config = MonitorConfig()
    monitor = state.register(FragmentationMonitor(score_index, config))

    _apply_ops(state, traces, ops, rng)

    fresh_assignment = state.assignment()
    fresh_view = NodePowerView(topo, fresh_assignment, traces)
    for node in topo.nodes():
        assert np.array_equal(
            view._node_values[node.name], fresh_view._node_values[node.name]
        ), f"aggregate diverged at {node.name}"
        assert view.node_peak(node.name) == fresh_view.node_peak(node.name)
    _assert_dtypes(view)

    for leaf in topo.leaf_names():
        assert view.member_ids(leaf) == state.members(leaf)
    for node in topo.nodes():
        members = fresh_assignment.instances_under(node.name)
        assert view.members_under(node.name) == members
        assert view.rows_under(node.name) == [traces.index_of(i) for i in members]
    assert list(view.materialized_assignment().as_mapping().items()) == list(
        state.mapping().items()
    )

    full_scores = node_asynchrony_scores(
        fresh_assignment, traces, Level.RPP, view=fresh_view
    )
    assert score_index.scores() == full_scores

    assert head_index.headroom() == node_headroom(fresh_view)
    head_index.verify()

    last = monitor.history[-1]
    reference = FragmentationMonitor(
        AsynchronyIndex(fresh_view, Level.RPP), config
    ).history[0]
    assert last.sum_of_peaks == reference.sum_of_peaks
    assert last.worst_node == reference.worst_node
    assert last.min_asynchrony == reference.min_asynchrony


class TestIncrementalEqualsFull:
    @given(scene=delta_scenes())
    @settings(max_examples=40, deadline=None)
    def test_aggregates_scores_and_headroom(self, scene):
        _run_scene(scene)

    @given(scene=deep_scenes())
    @settings(max_examples=40, deadline=None)
    def test_deep_tree_and_one_sample_grid(self, scene):
        _run_scene(scene)

    @given(scene=delta_scenes())
    @settings(max_examples=25, deadline=None)
    def test_gamma_robust_accounting(self, scene):
        topo, assignment, traces, ops, rng = scene
        peaks = traces.peaks().astype(np.float64)
        means = traces.means().astype(np.float64)
        model = UncertainPowerModel(traces.ids, means, peaks - means)

        state = PlacementState(topo, traces, assignment)
        robust_index = RobustHeadroomIndex(topo, model, gamma=2)
        for instance_id, leaf_name in assignment.as_mapping().items():
            robust_index.place(instance_id, leaf_name)
        state.register(robust_index)

        _apply_ops(state, traces, ops, rng)

        robust_index.verify()
        fresh = RobustHeadroomIndex(topo, model, gamma=2)
        for instance_id, leaf_name in state.assignment().as_mapping().items():
            fresh.place(instance_id, leaf_name)
        for node in topo.nodes():
            incremental = robust_index.robust_load(node.name)
            rebuilt = fresh.robust_load(node.name)
            assert np.isclose(incremental, rebuilt, rtol=0, atol=1e-9 * max(1.0, rebuilt))
