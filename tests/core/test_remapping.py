"""Unit tests for the differential-score swap loop (Sec. 3.6)."""

import numpy as np
import pytest

from repro.baselines import oblivious_placement
from repro.core import (
    RemapConfig,
    RemappingEngine,
    node_asynchrony_scores,
)
from repro.core.asynchrony import differential_rows
from repro.core.remapping import _NodeGroup, _remap_shard_task
from repro.infra import Assignment, Level, NodePowerView, build_topology, two_level_spec
from repro.traces import TimeGrid, TraceSet, training_trace_set

from ..properties.test_property_remapping import oracle_remap


def _group(name, members, traces):
    """A node group over ``traces.matrix``, its members resolved to rows."""
    rows = [traces.index_of(instance_id) for instance_id in members]
    return _NodeGroup(name, members, rows, traces.matrix)


@pytest.fixture
def fragmented():
    """Two leaves: leaf0 has two synchronous 'up' ramps, leaf1 two 'down'."""
    grid = TimeGrid(0, 60, 24)
    up = np.linspace(0, 10, 24)
    down = np.linspace(10, 0, 24)
    topo = build_topology(two_level_spec("dc", leaves=2, leaf_capacity=4))
    traces = TraceSet(grid, ["u1", "u2", "d1", "d2"], np.vstack([up, up, down, down]))
    assignment = Assignment(
        topo, {"u1": "dc/rpp0", "u2": "dc/rpp0", "d1": "dc/rpp1", "d2": "dc/rpp1"}
    )
    return topo, assignment, traces


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RemapConfig(level=Level.RPP, max_swaps=-1)
        with pytest.raises(ValueError):
            RemapConfig(level=Level.RPP, candidate_nodes=0)
        with pytest.raises(ValueError):
            RemapConfig(level=Level.RPP, min_improvement=-0.1)

    def test_shard_level_must_differ_from_swap_level(self):
        with pytest.raises(ValueError):
            RemapConfig(level=Level.RPP, shard_level=Level.RPP)


class TestSwapLoop:
    def test_fixes_fragmented_toy(self, fragmented):
        topo, assignment, traces = fragmented
        engine = RemappingEngine(RemapConfig(level=Level.RPP, max_swaps=4))
        result = engine.run(assignment, traces)
        assert result.n_swaps >= 1
        scores = node_asynchrony_scores(result.assignment, traces, Level.RPP)
        # After remapping both leaves hold one up + one down: score ~2.
        for score in scores.values():
            assert score > 1.8

    def test_reduces_sum_of_peaks(self, fragmented):
        topo, assignment, traces = fragmented
        engine = RemappingEngine(RemapConfig(level=Level.RPP, max_swaps=4))
        result = engine.run(assignment, traces)
        before = NodePowerView(topo, assignment, traces).sum_of_peaks(Level.RPP)
        after = NodePowerView(topo, result.assignment, traces).sum_of_peaks(Level.RPP)
        assert after < before

    def test_no_swaps_when_already_optimal(self, fragmented):
        topo, _, traces = fragmented
        optimal = Assignment(
            topo, {"u1": "dc/rpp0", "d1": "dc/rpp0", "u2": "dc/rpp1", "d2": "dc/rpp1"}
        )
        engine = RemappingEngine(RemapConfig(level=Level.RPP, max_swaps=4))
        result = engine.run(optimal, traces)
        assert result.n_swaps == 0
        assert result.assignment.as_mapping() == optimal.as_mapping()

    def test_max_swaps_zero(self, fragmented):
        topo, assignment, traces = fragmented
        engine = RemappingEngine(RemapConfig(level=Level.RPP, max_swaps=0))
        result = engine.run(assignment, traces)
        assert result.n_swaps == 0

    def test_swap_records_gains(self, fragmented):
        topo, assignment, traces = fragmented
        engine = RemappingEngine(RemapConfig(level=Level.RPP, max_swaps=4))
        result = engine.run(assignment, traces)
        for swap in result.swaps:
            assert swap.gain_a > 0
            assert swap.gain_b > 0
            assert swap.node_a != swap.node_b

    def test_single_group_is_noop(self):
        grid = TimeGrid(0, 60, 24)
        topo = build_topology(two_level_spec("dc", leaves=2, leaf_capacity=4))
        traces = TraceSet(grid, ["a"], np.ones((1, 24)))
        assignment = Assignment(topo, {"a": "dc/rpp0"})
        engine = RemappingEngine(RemapConfig(level=Level.RPP))
        result = engine.run(assignment, traces)
        assert result.n_swaps == 0


@pytest.fixture
def two_suites():
    """Two suites, each fragmented the same way the toy fixture is: the
    suite's rpp0 holds two 'up' ramps and its rpp1 two 'down' ramps."""
    from repro.infra import LevelSpec, TopologySpec

    grid = TimeGrid(0, 60, 24)
    up = np.linspace(0, 10, 24)
    down = np.linspace(10, 0, 24)
    spec = TopologySpec(
        name="dc",
        levels=(LevelSpec(Level.SUITE, 2), LevelSpec(Level.RPP, 2)),
        leaf_capacity=4,
    )
    topo = build_topology(spec)
    ids, rows, mapping = [], [], {}
    for s in range(2):
        for k, values in enumerate((up, up, down, down)):
            instance_id = f"s{s}_{'u' if k < 2 else 'd'}{k % 2}"
            ids.append(instance_id)
            rows.append(values)
            mapping[instance_id] = f"dc/suite{s}/rpp{0 if k < 2 else 1}"
    traces = TraceSet(grid, ids, np.vstack(rows))
    return topo, Assignment(topo, mapping), traces


class TestShardedRemap:
    def config(self):
        return RemapConfig(level=Level.RPP, max_swaps=4, shard_level=Level.SUITE)

    def test_each_shard_is_fixed_and_swaps_stay_inside_it(self, two_suites):
        topo, assignment, traces = two_suites
        result = RemappingEngine(self.config()).run(assignment, traces)
        assert result.n_swaps >= 2  # at least one swap per fragmented suite
        for swap in result.swaps:
            # Node names are hierarchical, so the shard is the name prefix.
            suite_a = swap.node_a.rsplit("/", 1)[0]
            suite_b = swap.node_b.rsplit("/", 1)[0]
            assert suite_a == suite_b
        scores = node_asynchrony_scores(result.assignment, traces, Level.RPP)
        for score in scores.values():
            assert score > 1.8

    def test_worker_count_never_changes_the_result(self, two_suites):
        """Shards are independent, so the pooled fan-out must reproduce the
        serial sharded run exactly: same swaps and assignment."""
        from repro.engine.parallel import shutdown_pools

        topo, assignment, traces = two_suites
        engine = RemappingEngine(self.config())
        serial = engine.run(assignment, traces)
        try:
            pooled = engine.run(assignment, traces, workers=2)
        finally:
            shutdown_pools()
        assert pooled.swaps == serial.swaps
        assert pooled.assignment.as_mapping() == serial.assignment.as_mapping()

    def test_shards_resolve_members_to_rows(self, two_suites):
        """Each shard lists its level nodes' names, member ids and their rows
        of the trace matrix, in membership order."""
        topo, assignment, traces = two_suites
        shards = RemappingEngine(self.config())._shards(assignment, traces)
        assert [[name for name, _, _ in shard] for shard in shards] == [
            [f"dc/suite{s}/rpp0", f"dc/suite{s}/rpp1"] for s in range(2)
        ]
        for shard in shards:
            for name, members, rows in shard:
                assert members == assignment.instances_under(name)
                assert rows == [traces.index_of(i) for i in members]

    def test_shard_task_reads_the_shared_matrix_in_place(
        self, two_suites, monkeypatch
    ):
        """A pooled shard runs the serial loop on the attached segment: it
        builds no TraceSet and returns the serial shards' swaps."""
        from repro.engine.sharedmem import SharedMatrix, detach_all

        topo, assignment, traces = two_suites
        engine = RemappingEngine(self.config())
        serial = engine.run(assignment, traces)
        shards = engine._shards(assignment, traces)

        def no_traceset(*args, **kwargs):
            raise AssertionError("the shard task built a TraceSet")

        monkeypatch.setattr(TraceSet, "__init__", no_traceset)
        with SharedMatrix.create(traces.matrix) as shared:
            try:
                pooled = [
                    swap
                    for shard in shards
                    for swap in _remap_shard_task(shared.handle, shard, engine.config)
                ]
            finally:
                detach_all()
        assert len(shards) == 2
        assert serial.n_swaps >= 2
        assert pooled == serial.swaps

    def test_workers_ignored_without_shard_level(self, fragmented):
        topo, assignment, traces = fragmented
        engine = RemappingEngine(RemapConfig(level=Level.RPP, max_swaps=4))
        plain = engine.run(assignment, traces)
        with_workers = engine.run(assignment, traces, workers=4)
        assert with_workers.swaps == plain.swaps
        assert (
            with_workers.assignment.as_mapping() == plain.assignment.as_mapping()
        )


class TestOnRealFleet:
    def test_improves_oblivious_placement(self, tiny_records, tiny_topology):
        traces = training_trace_set(tiny_records)
        oblivious = oblivious_placement(tiny_records, tiny_topology)
        engine = RemappingEngine(
            RemapConfig(level=Level.RPP, max_swaps=20, candidate_nodes=2)
        )
        result = engine.run(oblivious, traces)
        before = NodePowerView(tiny_topology, oblivious, traces).sum_of_peaks(Level.RPP)
        after = NodePowerView(tiny_topology, result.assignment, traces).sum_of_peaks(
            Level.RPP
        )
        assert after <= before


def _phased_fleet(n_instances, leaves, seed=7):
    """A fleet of phase-shifted diurnal traces round-robined over leaves."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0, 60, 24)
    t = np.arange(24)
    ids = [f"i{k:03d}" for k in range(n_instances)]
    phases = rng.uniform(0, 2 * np.pi, n_instances)
    matrix = 5.0 + 4.0 * np.sin(2 * np.pi * t / 24 + phases[:, None])
    matrix += rng.uniform(0, 0.5, matrix.shape)
    traces = TraceSet(grid, ids, matrix)
    topo = build_topology(
        two_level_spec("dc", leaves=leaves, leaf_capacity=n_instances // leaves)
    )
    mapping = {ids[k]: f"dc/rpp{k % leaves}" for k in range(n_instances)}
    return topo, Assignment(topo, mapping), traces


class TestNodeGroupInternals:
    """The differential kernel as the swap loop calls it, on a group's total."""

    def test_empty_rest_differential_is_two(self):
        """A one-member group with that member excluded scores the AD limit,
        2.0 — inside the [1, 2] range, not an out-of-range sentinel."""
        grid = TimeGrid(0, 60, 24)
        traces = TraceSet(grid, ["solo", "other"], np.ones((2, 24)))
        group = _group("n", ["solo"], traces)
        other = traces.row("other")
        score = differential_rows(
            other[None, :], other.max(), group.total, traces.row("solo"), 0
        )
        assert score.tolist() == [2.0]

    def test_empty_group_differential_is_two(self):
        grid = TimeGrid(0, 60, 24)
        traces = TraceSet(grid, ["a"], np.ones((1, 24)))
        group = _group("n", [], traces)
        a = traces.row("a")
        assert differential_rows(a[None, :], a.max(), group.total, 0.0, 0).tolist() == [2.0]

    def test_differential_stays_in_range(self):
        """The empty-rest value must not beat a genuinely good partner: AD is
        bounded by 2, so 2.0 ties the optimum instead of dominating it."""
        grid = TimeGrid(0, 60, 24)
        up = np.linspace(0, 10, 24)
        down = np.linspace(10, 0, 24)
        traces = TraceSet(grid, ["u", "d"], np.vstack([up, down]))
        group = _group("n", ["u"], traces)
        d = traces.row("d")
        [anti_phase] = differential_rows(d[None, :], d.max(), group.total, 0.0, 1)
        [empty] = differential_rows(
            d[None, :], d.max(), group.total, traces.row("u"), 0
        )
        assert 1.0 <= anti_phase <= 2.0
        assert empty <= 2.0 + 1e-12

    def test_swap_member_is_exact(self):
        """Every swap rebuilds the aggregate from member rows: after any
        number of swaps the total equals the exact sum bit-for-bit."""
        rng = np.random.default_rng(0)
        grid = TimeGrid(0, 60, 24)
        ids = [f"x{k}" for k in range(4)]
        traces = TraceSet(grid, ids, rng.random((4, 24)))
        group = _group("n", ["x0", "x1"], traces)
        for _ in range(64):
            incoming = next(i for i in ids if i not in group.members)
            group.swap_member(0, incoming, traces.index_of(incoming))
            exact = np.zeros(grid.n_samples)
            for i in group.members:
                exact += traces.row(i)
            assert np.array_equal(group.total, exact)

    def test_swap_member_tracks_membership(self):
        grid = TimeGrid(0, 60, 24)
        traces = TraceSet(grid, ["a", "b", "c"], np.ones((3, 24)))
        group = _group("n", ["a", "b"], traces)
        group.swap_member(0, "c", traces.index_of("c"))
        assert group.members == ["b", "c"]
        assert group.rows == [traces.index_of("b"), traces.index_of("c")]


class TestOneMemberNodeSwapPath:
    def test_one_member_worst_node_halts(self):
        """A fragmented one-member node cannot swap (needs >= 2 members) and
        must terminate the loop cleanly rather than emptying itself."""
        grid = TimeGrid(0, 60, 24)
        topo = build_topology(two_level_spec("dc", leaves=2, leaf_capacity=4))
        traces = TraceSet(grid, ["a", "b", "c"], np.ones((3, 24)))
        assignment = Assignment(
            topo, {"a": "dc/rpp0", "b": "dc/rpp1", "c": "dc/rpp1"}
        )
        engine = RemappingEngine(RemapConfig(level=Level.RPP, max_swaps=10))
        result = engine.run(assignment, traces)
        assert result.n_swaps == 0
        assert result.assignment.as_mapping() == assignment.as_mapping()

    def test_one_member_partner_is_skipped(self):
        """Partner nodes with a single member are never drained: the swap must
        come from a node that keeps >= 1 member afterwards."""
        grid = TimeGrid(0, 60, 24)
        up = np.linspace(0, 10, 24)
        down = np.linspace(10, 0, 24)
        topo = build_topology(two_level_spec("dc", leaves=3, leaf_capacity=4))
        traces = TraceSet(
            grid, ["u1", "u2", "d1", "d2", "solo"], np.vstack([up, up, down, down, up])
        )
        assignment = Assignment(
            topo,
            {
                "u1": "dc/rpp0",
                "u2": "dc/rpp0",
                "d1": "dc/rpp1",
                "d2": "dc/rpp1",
                "solo": "dc/rpp2",
            },
        )
        engine = RemappingEngine(RemapConfig(level=Level.RPP, max_swaps=10))
        result = engine.run(assignment, traces)
        for swap in result.swaps:
            assert "dc/rpp2" not in (swap.node_a, swap.node_b)
        # The lone instance never moves.
        assert result.assignment.as_mapping()["solo"] == "dc/rpp2"


class TestAggregateDrift:
    def test_final_totals_match_fresh_recompute(self):
        """Regression for incremental float drift: over max_swaps=50 on a
        500-instance fleet, the loop accepts the per-member oracle's swaps
        with its gain bits.  The oracle rebuilds every touched node's total
        member by member, so a swap that patched a total instead would
        move the gains."""
        topo, assignment, traces = _phased_fleet(500, leaves=5)
        config = RemapConfig(level=Level.RPP, max_swaps=50, candidate_nodes=4)
        result = RemappingEngine(config).run(assignment, traces)
        members_by_node = {
            node.name: assignment.instances_under(node.name)
            for node in topo.nodes_at_level(Level.RPP)
            if assignment.instances_under(node.name)
        }
        expected, _ = oracle_remap(members_by_node, traces, config)
        assert result.n_swaps > 0  # the fleet is fragmented enough to swap
        assert result.swaps == expected
        assert [(s.gain_a.hex(), s.gain_b.hex()) for s in result.swaps] == [
            (s.gain_a.hex(), s.gain_b.hex()) for s in expected
        ]

    def test_totals_returned_even_without_swaps(self):
        topo, _, traces = _phased_fleet(20, leaves=2)
        optimal_like = Assignment(
            topo, {i: f"dc/rpp{k % 2}" for k, i in enumerate(traces.ids)}
        )
        engine = RemappingEngine(RemapConfig(level=Level.RPP, max_swaps=0))
        result = engine.run(optimal_like, traces)
        assert result.n_swaps == 0
