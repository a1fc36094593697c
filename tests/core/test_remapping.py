"""Unit tests for the differential-score swap loop (Sec. 3.6)."""

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.baselines import oblivious_placement
from repro.core import (
    RemapConfig,
    RemappingEngine,
    node_asynchrony_scores,
)
from repro.core.remapping import RECOMPUTE_EVERY, _NodeGroup
from repro.infra import Assignment, Level, NodePowerView, build_topology, two_level_spec
from repro.traces import TimeGrid, TraceSet, training_trace_set


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
    def test_empty_rest_differential_is_two(self):
        """A one-member group with that member excluded scores the AD limit,
        2.0 — inside the [1, 2] range, not an out-of-range sentinel."""
        grid = TimeGrid(0, 60, 24)
        traces = TraceSet(grid, ["solo", "other"], np.ones((2, 24)))
        group = _NodeGroup("n", ["solo"], traces)
        score = group.differential(traces.row("other"), exclude="solo", traces=traces)
        assert score == 2.0

    def test_empty_group_differential_is_two(self):
        grid = TimeGrid(0, 60, 24)
        traces = TraceSet(grid, ["a"], np.ones((1, 24)))
        group = _NodeGroup("n", [], traces)
        assert group.differential(traces.row("a"), exclude=None, traces=traces) == 2.0

    def test_differential_stays_in_range(self):
        """The empty-rest value must not beat a genuinely good partner: AD is
        bounded by 2, so 2.0 ties the optimum instead of dominating it."""
        grid = TimeGrid(0, 60, 24)
        up = np.linspace(0, 10, 24)
        down = np.linspace(10, 0, 24)
        traces = TraceSet(grid, ["u", "d"], np.vstack([up, down]))
        group = _NodeGroup("n", ["u"], traces)
        anti_phase = group.differential(traces.row("d"), exclude=None, traces=traces)
        empty = group.differential(traces.row("d"), exclude="u", traces=traces)
        assert 1.0 <= anti_phase <= 2.0
        assert empty <= 2.0 + 1e-12

    def test_swap_member_is_exact(self):
        """Every swap rebuilds the aggregate from member rows: after any
        number of swaps the total equals the exact sum bit-for-bit."""
        rng = np.random.default_rng(0)
        grid = TimeGrid(0, 60, 24)
        ids = [f"x{k}" for k in range(4)]
        traces = TraceSet(grid, ids, rng.random((4, 24)))
        group = _NodeGroup("n", ["x0", "x1"], traces)
        for k in range(RECOMPUTE_EVERY):
            outgoing = group.members[0]
            incoming = next(i for i in ids if i not in group.members)
            group.swap_member(outgoing, incoming, traces)
            exact = np.zeros(grid.n_samples)
            for i in group.members:
                exact += traces.row(i)
            assert np.array_equal(group.total, exact)

    def test_verify_knob_passes_on_exact_state(self):
        """The opt-in verify harness accepts exactly-maintained groups and
        rejects a tampered aggregate."""
        grid = TimeGrid(0, 60, 24)
        rng = np.random.default_rng(1)
        ids = [f"x{k}" for k in range(4)]
        traces = TraceSet(grid, ids, rng.random((4, 24)))
        group = _NodeGroup("n", ["x0", "x1"], traces)
        group.swap_member("x0", "x2", traces)
        group.verify(traces)  # exact state: no raise
        group.total[0] += 1.0
        with pytest.raises(RuntimeError, match="diverged"):
            group.verify(traces)

    def test_verify_every_runs_during_swap_loop(self, fragmented):
        """verify_every periodically cross-checks the touched groups; with
        exact swap application the loop result is unchanged."""
        topo, assignment, traces = fragmented
        baseline = RemappingEngine(RemapConfig(level=Level.RPP)).run(
            assignment, traces
        )
        verified = RemappingEngine(
            RemapConfig(level=Level.RPP, verify_every=1)
        ).run(assignment, traces)
        assert [
            (s.instance_a, s.instance_b) for s in verified.swaps
        ] == [(s.instance_a, s.instance_b) for s in baseline.swaps]
        assert verified.assignment.as_mapping() == baseline.assignment.as_mapping()

    def test_verify_every_validation(self):
        with pytest.raises(ValueError):
            RemapConfig(level=Level.RPP, verify_every=0)

    def test_swap_member_tracks_membership(self):
        grid = TimeGrid(0, 60, 24)
        traces = TraceSet(grid, ["a", "b", "c"], np.ones((3, 24)))
        group = _NodeGroup("n", ["a", "b"], traces)
        group.swap_member("a", "c", traces)
        assert sorted(group.members) == ["b", "c"]


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
        """Regression for incremental float drift: with ``verify_every=1``,
        every swap of max_swaps=50 on a 500-instance fleet cross-checks both
        touched node aggregates against a from-scratch recompute, bit for
        bit, and the verified run decides exactly what the plain one does."""
        topo, assignment, traces = _phased_fleet(500, leaves=5)
        config = RemapConfig(level=Level.RPP, max_swaps=50, candidate_nodes=4)
        plain = RemappingEngine(config).run(assignment, traces)
        with obs.tracing() as tracer:
            verified = RemappingEngine(replace(config, verify_every=1)).run(
                assignment, traces
            )
        assert verified.n_swaps > 0  # the fleet is fragmented enough to swap
        counters = tracer.find("remap").counters
        assert counters["remap.verifications"] == 2 * verified.n_swaps
        assert verified.swaps == plain.swaps
        assert verified.assignment.as_mapping() == plain.assignment.as_mapping()

    def test_totals_returned_even_without_swaps(self):
        topo, _, traces = _phased_fleet(20, leaves=2)
        optimal_like = Assignment(
            topo, {i: f"dc/rpp{k % 2}" for k, i in enumerate(traces.ids)}
        )
        engine = RemappingEngine(RemapConfig(level=Level.RPP, max_swaps=0))
        result = engine.run(optimal_like, traces)
        assert result.n_swaps == 0
