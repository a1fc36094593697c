"""Property-based tests for remapping and monitoring invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import obs
from repro.analysis import FragmentationMonitor, MonitorConfig
from repro.core import RemapConfig, RemappingEngine, differential_scores_for_node
from repro.core.asynchrony import differential_rows
from repro.core.metrics import AsynchronyIndex
from repro.core.remapping import Swap, _NodeGroup
from repro.engine.delta import PlacementState
from repro.infra import Assignment, Level, NodePowerView, build_topology, two_level_spec
from repro.traces import TimeGrid, TraceSet

GRID = TimeGrid(0, 60, 24)


# ----------------------------------------------------------------------
# oracle: the per-member swap loop the block kernel replaced
# ----------------------------------------------------------------------
class _OracleGroup:
    """A node's members, its ``total += row`` aggregate, and every score
    computed one member at a time."""

    def __init__(self, name, members, traces):
        self.name = name
        self.members = list(members)
        self.recompute(traces)

    def recompute(self, traces):
        total = np.zeros(traces.grid.n_samples)
        for instance_id in self.members:
            total += traces.row(instance_id)
        self.total = total
        if not self.members:
            self.asynchrony = 1.0
        else:
            sum_peaks = sum(float(traces.row(i).max()) for i in self.members)
            aggregate_peak = float(total.max())
            self.asynchrony = sum_peaks / aggregate_peak if aggregate_peak > 0 else 1.0
        self.diffs = {
            instance_id: self.differential(traces.row(instance_id), instance_id, traces)
            for instance_id in self.members
        }

    def differential(self, instance_values, exclude, traces):
        rest_total = self.total.copy()
        count = len(self.members)
        if exclude is not None:
            rest_total -= traces.row(exclude)
            count -= 1
        if count <= 0:
            return 2.0
        rest = rest_total / count
        combined_peak = float((instance_values + rest).max())
        numerator = float(instance_values.max()) + float(rest.max())
        return numerator / combined_peak if combined_peak > 0 else 1.0

    def swap_member(self, outgoing, incoming, traces):
        self.members.remove(outgoing)
        self.members.append(incoming)
        self.recompute(traces)


def oracle_best_swap(groups, traces, config):
    """One Sec. 3.6 step, candidate by candidate; (swap or None, evaluated)."""
    ranked = sorted(groups.values(), key=lambda g: g.asynchrony)
    worst = ranked[0]
    evaluated = 0
    if len(worst.members) < 2:
        return None, evaluated
    outgoing = min(worst.diffs.items(), key=lambda item: item[1])[0]
    outgoing_values = traces.row(outgoing)
    outgoing_score_here = worst.diffs[outgoing]
    partners = [g for g in reversed(ranked) if g.name != worst.name]
    for partner in partners[: config.candidate_nodes]:
        if len(partner.members) < 2:
            continue
        scored = sorted((score, i) for i, score in partner.diffs.items())
        for _, incoming in scored[: config.candidate_instances]:
            evaluated += 1
            gain_worst = (
                worst.differential(traces.row(incoming), outgoing, traces)
                - outgoing_score_here
            )
            gain_partner = (
                partner.differential(outgoing_values, incoming, traces)
                - partner.diffs[incoming]
            )
            if gain_worst > config.min_improvement and gain_partner > config.min_improvement:
                swap = Swap(
                    outgoing, worst.name, incoming, partner.name, gain_worst, gain_partner
                )
                return swap, evaluated
    return None, evaluated


def oracle_remap(members_by_node, traces, config):
    """The whole swap loop on one shard; (swaps, candidates evaluated)."""
    groups = {
        name: _OracleGroup(name, members, traces)
        for name, members in members_by_node.items()
    }
    swaps, evaluated = [], 0
    if len(groups) < 2:
        return swaps, evaluated
    for _ in range(config.max_swaps):
        swap, step_evaluated = oracle_best_swap(groups, traces, config)
        evaluated += step_evaluated
        if swap is None:
            break
        groups[swap.node_a].swap_member(swap.instance_a, swap.instance_b, traces)
        groups[swap.node_b].swap_member(swap.instance_b, swap.instance_a, traces)
        swaps.append(swap)
    return swaps, evaluated


# ----------------------------------------------------------------------
# strategies and properties
# ----------------------------------------------------------------------
@st.composite
def remap_scenes(draw):
    """A random fleet on a random 2-4 leaf topology, contiguously placed."""
    leaves = draw(st.integers(2, 4))
    per_leaf = draw(st.integers(2, 4))
    n = leaves * per_leaf
    matrix = draw(
        hnp.arrays(
            dtype=np.float64,
            shape=(n, 24),
            elements=st.floats(0.1, 100, allow_nan=False, allow_infinity=False),
        )
    )
    topo = build_topology(two_level_spec("r", leaves=leaves, leaf_capacity=per_leaf))
    ids = [f"i{k}" for k in range(n)]
    traces = TraceSet(GRID, ids, matrix)
    leaf_names = topo.leaf_names()
    mapping = {ids[k]: leaf_names[k // per_leaf] for k in range(n)}
    return topo, Assignment(topo, mapping), traces


@st.composite
def swap_loop_scenes(draw):
    """Uneven leaves (one- and two-member groups included) on a 1-, 2-, 5-
    or 24-sample grid, with random, phase-shifted, tied, identical or
    all-zero traces.  Values come from a drawn seed, so that many scenes
    are fragmented enough for the loop to accept swaps."""
    n_samples = draw(st.sampled_from([1, 2, 5, 24, 24]))
    sizes = draw(st.lists(st.integers(2, 6), min_size=2, max_size=5))
    if draw(st.sampled_from([False, False, False, False, True])):
        # A one-member node scores 1.0, the floor, so it ranks worst and
        # halts the loop: only one scene in five has one.
        sizes.append(1)
    n = sum(sizes)
    kind = draw(
        st.sampled_from(["uniform", "phased", "phased", "pool", "identical", "zeros"])
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        matrix = rng.uniform(0, 100, (n, n_samples))
    elif kind == "phased":
        t = np.arange(n_samples) / n_samples
        phases = rng.choice([0.0, 0.25, 0.5, 0.75], (n, 1))
        noise = rng.uniform(0, 0.5, (n, n_samples))
        matrix = 5 + 4 * np.sin(2 * np.pi * (t + phases)) + noise
    elif kind == "pool":
        matrix = rng.choice([0.0, 0.5, 1.0, 3.25], (n, n_samples))
    elif kind == "identical":
        matrix = np.tile(rng.uniform(0, 100, n_samples), (n, 1))
    else:
        matrix = np.zeros((n, n_samples))
    topo = build_topology(
        two_level_spec("r", leaves=len(sizes), leaf_capacity=max(sizes))
    )
    ids = [f"i{k}" for k in range(n)]
    leaf_names = topo.leaf_names()
    mapping = {}
    for leaf, size in zip(leaf_names, sizes):
        for _ in range(size):
            mapping[ids[len(mapping)]] = leaf
    traces = TraceSet(TimeGrid(0, 60, n_samples), ids, matrix)
    config = RemapConfig(
        level=Level.RPP,
        max_swaps=draw(st.integers(1, 12)),
        candidate_nodes=draw(st.integers(1, 4)),
        candidate_instances=draw(st.integers(1, 6)),
        min_improvement=draw(st.sampled_from([0.0, 1e-3, 0.05])),
    )
    return topo, Assignment(topo, mapping), traces, config


class TestSwapLoopMatchesPerMemberOracle:
    @given(scene=swap_loop_scenes())
    @settings(max_examples=150, deadline=None)
    def test_same_swaps_gains_and_counts(self, scene):
        """The block kernel accepts the swaps the per-member loop accepts,
        in the same order, with bit-identical gains, after evaluating the
        same number of candidates."""
        topo, assignment, traces, config = scene
        members_by_node = {
            node.name: assignment.instances_under(node.name)
            for node in topo.nodes_at_level(Level.RPP)
            if assignment.instances_under(node.name)
        }
        expected, evaluated = oracle_remap(members_by_node, traces, config)
        with obs.tracing() as tracer:
            result = RemappingEngine(config).run(assignment, traces)
        counters = tracer.find("remap").counters
        assert result.swaps == expected
        assert [(s.gain_a.hex(), s.gain_b.hex()) for s in result.swaps] == [
            (s.gain_a.hex(), s.gain_b.hex()) for s in expected
        ]
        assert counters.get("remap.candidates_evaluated", 0) == evaluated
        assert counters.get("remap.swaps_accepted", 0) == len(expected)


@st.composite
def node_groups(draw):
    """One node of 0-20 members out of a 24-row fleet, on a 1-, 2-, 5- or
    24-sample grid; random, tied, identical or all-zero rows.  Sizes of 8
    and more are where numpy's pairwise sum of a one-sample column would
    differ from the sequential total."""
    n_samples = draw(st.sampled_from([1, 1, 2, 5, 24]))
    kind = draw(st.sampled_from(["uniform", "uniform", "pool", "identical", "zeros"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        matrix = rng.uniform(0, 100, (24, n_samples)) * rng.uniform(0, 1, (24, 1))
    elif kind == "pool":
        matrix = rng.choice([0.0, 0.5, 1.0, 3.25], (24, n_samples))
    elif kind == "identical":
        matrix = np.tile(rng.uniform(0, 100, n_samples), (24, 1))
    else:
        matrix = np.zeros((24, n_samples))
    ids = [f"i{k}" for k in range(24)]
    traces = TraceSet(TimeGrid(0, 60, n_samples), ids, matrix)
    order = draw(st.permutations(ids))
    members = order[: draw(st.sampled_from([0, 1, 2, 3, 5, 8, 13, 20]))]
    return traces, members, order[-1]


class TestNodeGroupMatchesPerMemberOracle:
    @given(node_groups())
    @settings(max_examples=150, deadline=None)
    def test_block_scores_match_member_loop(self, scene):
        """Total, asynchrony, every self-differential (also through
        ``differential_scores_for_node``), the candidate rank and one-row
        differentials of the kernel the swap loop calls keep the
        per-member loop's bits."""
        traces, members, outsider = scene
        rows = [traces.index_of(instance_id) for instance_id in members]
        group = _NodeGroup("n", members, rows, traces.matrix)
        oracle = _OracleGroup("n", members, traces)
        assert group.total.tobytes() == oracle.total.tobytes()
        assert group.asynchrony().hex() == oracle.asynchrony.hex()
        diffs = group.self_differentials().tolist()
        assert [d.hex() for d in diffs] == [oracle.diffs[i].hex() for i in members]
        ranked = [members[k] for k in group.ranked()]
        assert ranked == [i for _, i in sorted((s, i) for i, s in oracle.diffs.items())]
        if len(members) >= 2:
            node_scores = differential_scores_for_node(traces.subset(members))
            assert [node_scores[i].hex() for i in members] == [d.hex() for d in diffs]
        values = traces.row(outsider)
        for exclude in [None, *members[:2]]:
            excluded = 0.0 if exclude is None else traces.row(exclude)
            count = len(members) - (exclude is not None)
            [score] = differential_rows(
                values[None, :], values.max(), group.total, excluded, count
            ).tolist()
            assert score.hex() == oracle.differential(values, exclude, traces).hex()


class TestRemappingInvariants:
    @given(scene=remap_scenes(), max_swaps=st.integers(0, 10))
    @settings(max_examples=25, deadline=None)
    def test_preserves_fleet_and_capacity(self, scene, max_swaps):
        topo, assignment, traces = scene
        engine = RemappingEngine(RemapConfig(level=Level.RPP, max_swaps=max_swaps))
        result = engine.run(assignment, traces)
        # Same instances, nothing lost or duplicated.
        assert sorted(result.assignment.instance_ids()) == sorted(
            assignment.instance_ids()
        )
        # Capacity still honoured everywhere.
        for leaf in topo.leaves():
            assert (
                len(result.assignment.instances_on_leaf(leaf.name)) <= leaf.capacity
            )

    @given(scene=remap_scenes())
    @settings(max_examples=25, deadline=None)
    def test_swaps_preserve_per_leaf_counts(self, scene):
        """Swaps exchange instances 1:1: occupancies never change."""
        topo, assignment, traces = scene
        engine = RemappingEngine(RemapConfig(level=Level.RPP, max_swaps=8))
        result = engine.run(assignment, traces)
        assert result.assignment.occupancy() == assignment.occupancy()

    @given(scene=remap_scenes())
    @settings(max_examples=20, deadline=None)
    def test_total_power_invariant(self, scene):
        topo, assignment, traces = scene
        engine = RemappingEngine(RemapConfig(level=Level.RPP, max_swaps=8))
        result = engine.run(assignment, traces)
        before = NodePowerView(topo, assignment, traces).node_trace(topo.root.name)
        after = NodePowerView(topo, result.assignment, traces).node_trace(
            topo.root.name
        )
        assert np.allclose(before.values, after.values)


class TestMonitorInvariants:
    @given(scene=remap_scenes(), tolerance=st.floats(0.01, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_observing_calibration_traces_is_healthy(self, scene, tolerance):
        """Identical telemetry can never raise a sum-of-peaks advisory."""
        topo, assignment, traces = scene
        state = PlacementState(topo, traces, assignment)
        view = state.register(NodePowerView(topo, assignment, traces))
        index = state.register(AsynchronyIndex(view, Level.RPP))
        monitor = FragmentationMonitor(
            index,
            MonitorConfig(sum_of_peaks_tolerance=tolerance, min_asynchrony=1.0),
        )
        state.update_traces(*traces.ids)
        snapshot = monitor.observe("same")
        assert snapshot.healthy
