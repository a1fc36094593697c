"""Unit tests for scope-restricted placement."""

import pytest

from repro.baselines import oblivious_placement
from repro.core import PlacementConfig, WorkloadAwarePlacer, scoped_placement
from repro.infra import Level, NodePowerView
from repro.traces import InstanceRecord, ServiceInstance, training_trace_set


@pytest.fixture
def config():
    return PlacementConfig(seed=0, kmeans_n_init=2)


class TestScopedPlacement:
    def test_instances_stay_in_their_subtree(self, tiny_records, tiny_topology, config):
        baseline = oblivious_placement(tiny_records, tiny_topology)
        scoped = scoped_placement(tiny_records, baseline, Level.RPP, config)
        for node in tiny_topology.nodes_at_level(Level.RPP):
            before = set(baseline.instances_under(node.name))
            after = set(scoped.instances_under(node.name))
            assert before == after

    def test_places_everything(self, tiny_records, tiny_topology, config):
        baseline = oblivious_placement(tiny_records, tiny_topology)
        scoped = scoped_placement(tiny_records, baseline, Level.SB, config)
        assert len(scoped) == len(tiny_records)

    def test_subtree_peaks_unchanged_at_scope_level(
        self, tiny_records, tiny_topology, config
    ):
        traces = training_trace_set(tiny_records)
        baseline = oblivious_placement(tiny_records, tiny_topology)
        scoped = scoped_placement(tiny_records, baseline, Level.SB, config)
        before = NodePowerView(tiny_topology, baseline, traces)
        after = NodePowerView(tiny_topology, scoped, traces)
        for node in tiny_topology.nodes_at_level(Level.SB):
            assert after.node_peak(node.name) == pytest.approx(
                before.node_peak(node.name)
            )

    def test_improves_below_scope(self, tiny_records, tiny_topology, config):
        traces = training_trace_set(tiny_records)
        baseline = oblivious_placement(tiny_records, tiny_topology)
        scoped = scoped_placement(tiny_records, baseline, Level.SB, config)
        before = NodePowerView(tiny_topology, baseline, traces).sum_of_peaks(Level.RACK)
        after = NodePowerView(tiny_topology, scoped, traces).sum_of_peaks(Level.RACK)
        assert after <= before

    def test_global_at_least_as_good(self, tiny_records, tiny_topology, config):
        """The global placer upper-bounds what scoped placement can do."""
        traces = training_trace_set(tiny_records)
        baseline = oblivious_placement(tiny_records, tiny_topology)
        scoped = scoped_placement(tiny_records, baseline, Level.SB, config)
        global_result = WorkloadAwarePlacer(config).place(tiny_records, tiny_topology)
        scoped_peaks = NodePowerView(tiny_topology, scoped, traces).sum_of_peaks(
            Level.RACK
        )
        global_peaks = NodePowerView(
            tiny_topology, global_result.assignment, traces
        ).sum_of_peaks(Level.RACK)
        assert global_peaks <= scoped_peaks * 1.02

    def test_missing_records_rejected(self, tiny_records, tiny_topology, config):
        baseline = oblivious_placement(tiny_records, tiny_topology)
        with pytest.raises(ValueError):
            scoped_placement(tiny_records[:-1], baseline, Level.SB, config)

    def test_repeated_instance_id_rejected(self, tiny_records, tiny_topology, config):
        """A second record under a placed id once replaced the first one's
        trace without a word."""
        baseline = oblivious_placement(tiny_records, tiny_topology)
        repeated = tiny_records[3].instance_id
        duplicate = InstanceRecord(
            ServiceInstance(repeated, "db"), tiny_records[20].training_trace
        )
        with pytest.raises(ValueError, match=f"duplicate instance id '{repeated}'"):
            scoped_placement(
                [*tiny_records, duplicate], baseline, Level.SB, config
            )
