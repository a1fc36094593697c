"""Unit tests for the workload-aware hierarchical placer (Sec. 3.5)."""

import pytest

from repro.baselines import oblivious_placement
from repro.core import PlacementConfig, WorkloadAwarePlacer
from repro.infra import (
    AssignmentError,
    Level,
    NodePowerView,
    build_topology,
    two_level_spec,
)
from repro.traces import InstanceRecord, ServiceInstance, training_trace_set


@pytest.fixture
def placer():
    return WorkloadAwarePlacer(PlacementConfig(seed=0, kmeans_n_init=2))


class TestBasics:
    def test_places_every_instance(self, placer, tiny_records, tiny_topology):
        result = placer.place(tiny_records, tiny_topology)
        placed = set(result.assignment.instance_ids())
        assert placed == {r.instance_id for r in tiny_records}

    def test_respects_leaf_capacity(self, placer, tiny_records, tiny_topology):
        result = placer.place(tiny_records, tiny_topology)
        for leaf in tiny_topology.leaves():
            members = result.assignment.instances_on_leaf(leaf.name)
            assert len(members) <= leaf.capacity

    def test_balanced_occupancy(self, placer, tiny_records, tiny_topology):
        result = placer.place(tiny_records, tiny_topology)
        occupancy = list(result.assignment.occupancy().values())
        assert max(occupancy) - min(occupancy) <= 2

    def test_rejects_empty(self, placer, tiny_topology):
        with pytest.raises(ValueError):
            placer.place([], tiny_topology)

    def test_rejects_a_repeated_instance_id(self, placer, tiny_records, tiny_topology):
        """A repeated id once made the placer drop records silently: the
        copy shadowed the first record's trace, and every record after it
        took its neighbour's cluster label."""
        records = list(tiny_records)
        repeated = records[3].instance_id
        records[12] = InstanceRecord(
            ServiceInstance(repeated, records[12].service, records[12].kind),
            records[12].training_trace,
        )
        with pytest.raises(ValueError, match=f"duplicate instance id '{repeated}'"):
            placer.place(records, tiny_topology)

    def test_rejects_overflow(self, placer, synthesizer):
        from repro.traces import web_profile

        records = synthesizer.service_instances(web_profile(), 40)
        small = build_topology(two_level_spec("s", leaves=2, leaf_capacity=10))
        with pytest.raises(AssignmentError):
            placer.place(records, small)

    def test_determinism(self, placer, tiny_records, tiny_topology):
        a = placer.place(tiny_records, tiny_topology).assignment.as_mapping()
        b = placer.place(tiny_records, tiny_topology).assignment.as_mapping()
        assert a == b

    def test_basis_services_recorded(self, placer, tiny_records, tiny_topology):
        result = placer.place(tiny_records, tiny_topology)
        assert set(result.basis_services) <= {"web", "cache", "db", "hadoop"}
        assert len(result.basis_services) >= 1

    def test_cluster_labels_recorded(self, placer, tiny_records, tiny_topology):
        result = placer.place(tiny_records, tiny_topology)
        # Diagnostics exist for internal nodes with >1 child.
        assert any(result.cluster_labels.values())


class TestSpreading:
    def test_spreads_services_across_leaves(self, placer, tiny_records, tiny_topology):
        """No leaf should be a service monoculture after placement."""
        result = placer.place(tiny_records, tiny_topology)
        by_id = {r.instance_id: r.service for r in tiny_records}
        monocultures = 0
        for leaf in tiny_topology.leaves():
            members = result.assignment.instances_on_leaf(leaf.name)
            services = {by_id[m] for m in members}
            if len(members) >= 4 and len(services) == 1:
                monocultures += 1
        assert monocultures == 0

    def test_beats_oblivious_on_sum_of_peaks(self, placer, tiny_records, tiny_topology):
        """The core claim: lower leaf-level sum of peaks than grouping."""
        traces = training_trace_set(tiny_records)
        optimized = placer.place(tiny_records, tiny_topology).assignment
        oblivious = oblivious_placement(tiny_records, tiny_topology)
        opt_view = NodePowerView(tiny_topology, optimized, traces)
        obl_view = NodePowerView(tiny_topology, oblivious, traces)
        assert opt_view.sum_of_peaks(Level.RACK) < obl_view.sum_of_peaks(Level.RACK)

    def test_root_peak_unchanged(self, placer, tiny_records, tiny_topology):
        """Placement cannot change the datacenter-level aggregate."""
        traces = training_trace_set(tiny_records)
        optimized = placer.place(tiny_records, tiny_topology).assignment
        oblivious = oblivious_placement(tiny_records, tiny_topology)
        opt_root = NodePowerView(tiny_topology, optimized, traces).node_peak(
            tiny_topology.root.name
        )
        obl_root = NodePowerView(tiny_topology, oblivious, traces).node_peak(
            tiny_topology.root.name
        )
        assert opt_root == pytest.approx(obl_root)


class TestConfig:
    def test_invalid_top_m(self):
        with pytest.raises(ValueError):
            PlacementConfig(top_m_services=0)

    def test_invalid_clusters_per_child(self):
        with pytest.raises(ValueError):
            PlacementConfig(clusters_per_child=0)

    def test_global_basis_mode(self, tiny_records, tiny_topology):
        placer = WorkloadAwarePlacer(
            PlacementConfig(seed=0, rebuild_basis_per_node=False, kmeans_n_init=2)
        )
        result = placer.place(tiny_records, tiny_topology)
        assert len(result.assignment) == len(tiny_records)

    def test_single_child_chain(self, tiny_records):
        """A degenerate tree with one child per level still places."""
        from repro.infra import LevelSpec, TopologySpec

        topo = build_topology(
            TopologySpec(
                name="chain",
                levels=(
                    LevelSpec(Level.SUITE, 1),
                    LevelSpec(Level.RPP, 1),
                    LevelSpec(Level.RACK, 4),
                ),
                leaf_capacity=8,
            )
        )
        placer = WorkloadAwarePlacer(PlacementConfig(seed=0, kmeans_n_init=2))
        result = placer.place(tiny_records, topo)
        assert len(result.assignment) == len(tiny_records)

    def test_more_instances_than_clusters(self, synthesizer):
        """n < q children: some children legitimately receive nothing."""
        from repro.traces import web_profile

        records = synthesizer.service_instances(web_profile(), 3)
        topo = build_topology(two_level_spec("wide", leaves=8, leaf_capacity=4))
        placer = WorkloadAwarePlacer(PlacementConfig(seed=0, kmeans_n_init=2))
        result = placer.place(records, topo)
        assert len(result.assignment) == 3
