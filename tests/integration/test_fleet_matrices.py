"""The synthesized fleet's two matrices: read in place, copied on request.

:meth:`TraceSynthesizer.fleet` writes every record's training week and test
week into one read-only ``(n, T)`` matrix each, and the plan pass (placer,
remap, evaluate) reads those instead of copying the fleet.  Any other
sequence of records takes the copy path, and must decide exactly as the
fleet path does.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import RemapConfig, SmoothOperator, SmoothOperatorConfig
from repro.core.placement import PlacementConfig
from repro.datasets.facebook import build_datacenter, dc3_spec
from repro.infra import Level
from repro.infra.budget import preserved_budgets
from repro.traces import test_trace_set as heldout_trace_set
from repro.traces import (
    Fleet,
    TraceSynthesizer,
    fleet_trace_set,
    training_trace_set,
    web_profile,
)


@pytest.fixture(scope="module")
def dc():
    """DC3 at 2,000 instances and 30-minute steps."""
    return build_datacenter(dc3_spec(n_instances=2000), weeks=3, step_minutes=30)


def operator():
    return SmoothOperator(
        SmoothOperatorConfig(
            placement=PlacementConfig(seed=0),
            remap=RemapConfig(level=Level.RPP, max_swaps=30),
        )
    )


class TestContract:
    def test_fleet_matrices_are_read_only(self, dc):
        assert isinstance(dc.records, Fleet)
        for traces in (dc.training_traces(), dc.test_traces()):
            assert not traces.matrix.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                traces.matrix[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            dc.records[0].training_trace.values[0] = 1.0

    def test_datacenter_hands_out_the_fleet_sets(self, dc):
        assert dc.training_traces() is dc.records.training
        assert dc.test_traces() is dc.records.test
        assert fleet_trace_set(dc.records) is dc.records.training
        assert fleet_trace_set(dc.records, test=True) is dc.records.test

    def test_every_record_views_its_row(self, dc):
        training, test = dc.training_traces(), dc.test_traces()
        assert training.ids == test.ids == [r.instance_id for r in dc.records]
        for row, record in enumerate(dc.records):
            assert np.shares_memory(record.training_trace.values, training.matrix[row])
            assert np.shares_memory(record.test_trace.values, test.matrix[row])

    @pytest.mark.parametrize(
        "copy, trace_of",
        [
            (training_trace_set, lambda record: record.training_trace),
            (heldout_trace_set, lambda record: record.test_trace),
        ],
        ids=["training", "test"],
    )
    def test_copy_constructors_return_writable_copies(self, dc, copy, trace_of):
        before = [trace_of(record).values.copy() for record in dc.records]
        traces = copy(dc.records)
        assert traces.matrix.flags.writeable
        traces.matrix[...] = 0.0
        for record, values in zip(dc.records, before):
            assert np.array_equal(trace_of(record).values, values)

    def test_any_other_sequence_is_copied(self, dc):
        records = dc.records[:10]
        assert isinstance(records, list)
        traces = fleet_trace_set(records)
        assert traces.matrix.flags.writeable
        assert not np.shares_memory(traces.matrix, dc.training_traces().matrix)
        assert np.array_equal(traces.matrix, dc.training_traces().matrix[:10])

    def test_a_fleet_without_a_held_out_week(self):
        fleet = TraceSynthesizer(weeks=2, step_minutes=60, seed=3).fleet(
            [(web_profile(), 5)], test_weeks=0
        )
        assert fleet.test is None
        assert not fleet.training.matrix.flags.writeable
        with pytest.raises(ValueError, match="records without test traces"):
            fleet_trace_set(fleet, test=True)


class TestEquivalence:
    def test_copy_path_decides_like_the_fleet_path(self, dc):
        """A plain list of the same records gives the same plan, bit for bit."""
        outcomes, reports = [], []
        with preserved_budgets(dc.topology):
            for records in (dc.records, list(dc.records)):
                outcome = operator().optimize(records, dc.topology)
                outcomes.append(outcome)
                reports.append(
                    SmoothOperator.evaluate(records, dc.baseline, outcome.assignment)
                )
        fleet, copied = outcomes
        assert list(fleet.assignment.as_mapping().items()) == list(
            copied.assignment.as_mapping().items()
        )
        assert fleet.placement.cluster_labels == copied.placement.cluster_labels
        assert fleet.remap.swaps == copied.remap.swaps
        assert reports[0] == reports[1]


class TestMemory:
    def test_plan_pass_peaks_below_one_training_matrix(self, dc):
        """optimize with an RPP remap, then evaluate, over the fleet itself.

        Copying the fleet's training weeks for the placer and the remap, and
        its test weeks for evaluate, took one matrix of this size each, and
        the pass peaked at 1.55 matrices.  Read in place, it peaks at 0.52.
        """
        matrix_bytes = dc.training_traces().matrix.nbytes
        with preserved_budgets(dc.topology):
            plan = operator()
            gc.collect()
            tracemalloc.start()
            try:
                outcome = plan.optimize(dc.records, dc.topology)
                plan.evaluate(dc.records, dc.baseline, outcome.assignment)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < matrix_bytes, peak / matrix_bytes
