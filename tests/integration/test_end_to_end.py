"""Integration tests: the full SmoothOperator pipeline on the demo DC."""

import numpy as np
import pytest

from repro.baselines import random_placement
from repro.core import (
    PlacementConfig,
    RemapConfig,
    SmoothOperator,
    SmoothOperatorConfig,
    node_asynchrony_scores,
)
from repro.engine import ScenarioSpec, execute
from repro.infra import BreakerModel, Level, NodePowerView, audit_view
from repro.reshaping import (
    ConversionPolicy,
    derive_demand,
    describe_fleet,
    learn_conversion_threshold,
)
from repro.traces import training_trace_set


@pytest.fixture(scope="module")
def optimized(demo_datacenter):
    operator = SmoothOperator(
        SmoothOperatorConfig(placement=PlacementConfig(seed=0, kmeans_n_init=2))
    )
    outcome = operator.optimize(demo_datacenter.records, demo_datacenter.topology)
    report = operator.evaluate(
        demo_datacenter.records,
        demo_datacenter.baseline,
        outcome.assignment,
        budget_margin=0.05,
    )
    return outcome, report


class TestPlacementEndToEnd:
    def test_rpp_peak_reduction_positive(self, optimized):
        _, report = optimized
        assert report.peak_reduction[Level.RPP] > 0

    def test_reduction_grows_toward_leaves(self, optimized):
        _, report = optimized
        assert (
            report.peak_reduction[Level.DATACENTER]
            <= report.peak_reduction[Level.SB] + 1e-9
        )
        assert report.peak_reduction[Level.SUITE] <= report.peak_reduction[Level.RPP] + 0.02

    def test_hosts_extra_servers(self, optimized):
        _, report = optimized
        assert report.expansion.total_extra > 0

    def test_at_least_as_good_as_random(self, demo_datacenter, optimized):
        """SmoothOperator must match or beat random spreading on average.

        On an easy mix random is a strong de-fragmenter, so the margin can
        be thin; we compare against the mean of several random draws.
        """
        outcome, _ = optimized
        traces = demo_datacenter.test_traces()
        opt_view = NodePowerView(demo_datacenter.topology, outcome.assignment, traces)
        random_peaks = []
        for seed in (5, 6, 7):
            random = random_placement(
                demo_datacenter.records, demo_datacenter.topology, seed=seed
            )
            random_peaks.append(
                NodePowerView(demo_datacenter.topology, random, traces).sum_of_peaks(
                    Level.RPP
                )
            )
        assert opt_view.sum_of_peaks(Level.RPP) <= np.mean(random_peaks) * 1.002

    def test_generalizes_to_test_week(self, demo_datacenter, optimized):
        """Placement derived on training traces must help on the held-out week."""
        outcome, report = optimized
        assert report.peak_reduction[Level.RPP] > 0  # report uses test week

    def test_power_safety_on_test_week(self, demo_datacenter, optimized):
        """Optimised placement must not meaningfully overload any node.

        Sub-hour, few-watt excursions on the held-out week are the domain of
        the production power-capping system the paper explicitly delegates
        to (Sec. 3.6); sustained overloads would be placement failures.
        """
        outcome, _ = optimized
        traces = demo_datacenter.test_traces()
        view = NodePowerView(demo_datacenter.topology, outcome.assignment, traces)
        # Budgets were provisioned (hierarchically) during evaluate().
        trips = audit_view(view, BreakerModel(tolerance_minutes=120))
        for node_trips in trips.values():
            for trip in node_trips:
                budget = demo_datacenter.topology.node(trip.node_name).budget_watts
                assert trip.peak_overload_watts < 0.05 * budget
        assert len(trips) <= 3

    def test_asynchrony_improves(self, demo_datacenter, optimized):
        outcome, _ = optimized
        traces = training_trace_set(demo_datacenter.records)
        base_scores = node_asynchrony_scores(
            demo_datacenter.baseline, traces, Level.RPP
        )
        opt_scores = node_asynchrony_scores(outcome.assignment, traces, Level.RPP)
        assert np.mean(list(opt_scores.values())) > np.mean(list(base_scores.values()))


class TestRemappingEndToEnd:
    def test_remapping_improves_stale_placement(self, demo_datacenter):
        operator = SmoothOperator(
            SmoothOperatorConfig(
                placement=PlacementConfig(seed=0, kmeans_n_init=2),
                remap=RemapConfig(level=Level.RPP, max_swaps=10, candidate_nodes=3),
            )
        )
        outcome = operator.optimize(demo_datacenter.records, demo_datacenter.topology)
        assert outcome.remap is not None
        # Remapping never hurts the placement-level objective.
        traces = training_trace_set(demo_datacenter.records)
        placed = NodePowerView(
            demo_datacenter.topology, outcome.placement.assignment, traces
        ).sum_of_peaks(Level.RPP)
        remapped = NodePowerView(
            demo_datacenter.topology, outcome.assignment, traces
        ).sum_of_peaks(Level.RPP)
        assert remapped <= placed * 1.001


class TestReshapingEndToEnd:
    def test_full_reshaping_flow(self, demo_datacenter, optimized):
        outcome, report = optimized
        budget = demo_datacenter.topology.root.budget_watts
        assert budget is not None

        fleet = describe_fleet(demo_datacenter.records, budget_watts=budget)
        training = derive_demand(demo_datacenter.records, use_test=False)
        threshold = learn_conversion_threshold(training, fleet.n_lc)
        policy = ConversionPolicy(threshold)

        extra = report.expansion.total_extra
        test_demand = derive_demand(demo_datacenter.records, use_test=True)
        grown = test_demand.scaled(1.0 + extra / fleet.n_lc)

        pre = execute(
            ScenarioSpec(mode="pre", fleet=fleet, demand=test_demand, conversion=policy)
        ).result
        conv = execute(
            ScenarioSpec(
                mode="conversion",
                fleet=fleet,
                demand=grown,
                conversion=policy,
                extra_servers=extra,
            )
        ).result
        assert conv.lc_total() > pre.lc_total()
        assert conv.batch_total() >= pre.batch_total()
        assert conv.overload_steps() == 0
        assert pre.overload_steps() == 0
