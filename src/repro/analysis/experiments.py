"""Per-figure experiment drivers.

One function per table/figure of the paper's evaluation (Sec. 5).  Each
driver returns a structured result the benchmark harness formats into the
same rows/series the paper reports; EXPERIMENTS.md records the
paper-vs-measured comparison.

Datacenter construction is cached per process: the three fleets are shared
by every figure, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.statprof import FIGURE11_CONFIGS, provisioning_comparison
from ..core.clustering import balanced_kmeans
from ..core.asynchrony import score_matrix
from ..core.pipeline import EvaluationReport, SmoothOperator, SmoothOperatorConfig
from ..core.placement import PlacementConfig, WorkloadAwarePlacer
from ..datasets.facebook import (
    Datacenter,
    DatacenterSpec,
    build_datacenter,
    dc1_spec,
    dc2_spec,
    dc3_spec,
)
from ..infra.aggregation import NodePowerView
from ..infra.topology import Level, PowerTopology
from ..reshaping.conversion import ConversionPolicy
from ..reshaping.fleet import derive_demand, describe_fleet
from ..reshaping.lconv import learn_conversion_threshold
from ..engine import Engine, ReshapingComparison, ScenarioSpec
from ..reshaping.throttling import ThrottleBoostPolicy
from ..traces.percentiles import band_summary
from ..traces.service import (
    extract_basis_traces,
    top_power_consumers,
    total_energy_by_service,
)
from ..traces.traceset import TraceSet
from .embedding import TSNEConfig, tsne_embed

# ----------------------------------------------------------------------
# shared context
# ----------------------------------------------------------------------
_DATACENTER_CACHE: Dict[Tuple, Datacenter] = {}

#: Default experiment scale; override per-call for bigger studies.
DEFAULT_N_INSTANCES = 1440
DEFAULT_STEP_MINUTES = 10
DEFAULT_WEEKS = 3


def get_datacenter(
    name: str,
    *,
    n_instances: int = DEFAULT_N_INSTANCES,
    step_minutes: int = DEFAULT_STEP_MINUTES,
    weeks: int = DEFAULT_WEEKS,
) -> Datacenter:
    """Build (or fetch from cache) one of the three datacenters under study."""
    key = (name, n_instances, step_minutes, weeks)
    if key not in _DATACENTER_CACHE:
        spec = _spec_for(name, n_instances)
        _DATACENTER_CACHE[key] = build_datacenter(
            spec, weeks=weeks, step_minutes=step_minutes
        )
    return _DATACENTER_CACHE[key]


def _spec_for(name: str, n_instances: int) -> DatacenterSpec:
    factories = {"DC1": dc1_spec, "DC2": dc2_spec, "DC3": dc3_spec}
    if name not in factories:
        raise ValueError(f"unknown datacenter {name!r}; expected DC1/DC2/DC3")
    return factories[name](n_instances=n_instances)


DATACENTER_NAMES: Tuple[str, ...] = ("DC1", "DC2", "DC3")


# ----------------------------------------------------------------------
# placement study shared by Figures 9-11 and the reshaping experiments
# ----------------------------------------------------------------------
@dataclass
class PlacementStudy:
    """One datacenter optimised and evaluated on the held-out week."""

    datacenter: Datacenter
    optimized: "object"
    report: EvaluationReport

    @property
    def name(self) -> str:
        return self.datacenter.name


_PLACEMENT_CACHE: Dict[Tuple, PlacementStudy] = {}


def run_placement_study(
    dc: Datacenter, *, seed: int = 0, budget_margin: float = 0.0
) -> PlacementStudy:
    """Optimise a datacenter with SmoothOperator and evaluate vs baseline."""
    key = (id(dc), seed, budget_margin)
    if key in _PLACEMENT_CACHE:
        return _PLACEMENT_CACHE[key]
    operator = SmoothOperator(
        SmoothOperatorConfig(placement=PlacementConfig(seed=seed))
    )
    outcome = operator.optimize(dc.records, dc.topology)
    report = operator.evaluate(
        dc.records, dc.baseline, outcome.assignment, budget_margin=budget_margin
    )
    study = PlacementStudy(datacenter=dc, optimized=outcome, report=report)
    _PLACEMENT_CACHE[key] = study
    return study


# ----------------------------------------------------------------------
# Figure 5: top power-consumer breakdown
# ----------------------------------------------------------------------
def run_figure5(dc: Datacenter, *, top: int = 10) -> List[Tuple[str, float]]:
    """Per-service share of total power, largest first (Figure 5)."""
    energy = total_energy_by_service(dc.records)
    total = sum(energy.values())
    return [
        (service, energy[service] / total)
        for service in top_power_consumers(dc.records, top)
    ]


# ----------------------------------------------------------------------
# Figure 6: diurnal percentile bands per service
# ----------------------------------------------------------------------
def run_figure6(
    dc: Datacenter, services: Optional[Sequence[str]] = None
) -> Dict[str, Dict[str, float]]:
    """Percentile-band summaries for representative services (Figure 6)."""
    if services is None:
        present = {record.service for record in dc.records}
        preferred = [
            s
            for s in ("frontend", "web", "db_a", "db", "hadoop", "batchjob")
            if s in present
        ]
        services = preferred[:3] if preferred else sorted(present)[:3]
    result: Dict[str, Dict[str, float]] = {}
    traces = dc.training_traces()
    for service in services:
        ids = [r.instance_id for r in dc.records if r.service == service]
        if not ids:
            raise ValueError(f"service {service!r} not present in {dc.name}")
        subset = traces.subset(ids)
        result[service] = band_summary(subset)
    return result


# ----------------------------------------------------------------------
# Figure 8: clustering in asynchrony space + t-SNE projection
# ----------------------------------------------------------------------
@dataclass
class ClusteringFigure:
    instance_ids: List[str]
    scores: np.ndarray
    labels: np.ndarray
    embedding: np.ndarray
    basis_services: List[str]

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels)


def run_figure8(
    dc: Datacenter,
    *,
    suite_index: int = 0,
    k: int = 6,
    tsne: Optional[TSNEConfig] = None,
    max_points: int = 400,
) -> ClusteringFigure:
    """Cluster one suite's instances and project to 2-D (Figure 8)."""
    suites = dc.topology.nodes_at_level(Level.SUITE)
    if not 0 <= suite_index < len(suites):
        raise IndexError(f"suite {suite_index} out of range")
    suite = suites[suite_index]
    ids = dc.baseline.instances_under(suite.name)
    if len(ids) > max_points:
        ids = ids[:: max(1, len(ids) // max_points)][:max_points]
    records = [r for r in dc.records if r.instance_id in set(ids)]
    traces = TraceSet.from_traces(
        {r.instance_id: r.training_trace for r in records}
    )
    basis = extract_basis_traces(dc.records, 10)
    scores = score_matrix(traces, basis)
    clustering = balanced_kmeans(scores, min(k, len(records)), seed=0)
    config = tsne if tsne is not None else TSNEConfig(n_iter=250, seed=0)
    embedding = tsne_embed(scores, config)
    return ClusteringFigure(
        instance_ids=[r.instance_id for r in records],
        scores=scores,
        labels=clustering.labels,
        embedding=embedding,
        basis_services=list(basis.ids),
    )


# ----------------------------------------------------------------------
# Figure 9: smoothing the children of one mid-level node
# ----------------------------------------------------------------------
@dataclass
class SmoothingFigure:
    node_name: str
    parent_peak_before: float
    parent_peak_after: float
    child_peaks_before: Dict[str, float]
    child_peaks_after: Dict[str, float]
    child_std_before: Dict[str, float]
    child_std_after: Dict[str, float]

    @property
    def sum_child_peaks_before(self) -> float:
        return sum(self.child_peaks_before.values())

    @property
    def sum_child_peaks_after(self) -> float:
        return sum(self.child_peaks_after.values())

    @property
    def child_peak_reduction(self) -> float:
        before = self.sum_child_peaks_before
        if before == 0:
            return 0.0
        return 1.0 - self.sum_child_peaks_after / before


def run_figure9(
    dc: Datacenter, *, level: str = Level.SB, seed: int = 0
) -> SmoothingFigure:
    """Re-place the subtree under one mid-level node and compare children.

    Reproduces Figure 9: the parent's trace is untouched (no instance moves
    into or out of the subtree), while children's traces become smoother
    and more balanced.  The node is chosen as the one with the most local
    de-fragmentation potential — the largest gap between the sum of its
    children's peaks and its own aggregate peak.  (A node whose subtree
    holds a single service block has no local potential: its children are
    already maximally synchronous, and only a cross-subtree move could
    help — which Figure 9 deliberately excludes.)
    """
    baseline_view = NodePowerView(dc.topology, dc.baseline, dc.test_traces())

    def potential(candidate) -> float:
        members = dc.baseline.instances_under(candidate.name)
        if len(members) < 2 or not candidate.children:
            return -1.0
        child_peaks = sum(
            baseline_view.node_peak(child.name) for child in candidate.children
        )
        own_peak = baseline_view.node_peak(candidate.name)
        return (child_peaks - own_peak) / child_peaks if child_peaks > 0 else -1.0

    candidates = dc.topology.nodes_at_level(level)
    node = max(candidates, key=potential)
    member_ids = set(dc.baseline.instances_under(node.name))
    records = [r for r in dc.records if r.instance_id in member_ids]
    if not records:
        raise ValueError(f"node {node.name} supplies no instances")

    subtree = PowerTopology(node)
    placer = WorkloadAwarePlacer(PlacementConfig(seed=seed))
    local = placer.place(records, subtree)

    test = dc.test_traces()
    before_view = NodePowerView(
        subtree,
        _restrict_assignment(dc, subtree, member_ids),
        test.subset([r.instance_id for r in records]),
    )
    after_view = NodePowerView(
        subtree, local.assignment, test.subset([r.instance_id for r in records])
    )

    children = [child.name for child in node.children]
    return SmoothingFigure(
        node_name=node.name,
        parent_peak_before=before_view.node_peak(node.name),
        parent_peak_after=after_view.node_peak(node.name),
        child_peaks_before={c: before_view.node_peak(c) for c in children},
        child_peaks_after={c: after_view.node_peak(c) for c in children},
        child_std_before={
            c: float(before_view.node_trace(c).values.std()) for c in children
        },
        child_std_after={
            c: float(after_view.node_trace(c).values.std()) for c in children
        },
    )


def _restrict_assignment(dc: Datacenter, subtree: PowerTopology, member_ids):
    from ..infra.assignment import Assignment

    mapping = {
        instance_id: dc.baseline.leaf_of(instance_id) for instance_id in member_ids
    }
    return Assignment(subtree, mapping)


# ----------------------------------------------------------------------
# Figure 10: peak reduction per level, per datacenter
# ----------------------------------------------------------------------
def run_figure10(
    names: Sequence[str] = DATACENTER_NAMES, **dc_kwargs
) -> Dict[str, Dict[str, float]]:
    """Per-level sum-of-peaks reduction for each datacenter (Figure 10).

    Also carries the "extra servers hosted" headline under the synthetic
    level key ``"extra_servers"``.
    """
    result: Dict[str, Dict[str, float]] = {}
    for name in names:
        dc = get_datacenter(name, **dc_kwargs)
        study = run_placement_study(dc)
        row = dict(study.report.peak_reduction)
        row["extra_servers"] = study.report.extra_server_fraction
        result[name] = row
    return result


# ----------------------------------------------------------------------
# Figure 11: required budget vs StatProf
# ----------------------------------------------------------------------
def run_figure11(
    name: str, configs=FIGURE11_CONFIGS, **dc_kwargs
) -> Dict[str, Dict[str, float]]:
    """The StatProf / SmoOp provisioning grid for one datacenter."""
    dc = get_datacenter(name, **dc_kwargs)
    study = run_placement_study(dc)
    test = dc.test_traces()
    optimized_view = NodePowerView(
        dc.topology, study.optimized.assignment, test
    )
    return provisioning_comparison(
        study.optimized.assignment, optimized_view, test, configs=configs
    )


# ----------------------------------------------------------------------
# Figures 12-14: dynamic power profile reshaping
# ----------------------------------------------------------------------
@dataclass
class ReshapingStudy:
    """Scenario comparison plus the knobs that produced it."""

    datacenter: Datacenter
    comparison: ReshapingComparison
    conversion_threshold: float
    extra_conversion: int
    extra_throttle_funded: int
    offpeak_mask: np.ndarray

    @property
    def name(self) -> str:
        return self.datacenter.name


_RESHAPING_CACHE: Dict[Tuple, ReshapingStudy] = {}


def run_reshaping_study(
    dc: Datacenter,
    *,
    peak_load: float = 0.85,
    throttle: Optional[ThrottleBoostPolicy] = None,
) -> ReshapingStudy:
    """Run all Sec. 4 scenarios for one datacenter (Figures 12-14)."""
    key = (id(dc), peak_load, id(throttle))
    if key in _RESHAPING_CACHE:
        return _RESHAPING_CACHE[key]
    study = run_placement_study(dc)
    root_budget = dc.topology.root.budget_watts
    if root_budget is None:
        raise RuntimeError("placement study did not provision budgets")

    fleet = describe_fleet(dc.records, budget_watts=root_budget)
    training_demand = derive_demand(dc.records, peak_load=peak_load, use_test=False)
    threshold = learn_conversion_threshold(training_demand, fleet.n_lc)
    conversion = ConversionPolicy(conversion_threshold=threshold)
    throttle = throttle if throttle is not None else ThrottleBoostPolicy()
    engine = Engine(fleet, conversion, throttle=throttle)

    def run(mode: str, demand, **spec_kwargs):
        spec = ScenarioSpec(
            mode=mode,
            fleet=fleet,
            demand=demand,
            conversion=conversion,
            throttle=throttle,
            **spec_kwargs,
        )
        return engine.run(spec).result

    extra = study.report.expansion.total_extra
    e_th = throttle.extra_conversion_servers(
        fleet.n_batch, fleet.batch_model, fleet.lc_model, n_lc=fleet.n_lc
    )

    base_demand = derive_demand(dc.records, peak_load=peak_load, use_test=True)
    grown = base_demand.scaled(1.0 + extra / fleet.n_lc)
    grown_more = base_demand.scaled(1.0 + (extra + e_th) / fleet.n_lc)

    comparison = ReshapingComparison(pre=run("pre", base_demand))
    comparison.scenarios["lc_only"] = run("lc_only", grown, extra_servers=extra)
    comparison.scenarios["conversion"] = run(
        "conversion", grown, extra_servers=extra
    )
    comparison.scenarios["throttle_boost"] = run(
        "throttle_boost", grown_more, extra_servers=extra, extra_throttle_funded=e_th
    )
    # Static strawman with the same fleet size and traffic as throttle_boost:
    # the Figure 14 baseline that isolates dynamic reshaping's slack effect.
    comparison.scenarios["lc_only_matched"] = run(
        "lc_only", grown_more, extra_servers=extra + e_th
    )

    offpeak = ~conversion.lc_heavy_mask(grown, fleet.n_lc)
    result = ReshapingStudy(
        datacenter=dc,
        comparison=comparison,
        conversion_threshold=threshold,
        extra_conversion=extra,
        extra_throttle_funded=e_th,
        offpeak_mask=offpeak,
    )
    _RESHAPING_CACHE[key] = result
    return result


# ----------------------------------------------------------------------
# Power-safety experiment (Sec. 3.2's claim, measured — not a paper figure)
# ----------------------------------------------------------------------
@dataclass
class PowerSafetyStudy:
    """Capping outcomes under a traffic surge, per placement."""

    datacenter: Datacenter
    surge_factor: float
    reports: Dict[str, "object"]

    def lc_shed(self, label: str) -> float:
        return self.reports[label].lc_energy_shed

    def event_steps(self, label: str) -> int:
        return self.reports[label].total_event_steps


def run_power_safety(
    name: str = "DC3",
    *,
    surge_factor: float = 1.25,
    surge_start_hour: float = 12.0,
    surge_end_hour: float = 16.0,
    budget_margin: float = 0.03,
    **dc_kwargs,
) -> PowerSafetyStudy:
    """Measure the paper's power-safety claim (Sec. 3.2).

    "When bursty traffic arrives, the sudden load change is now shared
    among all the power nodes ... decreas[ing] the likelihood of tripping
    the circuit breakers inside certain heavily-loaded power nodes."

    Protocol: budgets are provisioned bottom-up from the *baseline*
    placement's test week plus a small margin; then a surge multiplies the
    latency-critical instances' dynamic power during a daily window, and
    the Dynamo-style capping loop is run under both placements.  The
    workload-aware placement should need less capping — above all, less
    *latency-critical* capping.

    The datacenter comes from :func:`get_datacenter`'s cache, so the
    budgets provisioned for the capping runs are replaced by the ones it
    had before (set by the placement study's evaluation) once they finish.
    """
    from ..engine.capping import CappingSimulator
    from ..infra.budget import preserved_budgets, provision_hierarchical
    from ..traces.instance import ServiceKind
    from ..traces.perturbations import inject_surge

    dc = get_datacenter(name, **dc_kwargs)
    study = run_placement_study(dc)
    test = dc.test_traces()

    lc_ids = [
        r.instance_id for r in dc.records if r.kind == ServiceKind.LATENCY_CRITICAL
    ]
    surged = inject_surge(
        test,
        lc_ids,
        factor=surge_factor,
        start_hour=surge_start_hour,
        end_hour=surge_end_hour,
    )
    kinds = {r.instance_id: r.kind for r in dc.records}

    with preserved_budgets(dc.topology):
        baseline_view = NodePowerView(dc.topology, dc.baseline, test)
        provision_hierarchical(baseline_view, margin=budget_margin)
        reports = {}
        for label, assignment in (
            ("oblivious", dc.baseline),
            ("smoothoperator", study.optimized.assignment),
        ):
            simulator = CappingSimulator(dc.topology, assignment, surged, kinds)
            reports[label] = simulator.run()
    return PowerSafetyStudy(
        datacenter=dc, surge_factor=surge_factor, reports=reports
    )


def run_figure12(name: str = "DC1", **dc_kwargs) -> ReshapingStudy:
    """Conversion time-series study for one datacenter (Figure 12)."""
    return run_reshaping_study(get_datacenter(name, **dc_kwargs))


def run_figure13(
    names: Sequence[str] = DATACENTER_NAMES, **dc_kwargs
) -> Dict[str, Dict[str, float]]:
    """Throughput improvement breakdown (Figure 13).

    Returns, per DC: LC and Batch improvement under conversion alone and
    with proactive throttling and boosting.
    """
    result: Dict[str, Dict[str, float]] = {}
    for name in names:
        study = run_reshaping_study(get_datacenter(name, **dc_kwargs))
        comparison = study.comparison
        result[name] = {
            "lc_conversion": comparison.lc_improvement("conversion"),
            "batch_conversion": comparison.batch_improvement("conversion"),
            "lc_throttle_boost": comparison.lc_improvement("throttle_boost"),
            "batch_throttle_boost": comparison.batch_improvement("throttle_boost"),
        }
    return result


def run_figure14(
    names: Sequence[str] = DATACENTER_NAMES, **dc_kwargs
) -> Dict[str, Dict[str, float]]:
    """Average and off-peak power-slack reduction (Figure 14).

    The reduction isolates *dynamic reshaping* (conversion + throttling/
    boosting): it compares ``throttle_boost`` against a static deployment of
    the same extra servers as LC-specific capacity (``lc_only_matched``).
    The ``vs_pre`` entries additionally report the reduction against the
    original, pre-expansion datacenter.
    """
    result: Dict[str, Dict[str, float]] = {}
    for name in names:
        study = run_reshaping_study(get_datacenter(name, **dc_kwargs))
        comparison = study.comparison
        result[name] = {
            "average": comparison.slack_reduction(
                "throttle_boost", baseline="lc_only_matched"
            ),
            "off_peak": comparison.slack_reduction(
                "throttle_boost", mask=study.offpeak_mask, baseline="lc_only_matched"
            ),
            "average_vs_pre": comparison.slack_reduction("throttle_boost"),
            "off_peak_vs_pre": comparison.slack_reduction(
                "throttle_boost", mask=study.offpeak_mask
            ),
        }
    return result
