"""Per-layer tracing from outside the program.

The program is not edited: :meth:`SpanRecorder.installed` replaces each
public function in :data:`TARGETS` with a wrapper *at the name its callers
resolve* (``repro.core.placement.score_matrix``, not the definition in
``repro.core.asynchrony``), and restores the originals on exit.  Spans
(name, start, end, parent, CPU start, CPU end) are kept in memory and
written to ``trace.json`` at the end of the run.

A layer is the first component of a span name.  A layer's self time is the
time its spans cover minus the part their child spans cover; the benchmark's
own root spans (``bench.*``) hold whatever no wrapped call covers.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: (module, class or None, attribute, span name).  Attributes that another
#: module imports by name are patched in the importing module, which is the
#: binding its calls look up.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.traces.synthesis", "TraceSynthesizer", "fleet", "traces.synthesize"),
    ("repro.traces.traceset", "TraceSet", "from_traces", "traces.traceset"),
    ("repro.core.placement", None, "extract_basis_traces", "traces.basis"),
    ("repro.core.pipeline", "SmoothOperator", "optimize", "core.optimize"),
    ("repro.core.pipeline", "SmoothOperator", "evaluate", "core.evaluate"),
    ("repro.core.placement", "WorkloadAwarePlacer", "place", "core.place"),
    ("repro.core.placement", None, "score_matrix", "core.score"),
    ("repro.core.placement", None, "balanced_kmeans", "core.cluster"),
    ("repro.core.remapping", "RemappingEngine", "run", "core.remap"),
    ("repro.core.metrics", "AsynchronyIndex", "__init__", "core.index"),
    ("repro.core.metrics", "AsynchronyIndex", "apply_delta", "core.index"),
    ("repro.core.metrics", "AsynchronyIndex", "scores", "core.index_read"),
    ("repro.infra.assignment", "Assignment", "__init__", "infra.assignment"),
    ("repro.infra.aggregation", "NodePowerView", "__init__", "infra.view_build"),
    ("repro.infra.aggregation", "NodePowerView", "apply_delta", "infra.view_delta"),
    ("repro.core.pipeline", None, "provision_hierarchical", "infra.provision"),
    ("repro.infra.budget", None, "provision_hierarchical", "infra.provision"),
    ("repro.core.pipeline", None, "plan_expansion", "infra.expansion"),
    ("repro.core.pipeline", None, "peak_reduction_by_level", "infra.peak_reduction"),
    ("repro.infra.headroom", "HeadroomIndex", "__init__", "infra.headroom"),
    # PlacementState calls ``apply_delta``, a class-body alias of ``apply``.
    ("repro.infra.headroom", "HeadroomIndex", "apply_delta", "infra.headroom"),
    ("repro.infra.headroom", "HeadroomIndex", "headroom", "infra.headroom_read"),
    ("repro.engine.core", "Engine", "run", "engine.reshape_run"),
    ("repro.engine.parallel", "WorkerPool", "map_shards", "engine.pool"),
    ("repro.engine.parallel", "WorkerPool", "warm", "engine.pool_warm"),
    ("repro.engine.delta", "PlacementState", "__init__", "engine.state_init"),
    ("repro.engine.delta", "PlacementState", "apply", "engine.delta_apply"),
    ("repro.reshaping.fleet", None, "describe_fleet", "reshaping.describe"),
    ("repro.reshaping.fleet", None, "derive_demand", "reshaping.demand"),
    ("repro.reshaping.lconv", None, "learn_conversion_threshold", "reshaping.lconv"),
)

#: Wrapped span ↔ the span the program itself opens inside that call; the
#: traced pass checks that both time the same work (within 5%).
OBS_TWINS = {
    "core.place": "place",
    "core.score": "score",
    "core.cluster": "cluster",
    "core.remap": "remap",
    "core.evaluate": "pipeline.evaluate",
}
OBS_TOLERANCE = 0.05

ALL = ("fig10-dc3", "fleet-dc3", "adapt-dc3-pool", "churn-dc3")
PLAN = ("fig10-dc3", "fleet-dc3")

#: Every per-layer metric → (end-to-end metric it should move, on which
#: workloads).  ``None``: trace health, moves nothing.
SHOULD_MOVE: Dict[str, Optional[Tuple[str, Tuple[str, ...]]]] = {
    "traces.self_s": ("setup_s", ALL),
    "traces.self_cpu_s": ("setup_s", ALL),
    "traces.synthesize_s": ("setup_s", ALL),
    "traces.synthesize_cpu_s": ("setup_s", ALL),
    "traces.traceset_s": ("pass_s", PLAN),
    "traces.traceset_cpu_s": ("pass_s", PLAN),
    "traces.basis_calls": ("pass_s", PLAN),
    "core.self_s": ("pass_s", ALL),
    "core.self_cpu_s": ("pass_s", ALL),
    "core.score_calls": ("pass_s", ("fig10-dc3",)),
    "core.score_pairs": ("pass_s", PLAN),
    "core.cluster_calls": ("pass_s", ("fig10-dc3",)),
    "core.lloyd_iterations": ("pass_s", ("fleet-dc3",)),
    "core.balance_rounds": ("pass_s", ("fleet-dc3",)),
    "core.remap_candidates": ("pass_s", ("adapt-dc3-pool",)),
    "core.remap_swaps": ("rpp_peak_reduction", ("adapt-dc3-pool", "fleet-dc3")),
    "core.remap_accept_ratio": ("pass_s", ("adapt-dc3-pool",)),
    "infra.self_s": ("pass_s", ("fleet-dc3", "churn-dc3")),
    "infra.self_cpu_s": ("pass_s", ("fleet-dc3", "churn-dc3")),
    "infra.assignment_s": ("pass_s", ("fleet-dc3", "adapt-dc3-pool")),
    "infra.assignment_cpu_s": ("pass_s", ("fleet-dc3", "adapt-dc3-pool")),
    "infra.assignment_calls": ("pass_s", ("adapt-dc3-pool",)),
    "infra.view_build_s": ("pass_s", ("fleet-dc3",)),
    "infra.view_build_cpu_s": ("pass_s", ("fleet-dc3",)),
    "infra.view_build_calls": ("pass_s", ("fleet-dc3",)),
    "infra.view_nodes_recomputed": ("pass_s", ("churn-dc3",)),
    "infra.provision_s": ("pass_s", ("fig10-dc3",)),
    "infra.provision_cpu_s": ("pass_s", ("fig10-dc3",)),
    "engine.self_s": ("pass_s", ("churn-dc3", "adapt-dc3-pool", "fig10-dc3")),
    "engine.self_cpu_s": ("pass_s", ("churn-dc3", "adapt-dc3-pool", "fig10-dc3")),
    "engine.reshape_runs": ("pass_s", ("fig10-dc3",)),
    "engine.pool_tasks": ("pass_s", ("adapt-dc3-pool",)),
    "engine.pool_retries": ("pass_s", ("adapt-dc3-pool",)),
    "reshaping.calls": ("pass_s", ("fig10-dc3",)),
    "bench.trace_overhead_frac": None,
    "bench.layer_coverage_frac": None,
}

#: Layers whose self time is reported (each is busy in every workload).
REPORTED_LAYERS = ("traces", "core", "infra", "engine")
#: Wrapped calls whose own time is a metric (``<span>_s``, ``<span>_cpu_s``).
NAMED_TIMES = (
    "traces.synthesize",
    "traces.traceset",
    "infra.assignment",
    "infra.view_build",
    "infra.provision",
)
CALLS = {
    "traces.basis_calls": ("traces.basis",),
    "core.score_calls": ("core.score",),
    "core.cluster_calls": ("core.cluster",),
    "infra.assignment_calls": ("infra.assignment",),
    "infra.view_build_calls": ("infra.view_build",),
    "engine.reshape_runs": ("engine.reshape_run",),
    "reshaping.calls": ("reshaping.describe", "reshaping.demand", "reshaping.lconv"),
}
#: Per-layer counts read from the program's own ``repro.obs`` counters.
COUNTERS = {
    "core.score_pairs": "score.pairs",
    "core.lloyd_iterations": "cluster.lloyd_iterations",
    "core.balance_rounds": "cluster.balance_rounds",
    "core.remap_candidates": "remap.candidates_evaluated",
    "core.remap_swaps": "remap.swaps_accepted",
    "engine.pool_tasks": "pool.tasks_dispatched",
    "engine.pool_retries": "pool.tasks_retried",
    "infra.view_nodes_recomputed": "delta.view_nodes_recomputed",
}


class Phase:
    """One traced stretch of the run: its root span, counters and obs tree."""

    def __init__(self, name: str, root: int) -> None:
        self.name = name
        self.root = root
        self.counters: Dict[str, float] = {}
        self.obs_totals: Dict[str, float] = {}


class SpanRecorder:
    """In-memory spans: ``[name, start, end, parent, cpu_start, cpu_end]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.phases: List[Phase] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, time.process_time(), 0.0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[5] = time.process_time()
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Patch every target with a recording wrapper; restore on exit."""
        saved = []
        try:
            for module_name, class_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                original = vars(owner)[attr]
                if isinstance(original, (staticmethod, classmethod)):
                    patched = type(original)(self.wrap(name, original.__func__))
                else:
                    patched = self.wrap(name, original)
                saved.append((owner, attr, original))
                setattr(owner, attr, patched)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def phase(self, name: str) -> Iterator[Phase]:
        """Trace one stretch: wrappers, a root span, obs spans and counter deltas."""
        from repro import obs

        before = dict(obs.snapshot_metrics()["counters"])
        with self.installed(), obs.tracing() as tracer:
            record = Phase(name, self.open(name))
            try:
                yield record
            finally:
                self.close(record.root)
        after = obs.snapshot_metrics()["counters"]
        record.counters = {k: v - before.get(k, 0.0) for k, v in after.items()}
        record.obs_totals = _obs_totals(tracer, set(OBS_TWINS.values()))
        self.phases.append(record)

    # ------------------------------------------------------------------
    def summary(self, root: int) -> Dict[str, Dict[str, float]]:
        """Inclusive time, CPU and calls per span name, self time per layer."""
        child_wall: Dict[int, float] = {}
        child_cpu: Dict[int, float] = {}
        inside = {root}
        out: Dict[str, Dict[str, float]] = {
            "wall": {}, "cpu": {}, "calls": {}, "self": {}, "self_cpu": {}
        }
        for index in range(root, len(self.spans)):
            name, start, end, parent, cpu_start, cpu_end = self.spans[index]
            if index != root:
                if parent not in inside:
                    break
                inside.add(index)
                child_wall[parent] = child_wall.get(parent, 0.0) + end - start
                child_cpu[parent] = child_cpu.get(parent, 0.0) + cpu_end - cpu_start
        for index in sorted(inside):
            name, start, end, parent, cpu_start, cpu_end = self.spans[index]
            layer = name.split(".", 1)[0]
            for key, value in (
                ("wall", end - start),
                ("cpu", cpu_end - cpu_start),
                ("calls", 1),
            ):
                out[key][name] = out[key].get(name, 0.0) + value
            out["self"][layer] = out["self"].get(layer, 0.0) + (
                end - start - child_wall.get(index, 0.0)
            )
            out["self_cpu"][layer] = out["self_cpu"].get(layer, 0.0) + (
                cpu_end - cpu_start - child_cpu.get(index, 0.0)
            )
        return out

    def write(self, path) -> None:
        """Dump every span as JSON (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "cpu_s": cpu_end - cpu_start,
            }
            for name, start, end, parent, cpu_start, cpu_end in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"spans": rows}, handle)


def _obs_totals(tracer, names) -> Dict[str, float]:
    """Wall time of the program's own spans, by name, outermost only."""
    totals: Dict[str, float] = {}

    def visit(span, open_names):
        counted = span.name in names and span.name not in open_names
        if counted:
            totals[span.name] = totals.get(span.name, 0.0) + span.wall_s
        inner = open_names | {span.name} if counted else open_names
        for child in span.children:
            visit(child, inner)

    for root in tracer.roots:
        visit(root, frozenset())
    return totals


def obs_disagreements(recorder: SpanRecorder, phase: Phase) -> Dict[str, float]:
    """Relative gaps above tolerance between wrapped and ``repro.obs`` totals."""
    wall = recorder.summary(phase.root)["wall"]
    gaps = {}
    for wrapped, own in OBS_TWINS.items():
        outside = wall.get(wrapped, 0.0)
        inside = phase.obs_totals.get(own, 0.0)
        if outside == 0.0 and inside == 0.0:
            continue
        gap = abs(outside - inside) / max(outside, inside)
        if gap > OBS_TOLERANCE:
            gaps[wrapped] = gap
    return gaps


def per_layer_metrics(
    recorder: SpanRecorder, untraced_walls: List[float]
) -> Dict[str, float]:
    """Every :data:`SHOULD_MOVE` metric from a traced run.

    Times are one set-up plus the median traced pass plus the closing
    step; counts are one set-up plus the first traced pass plus the
    closing step, so they repeat exactly for a given seed.
    """
    phases = {"setup": [], "pass": [], "finish": []}
    for phase in recorder.phases:
        phases[phase.name.split(".", 1)[1]].append(phase)
    fixed = phases["setup"] + phases["finish"]
    counted = fixed + phases["pass"][:1]
    summaries = {id(p): recorder.summary(p.root) for p in recorder.phases}

    def timed(kind: str, key: str) -> float:
        total = sum(summaries[id(p)][kind].get(key, 0.0) for p in fixed)
        per_pass = [summaries[id(p)][kind].get(key, 0.0) for p in phases["pass"]]
        return total + statistics.median(per_pass)

    def calls(keys) -> float:
        return sum(summaries[id(p)]["calls"].get(k, 0.0) for p in counted for k in keys)

    def counter(name: str) -> float:
        return sum(p.counters.get(name, 0.0) for p in counted)

    values: Dict[str, float] = {}
    for layer in REPORTED_LAYERS:
        values[f"{layer}.self_s"] = timed("self", layer)
        values[f"{layer}.self_cpu_s"] = timed("self_cpu", layer)
    for span_name in NAMED_TIMES:
        values[f"{span_name}_s"] = timed("wall", span_name)
        values[f"{span_name}_cpu_s"] = timed("cpu", span_name)
    for metric, keys in CALLS.items():
        values[metric] = calls(keys)
    for metric, name in COUNTERS.items():
        values[metric] = counter(name)
    candidates = values["core.remap_candidates"]
    values["core.remap_accept_ratio"] = (
        values["core.remap_swaps"] / candidates if candidates else 0.0
    )

    traced_walls, coverage = [], []
    for p in phases["pass"]:
        summary = summaries[id(p)]
        wall = summary["wall"]["bench.pass"]
        traced_walls.append(wall)
        coverage.append(1.0 - summary["self"]["bench"] / wall)
    values["bench.trace_overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    values["bench.layer_coverage_frac"] = statistics.median(coverage)
    return values


def layer_table(recorder: SpanRecorder) -> Dict[str, Dict[str, float]]:
    """Median traced pass, per span name: wall, CPU and calls (for reports)."""
    passes = [recorder.summary(p.root) for p in recorder.phases if p.name == "bench.pass"]
    names = sorted({name for s in passes for name in s["wall"]})
    return {
        name: {
            kind: statistics.median(s[kind].get(name, 0.0) for s in passes)
            for kind in ("wall", "cpu", "calls")
        }
        for name in names
    }
