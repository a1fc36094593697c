"""The four benchmark workloads.

Each workload is a closed loop driven by one process: the next pass starts
only after the previous one returned.  Its inputs are generated from the
seed alone (the datacenter spec seed and, for churn, the delta stream); the
program under test only ever sees the generated records, placements and
deltas.

A workload object goes through ``setup()`` (timed: what an operator pays
before the first decision), ``prepare()`` (untimed benchmark-side input
generation), any number of ``run_pass()`` calls (each returns how many
operations it performed) each followed by ``after_pass()`` (untimed
bookkeeping for the checks), then ``finish()``, which returns the quality
figure and the named correctness checks, and ``close()``.

Library functions are called through their modules
(``rfleet.describe_fleet``, ``budget.provision_hierarchical``, ...) so
that the wrappers :mod:`layers` installs there see the calls.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import metrics as core_metrics
from repro.core.pipeline import SmoothOperator, SmoothOperatorConfig
from repro.core.placement import PlacementConfig
from repro.core.remapping import RemapConfig, RemappingEngine
from repro.datasets import facebook
from repro.engine import parallel, sharedmem
from repro.engine.core import Engine
from repro.engine.delta import FleetDelta, PlacementState
from repro.engine.spec import ScenarioSpec
from repro.infra import budget
from repro.infra import headroom as infra_headroom
from repro.infra.aggregation import NodePowerView
from repro.infra.topology import Level
from repro.reshaping import fleet as rfleet
from repro.reshaping import lconv
from repro.reshaping.conversion import ConversionPolicy
from repro.reshaping.throttling import ThrottleBoostPolicy
from repro.traces import synthesis

#: DC3's spec seed, at which EXPERIMENTS.md reports its numbers.
COMMITTED_SEED = 303

#: Figure 10 / 13 numbers EXPERIMENTS.md reports for DC3 at paper scale
#: (1440 instances, 10-min steps, committed seed), in percent, one decimal.
FIG10_DC3_REFERENCE = {
    "rpp_peak_reduction": 15.2,
    "extra_server_frac": 10.6,
    "lc_gain_throttle_boost": 17.1,
}

PEAK_LOAD = 0.85


def assignment_digest(mapping: Dict[str, str]) -> str:
    """Order-independent hash of an instance → leaf mapping."""
    h = hashlib.sha256()
    for instance_id, leaf in sorted(mapping.items()):
        h.update(f"{instance_id}\t{leaf}\n".encode())
    return h.hexdigest()


def placement_valid(assignment, instance_ids) -> bool:
    """Every instance placed exactly once, every leaf within capacity."""
    mapping = assignment.as_mapping()
    if len(mapping) != len(instance_ids) or set(mapping) != set(instance_ids):
        return False
    occupancy = assignment.occupancy()
    return all(
        leaf.capacity is None or occupancy[leaf.name] <= leaf.capacity
        for leaf in assignment.topology.leaves()
    )


def build_datacenter(n_instances: int, step_minutes: int, seed: int):
    """DC3 (Figure 5 mix, service-grouped baseline) over three weeks."""
    spec = facebook.dc3_spec(n_instances=n_instances, seed=seed)
    return facebook.build_datacenter(spec, weeks=3, step_minutes=step_minutes)


class Workload:
    """Shared no-op hooks; subclasses implement setup and run_pass."""

    #: Passes after ``prepare()`` before ``finish()`` reports the quality.
    QUALITY_PASSES = 1
    #: Whether the host-speed probe may also sample from a timer signal
    #: during a pass.  Not where the pass runs in worker processes, which the
    #: probe would compete with, or times its own operations, which the
    #: samples would land in.
    SAMPLE_PASSES = False

    def prepare(self) -> None:
        pass

    def after_pass(self) -> None:
        pass

    def close(self) -> None:
        pass

    def details(self) -> Dict[str, object]:
        return {}


# ----------------------------------------------------------------------
# fig10-dc3 / fleet-dc3: the offline planner
# ----------------------------------------------------------------------
def reshaping_week(dc, report) -> float:
    """One Sec. 4 reshaping week; returns the LC throttle-boost gain.

    The same scenario set the Figure 12-14 drivers run, without their
    per-datacenter caches, so every pass does the work again.
    """
    fleet = rfleet.describe_fleet(dc.records, budget_watts=dc.topology.root.budget_watts)
    training = rfleet.derive_demand(dc.records, peak_load=PEAK_LOAD, use_test=False)
    threshold = lconv.learn_conversion_threshold(training, fleet.n_lc)
    conversion = ConversionPolicy(conversion_threshold=threshold)
    throttle = ThrottleBoostPolicy()
    engine = Engine(fleet, conversion, throttle=throttle)

    def run(mode, demand, **kwargs):
        spec = ScenarioSpec(
            mode=mode,
            fleet=fleet,
            demand=demand,
            conversion=conversion,
            throttle=throttle,
            **kwargs,
        )
        return engine.run(spec).result

    extra = report.expansion.total_extra
    funded = throttle.extra_conversion_servers(
        fleet.n_batch, fleet.batch_model, fleet.lc_model, n_lc=fleet.n_lc
    )
    base = rfleet.derive_demand(dc.records, peak_load=PEAK_LOAD, use_test=True)
    grown = base.scaled(1.0 + extra / fleet.n_lc)
    grown_more = base.scaled(1.0 + (extra + funded) / fleet.n_lc)
    pre = run("pre", base)
    run("lc_only", grown, extra_servers=extra)
    run("conversion", grown, extra_servers=extra)
    boosted = run(
        "throttle_boost", grown_more, extra_servers=extra, extra_throttle_funded=funded
    )
    run("lc_only", grown_more, extra_servers=extra + funded)
    return boosted.lc_total() / pre.lc_total() - 1.0


class PlanWorkload(Workload):
    """optimize (+ optional RPP remap) → evaluate → one reshaping week."""

    SAMPLE_PASSES = True

    def __init__(
        self,
        seed: int,
        *,
        n_instances: int,
        step_minutes: int,
        remap_swaps: Optional[int],
        reference: Optional[Dict[str, float]] = None,
    ) -> None:
        self.seed = seed
        self.n_instances = n_instances
        self.step_minutes = step_minutes
        self.remap_swaps = remap_swaps
        #: Checked only at the committed seed: other seeds are other fleets.
        self.reference = reference if seed == COMMITTED_SEED else None
        self.digests: List[str] = []
        self.outputs: List[Tuple[float, float, float]] = []

    def setup(self) -> None:
        self.dc = build_datacenter(self.n_instances, self.step_minutes, self.seed)
        remap = (
            RemapConfig(level=Level.RPP, max_swaps=self.remap_swaps)
            if self.remap_swaps
            else None
        )
        self.operator = SmoothOperator(
            SmoothOperatorConfig(placement=PlacementConfig(seed=0), remap=remap)
        )

    def run_pass(self) -> int:
        dc = self.dc
        outcome = self.operator.optimize(dc.records, dc.topology)
        report = self.operator.evaluate(dc.records, dc.baseline, outcome.assignment)
        lc_gain = reshaping_week(dc, report)
        self._last = (outcome.assignment, report, lc_gain)
        return 1

    def after_pass(self) -> None:
        assignment, report, lc_gain = self._last
        self.digests.append(assignment_digest(assignment.as_mapping()))
        self.outputs.append(
            (report.peak_reduction[Level.RPP], report.extra_server_fraction, lc_gain)
        )

    def finish(self) -> Tuple[float, Dict[str, bool]]:
        assignment, _, _ = self._last
        rpp, extra, lc_gain = self.outputs[-1]
        ids = [record.instance_id for record in self.dc.records]
        checks = {
            "placement_valid": placement_valid(assignment, ids),
            "assignment_stable_across_passes": len(set(self.digests)) == 1,
            "quality_stable_across_passes": len(set(self.outputs)) == 1,
        }
        if self.reference is not None:
            measured = {
                "rpp_peak_reduction": rpp,
                "extra_server_frac": extra,
                "lc_gain_throttle_boost": lc_gain,
            }
            checks["matches_experiments_md"] = all(
                round(measured[key] * 100.0, 1) == value
                for key, value in self.reference.items()
            )
        return rpp, checks

    def details(self) -> Dict[str, object]:
        if not self.outputs:
            return {}
        _, extra, lc_gain = self.outputs[-1]
        return {"extra_server_frac": extra, "lc_gain_throttle_boost": lc_gain}


# ----------------------------------------------------------------------
# adapt-dc3-pool: the online adapter's sharded swap loop on the pool
# ----------------------------------------------------------------------
class AdaptWorkload(Workload):
    """Suite-sharded RPP remap of the service-grouped baseline on the pool.

    The remap configuration is the one the project README gives for
    sharded remapping, ``RemapConfig(level=RPP, shard_level=SUITE)`` with
    every other field at its default (50 swaps per suite); ``max_swaps``
    overrides the cap for small test fleets.
    """

    def __init__(
        self,
        seed: int,
        *,
        n_instances: int,
        step_minutes: int,
        workers: int,
        max_swaps: Optional[int] = None,
    ) -> None:
        self.seed = seed
        self.n_instances = n_instances
        self.step_minutes = step_minutes
        self.workers = workers
        self.config = RemapConfig(level=Level.RPP, shard_level=Level.SUITE)
        if max_swaps is not None:
            self.config = replace(self.config, max_swaps=max_swaps)
        self.digests: List[str] = []
        self.segments_seen: List[str] = []

    def setup(self) -> None:
        self.dc = build_datacenter(self.n_instances, self.step_minutes, self.seed)
        self.traces = synthesis.training_trace_set(self.dc.records)
        self.engine = RemappingEngine(self.config)
        # A fresh pool per set-up, so every set-up pays the fork.
        parallel.shutdown_pools()
        parallel.warm_pool(self.workers)

    def prepare(self) -> None:
        """Run the serial reference, then one pooled pass noting its segments.

        Both happen here rather than in ``finish()`` so that the traced
        closing step holds only the evaluation.
        """
        self.serial = self.engine.run(self.dc.baseline, self.traces, workers=1)
        created: List[str] = []
        matrix_cls = sharedmem.SharedMatrix
        original = vars(matrix_cls)["create"]

        def create(cls, *args, **kwargs):
            shared = original.__func__(cls, *args, **kwargs)
            created.append(shared.name)
            return shared

        matrix_cls.create = classmethod(create)
        try:
            self.run_pass()
        finally:
            matrix_cls.create = original
        self.segments_seen.extend(created)
        self.after_pass()

    def run_pass(self) -> int:
        self._last = self.engine.run(self.dc.baseline, self.traces, workers=self.workers)
        return 1

    def after_pass(self) -> None:
        self.digests.append(assignment_digest(self._last.assignment.as_mapping()))
        self.segments_seen.extend(sharedmem.owned_segment_names())

    def finish(self) -> Tuple[float, Dict[str, bool]]:
        result, serial = self._last, self.serial
        report = SmoothOperator.evaluate(self.dc.records, self.dc.baseline, result.assignment)
        parallel.shutdown_pools()
        ids = [record.instance_id for record in self.dc.records]
        checks = {
            "placement_valid": placement_valid(result.assignment, ids),
            "assignment_stable_across_passes": len(set(self.digests)) == 1,
            "pool_equals_serial": serial.swaps == result.swaps
            and assignment_digest(serial.assignment.as_mapping()) == self.digests[-1],
            "no_shared_segments_left": not sharedmem.owned_segment_names()
            and not any(_segment_exists(name) for name in set(self.segments_seen)),
        }
        return report.peak_reduction[Level.RPP], checks

    def close(self) -> None:
        parallel.shutdown_pools()

    def details(self) -> Dict[str, object]:
        last = getattr(self, "_last", None)
        return {} if last is None else {"swaps_accepted": last.n_swaps}


def _segment_exists(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


# ----------------------------------------------------------------------
# churn-dc3: incremental fleet state under a seeded delta stream
# ----------------------------------------------------------------------
class DeltaStream:
    """Seeded swaps (70%), moves to a free slot (20%) and trace refreshes (10%).

    Tracks occupancy itself so every generated delta is valid against the
    live placement it will be applied to, in order.

    The mix, the four refreshed rows and the 1000-delta batches are
    assumptions of this benchmark, not measurements: the repository has no
    record of real placement churn to calibrate them against.
    """

    SWAP, MOVE = 0.7, 0.9
    REFRESH_ROWS = 4

    def __init__(self, seed: int, assignment) -> None:
        self.rng = np.random.default_rng([seed, 0xC4])
        self.leaf_of = assignment.as_mapping()
        self.ids = sorted(self.leaf_of)
        occupancy = assignment.occupancy()
        self.free = {
            leaf.name: leaf.capacity - occupancy[leaf.name]
            for leaf in assignment.topology.leaves()
        }
        self.open = sorted(leaf for leaf, n in self.free.items() if n > 0)

    def _instance(self) -> str:
        return self.ids[int(self.rng.integers(len(self.ids)))]

    def next(self) -> Tuple[FleetDelta, Tuple[str, ...]]:
        """The next delta and the instances whose trace rows it refreshes."""
        draw = self.rng.random()
        if draw < self.SWAP:
            while True:
                a, b = self._instance(), self._instance()
                if self.leaf_of[a] != self.leaf_of[b]:
                    break
            leaf_a, leaf_b = self.leaf_of[a], self.leaf_of[b]
            self.leaf_of[a], self.leaf_of[b] = leaf_b, leaf_a
            return FleetDelta.swap(a, leaf_a, b, leaf_b), ()
        if draw < self.MOVE:
            instance = self._instance()
            src = self.leaf_of[instance]
            while True:
                dst = self.open[int(self.rng.integers(len(self.open)))]
                if dst != src:
                    break
            self.leaf_of[instance] = dst
            self.free[src] += 1
            self.free[dst] -= 1
            if self.free[dst] == 0:
                self.open.remove(dst)
            if self.free[src] == 1:
                self.open.append(src)
            return FleetDelta.move(instance, src, dst), ()
        rows = self.rng.choice(len(self.ids), self.REFRESH_ROWS, replace=False)
        refreshed = tuple(self.ids[int(row)] for row in rows)
        return FleetDelta.trace_update(*refreshed), refreshed


class ChurnWorkload(Workload):
    """PlacementState fanning deltas to the view, asynchrony and headroom indices."""

    #: Batches after which the quality figure is read: the warm-up batch
    #: plus two, which every run (traced or not) reaches, so the figure
    #: never depends on how long the run was.
    QUALITY_BATCHES = 3
    QUALITY_PASSES = QUALITY_BATCHES

    def __init__(
        self, seed: int, *, n_instances: int, step_minutes: int, batch: int
    ) -> None:
        self.seed = seed
        self.n_instances = n_instances
        self.step_minutes = step_minutes
        self.batch = batch
        self.latencies: List[float] = []
        self.batches_done = 0
        self.quality: Optional[float] = None

    def setup(self) -> None:
        dc = self.dc = build_datacenter(self.n_instances, self.step_minutes, self.seed)
        self.traces = synthesis.training_trace_set(dc.records)
        self.state = PlacementState(dc.topology, self.traces, dc.baseline)
        self.view = self.state.register(
            NodePowerView(dc.topology, self.state.assignment(), self.traces)
        )
        budget.provision_hierarchical(self.view, margin=0.25)
        self.index = self.state.register(core_metrics.AsynchronyIndex(self.view, Level.RPP))
        self.headroom = self.state.register(infra_headroom.HeadroomIndex(self.view))

    def prepare(self) -> None:
        self.stream = DeltaStream(self.seed, self.dc.baseline)
        self.train_rows = self.traces.matrix.copy()
        self.test_rows = synthesis.test_trace_set(self.dc.records).matrix
        self.showing_test = np.zeros(len(self.traces), dtype=bool)
        self.initial_rpp = self.view.sum_of_peaks(Level.RPP)
        self._next = self._draw()

    def _draw(self):
        return [self.stream.next() for _ in range(self.batch)]

    def run_pass(self) -> int:
        clock = time.perf_counter
        matrix = self.traces.matrix
        state, index, headroom = self.state, self.index, self.headroom
        latencies = self.latencies
        for delta, refreshed in self._next:
            started = clock()
            for instance_id in refreshed:
                row = self.traces.index_of(instance_id)
                source = self.train_rows if self.showing_test[row] else self.test_rows
                matrix[row] = source[row]
                self.showing_test[row] = not self.showing_test[row]
            state.apply(delta)
            index.scores()
            headroom.headroom()
            latencies.append(clock() - started)
        return len(self._next)

    def after_pass(self) -> None:
        self.batches_done += 1
        if self.batches_done == self.QUALITY_BATCHES:
            self.quality = 1.0 - self.view.sum_of_peaks(Level.RPP) / self.initial_rpp
        self._next = self._draw()

    def finish(self) -> Tuple[float, Dict[str, bool]]:
        dc, traces = self.dc, self.traces
        current = self.state.assignment()
        fresh = NodePowerView(dc.topology, current, traces)
        names = [node.name for node in dc.topology.nodes()]
        ids = [record.instance_id for record in dc.records]
        checks = {
            "placement_valid": placement_valid(current, ids),
            "view_matches_rebuild": all(
                np.array_equal(self.view.node_trace(n).values, fresh.node_trace(n).values)
                for n in names
            )
            and self.view.materialized_assignment().as_mapping() == current.as_mapping(),
            "scores_match_rebuild": self.index.scores()
            == core_metrics.node_asynchrony_scores(current, traces, Level.RPP, view=fresh),
            "headroom_matches_rebuild": self.headroom.headroom()
            == infra_headroom.node_headroom(fresh),
            "quality_checkpoint_reached": self.quality is not None,
        }
        return (self.quality if self.quality is not None else float("nan")), checks

    def details(self) -> Dict[str, object]:
        ms = np.asarray(self.latencies) * 1e3
        if not len(ms):
            return {}
        out = {
            "deltas": int(len(ms)),
            "delta_p50_ms": float(np.percentile(ms, 50)),
            "deltas_per_s": float(len(ms) / (ms.sum() / 1e3)),
        }
        if len(ms) >= 1000:  # at least ten samples beyond the p99
            out["delta_p99_ms"] = float(np.percentile(ms, 99))
        return out


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
WORKLOADS = {
    "fig10-dc3": (
        PlanWorkload,
        dict(
            n_instances=1440,
            step_minutes=10,
            remap_swaps=None,
            reference=FIG10_DC3_REFERENCE,
        ),
    ),
    "fleet-dc3": (
        PlanWorkload,
        dict(n_instances=10000, step_minutes=30, remap_swaps=30),
    ),
    "adapt-dc3-pool": (
        AdaptWorkload,
        dict(n_instances=10000, step_minutes=30, workers=2),
    ),
    "churn-dc3": (
        ChurnWorkload,
        dict(n_instances=10000, step_minutes=30, batch=1000),
    ),
}

def make(name: str, seed: int, **overrides) -> Workload:
    """Instantiate a workload; ``overrides`` replace its default parameters."""
    cls, params = WORKLOADS[name]
    return cls(seed, **{**params, **overrides})
