"""Incremental fleet state vs full recompute, gated in this script.

Measures the delta layer at the scale where it matters — 100k instances —
and gates the refactor's headline claim: evaluating a placement action
through the incremental path (apply the delta, re-score only the dirty
subtree) must be at least :data:`MIN_SPEEDUP`× faster than the
full-recompute baseline (rebuild the power view and re-score the level
from scratch).  The speedup is host-relative (both walls come from this
process), so it needs no committed reference.

The rendered result also reports the per-delta apply latency through a
:class:`~repro.engine.delta.PlacementState` fanning out to the power view,
asynchrony index, and headroom index, and the swap-evaluation throughput
of the remapping engine's cached-score loop (candidates evaluated per
second).  The test skips only when the host cannot fit the fixture in
memory.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.metrics import AsynchronyIndex, node_asynchrony_scores
from repro.core.remapping import RemapConfig, RemappingEngine
from repro.engine.delta import PlacementState
from repro.infra import Assignment, Level, NodePowerView, build_topology, ocp_spec
from repro.infra.budget import provision_from_view
from repro.infra.headroom import HeadroomIndex
from repro.traces import TimeGrid, TraceSet

N_INSTANCES = 100_000
N_SAMPLES = 336  # 1 week @ 30 min
N_DELTAS = 64
N_FULL = 4

#: The incremental path must beat a full rebuild per placement action by
#: at least this factor at the 100k-instance point.
MIN_SPEEDUP = 5.0


def _build_fleet(n_instances, n_samples):
    """A synthetic phase-diverse fleet on the OCP tree, sized to ``n``."""
    rng = np.random.default_rng(7)
    topo = build_topology(
        ocp_spec(
            "dc",
            suites=4,
            msbs_per_suite=2,
            sbs_per_msb=2,
            rpps_per_sb=3,
            racks_per_rpp=4,
            servers_per_rack=max(1, -(-n_instances // 192)),  # 192 racks
        )
    )
    grid = TimeGrid(0, 30, n_samples)
    t = np.arange(n_samples)
    phases = rng.uniform(0, 2 * np.pi, size=n_instances)
    base = rng.uniform(80, 120, size=n_instances)
    # Broadcast build: diurnal sinusoid per instance plus noise-free offset
    # keeps the build fast and the memory bounded by the matrix itself.
    matrix = base[:, None] + 30.0 * np.sin(
        2 * np.pi * t[None, :] / 48.0 + phases[:, None]
    )
    ids = [f"i{k}" for k in range(n_instances)]
    traces = TraceSet(grid, ids, matrix)
    leaf_names = topo.leaf_names()
    mapping = {ids[k]: leaf_names[k % len(leaf_names)] for k in range(n_instances)}
    return topo, Assignment(topo, mapping), traces


def _swap_pairs(state, traces, n_pairs, seed=11):
    rng = np.random.default_rng(seed)
    ids = traces.ids
    pairs = []
    while len(pairs) < n_pairs:
        a, b = rng.integers(0, len(ids), size=2)
        if a == b:
            continue
        id_a, id_b = ids[int(a)], ids[int(b)]
        if state.leaf_of(id_a) != state.leaf_of(id_b):
            pairs.append((id_a, id_b))
    return pairs


@pytest.mark.benchmark(group="incremental")
def test_incremental_vs_full_recompute(benchmark, emit_report):
    import time

    try:
        topo, assignment, traces = _build_fleet(N_INSTANCES, N_SAMPLES)
    except MemoryError:
        pytest.skip(f"fixture ({N_INSTANCES}x{N_SAMPLES}) does not fit in memory")

    level = Level.RPP

    # ------------------------------------------------------------------
    # incremental path: one PlacementState fanning out to view + indices
    # ------------------------------------------------------------------
    state = PlacementState(topo, traces, assignment)
    view = state.register(NodePowerView(topo, state.assignment(), traces))
    provision_from_view(view, margin=0.25)
    score_index = state.register(AsynchronyIndex(view, level))
    state.register(HeadroomIndex(view))
    pairs = _swap_pairs(state, traces, N_DELTAS)

    def _incremental():
        started = time.perf_counter()
        for id_a, id_b in pairs:
            state.swap(id_a, id_b)
            score_index.scores()
        return (time.perf_counter() - started) / len(pairs)

    incremental_per_delta = benchmark.pedantic(_incremental, rounds=1, iterations=1)

    # ------------------------------------------------------------------
    # full-recompute baseline: rebuild view + re-score after each action
    # ------------------------------------------------------------------
    current = state.assignment()
    full_samples = []
    for id_a, id_b in pairs[:N_FULL]:
        current = current.with_swap(id_b, id_a)  # walk the swaps back
        started = time.perf_counter()
        fresh_view = NodePowerView(topo, current, traces)
        node_asynchrony_scores(current, traces, level, view=fresh_view)
        full_samples.append(time.perf_counter() - started)
    full_per_delta = float(np.mean(full_samples))

    speedup = full_per_delta / incremental_per_delta

    # ------------------------------------------------------------------
    # swap-evaluation throughput of the cached-score remapping loop
    # ------------------------------------------------------------------
    obs.reset_metrics()
    remap_ids = traces.ids[: min(len(traces.ids), 4096)]
    remap_leaves = topo.leaf_names()
    remap_mapping = {
        instance_id: remap_leaves[k % len(remap_leaves)]
        for k, instance_id in enumerate(remap_ids)
    }
    remap_rows = [traces.index_of(i) for i in remap_ids]
    remap_traces = TraceSet(traces.grid, list(remap_ids), traces.matrix[remap_rows])
    remap_assignment = Assignment(topo, remap_mapping)
    engine = RemappingEngine(RemapConfig(level=level, max_swaps=24))
    started = time.perf_counter()
    engine.run(remap_assignment, remap_traces)
    remap_wall = time.perf_counter() - started
    candidates = obs.counter_value("remap.candidates_evaluated")
    candidates_per_s = candidates / remap_wall if remap_wall > 0 else 0.0

    emit_report(
        "incremental",
        "\n".join(
            [
                "incremental fleet state @ "
                f"{N_INSTANCES} instances x {N_SAMPLES} samples",
                f"  delta apply        {incremental_per_delta * 1e3:9.3f} ms",
                f"  full recompute     {full_per_delta * 1e3:9.3f} ms",
                f"  speedup            {speedup:9.1f}x (gate >= {MIN_SPEEDUP:.0f}x)",
                f"  swap-eval rate     {candidates_per_s:9.0f} cand/s",
            ]
        ),
    )

    assert speedup >= MIN_SPEEDUP, (
        f"incremental path is only {speedup:.1f}x faster than full "
        f"recompute (gate: {MIN_SPEEDUP:.0f}x)"
    )
