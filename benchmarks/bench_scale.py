"""Fleet-scale stage benchmark, gated in this script.

Synthesizes a 100k-instance fleet directly as one float32 trace matrix —
no Python-level per-instance objects — then times the stages that touch
every row of it, all in this process:

* ``synthesize``   — vectorized diurnal + phase + noise fleet construction;
* ``aggregate``    — the asynchrony numerator/denominator over the whole
  fleet (per-row peaks and the aggregate-trace peak);
* ``score_serial`` — the float32 I-to-S score matrix against 8 basis
  traces.

Every stage must stay within the wall bound of ``benchmarks/conftest.py``
(3x its reference + 0.05 s).  The pool's capture and deadline overheads
are gated on the pooled chaos suite in ``benchmarks/bench_engine.py``.
"""

import os
import time

import numpy as np
import pytest

from repro.core.asynchrony import score_matrix
from repro.traces.grid import TimeGrid
from repro.traces.traceset import TraceSet

N_INSTANCES = 100_000
STEP_MINUTES = 60
N_BASIS = 8
SEED = 0

CPU_COUNT = os.cpu_count() or 1

#: Reference wall seconds per stage (recorded on 1 CPU).
REFERENCE_WALL_S = {
    "synthesize": 1.2825510949987802,
    "aggregate": 0.028328197999144322,
    "score_serial": 0.24866318199929083,
}


def _synthesize(n_instances: int, grid: TimeGrid, rng: np.random.Generator) -> TraceSet:
    """A seeded synthetic fleet: diurnal base + per-instance phase + noise.

    Built as one vectorized float32 matrix — at fleet scale a row-by-row
    Python loop would dominate the benchmark it is meant to feed.
    """
    minutes = grid.start_minute + np.arange(grid.n_samples) * grid.step_minutes
    hours = (minutes / 60.0) % 24.0
    phase = rng.uniform(0.0, 24.0, size=n_instances).astype(np.float32)
    amplitude = rng.uniform(0.2, 0.6, size=n_instances).astype(np.float32)
    base = rng.uniform(0.5, 1.0, size=n_instances).astype(np.float32)
    angle = (
        (hours[np.newaxis, :].astype(np.float32) - phase[:, np.newaxis])
        * np.float32(2.0 * np.pi / 24.0)
    )
    matrix = base[:, np.newaxis] + amplitude[:, np.newaxis] * np.sin(angle)
    matrix += rng.normal(0.0, 0.02, size=matrix.shape).astype(np.float32)
    np.maximum(matrix, 0.0, out=matrix)
    ids = [f"i{i}" for i in range(n_instances)]
    return TraceSet(grid, ids, matrix, dtype=np.float32)


def _run():
    rng = np.random.default_rng(SEED)
    grid = TimeGrid(0, STEP_MINUTES, 7 * 24 * 60 // STEP_MINUTES)

    walls = {}
    started = time.perf_counter()
    instances = _synthesize(N_INSTANCES, grid, rng)
    basis = _synthesize(N_BASIS, grid, rng)
    walls["synthesize"] = time.perf_counter() - started

    started = time.perf_counter()
    sum_of_peaks = instances.sum_of_peaks()
    aggregate_peak = instances.aggregate_peak()
    walls["aggregate"] = time.perf_counter() - started
    assert sum_of_peaks >= aggregate_peak > 0

    started = time.perf_counter()
    scores = score_matrix(instances, basis, dtype=np.float32)
    walls["score_serial"] = time.perf_counter() - started
    assert scores.shape == (N_INSTANCES, N_BASIS)
    assert np.isfinite(scores).all()
    return walls


@pytest.mark.benchmark(group="scale")
def test_fleet_scale_scaling(benchmark, emit_report, check_walls):
    walls = benchmark.pedantic(_run, rounds=1, iterations=1)

    emit_report(
        "scale",
        "\n".join(
            [
                "fleet-scale stages, in one process",
                f"  instances         {N_INSTANCES}",
                f"  basis traces      {N_BASIS}",
                f"  host cpus         {CPU_COUNT}",
                f"  synthesize        {walls['synthesize']:.3f}s",
                f"  aggregate         {walls['aggregate']:.3f}s",
                f"  score serial      {walls['score_serial']:.3f}s",
            ]
        ),
    )

    failures = check_walls(walls, REFERENCE_WALL_S)
    assert not failures, "\n".join(failures)
