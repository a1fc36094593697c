"""Fleet-scale scaling benchmark, gated in this script.

Synthesizes a 100k-instance fleet directly as one float32 trace matrix —
no Python-level per-instance objects — then times the hot stages the
persistent worker pool is supposed to accelerate:

* ``synthesize``  — vectorized diurnal + phase + noise fleet construction;
* ``aggregate``   — the asynchrony numerator/denominator over the whole
  fleet (per-row peaks and the aggregate-trace peak);
* ``score_serial``   — the I-to-S score matrix in one process;
* ``score_parallel`` — the same scores sharded across the persistent pool
  over shared-memory views (:mod:`repro.engine.sharedmem`);
* ``score_parallel_nocapture`` — the parallel pass again with
  ``REPRO_OBS_CAPTURE=0``, to price worker-telemetry capture;
* ``score_parallel_deadline`` — the parallel pass again under an armed
  (but never firing) :class:`repro.engine.deadline.TaskDeadline`, to price
  the failure-domain layer's watchdog polling.

Scores are row-independent, so every pass must return *identical* scores
— asserted every run.  Every stage must stay within the wall bound of
``benchmarks/conftest.py`` (3x its reference + 0.05 s).  On a host with at
least two CPUs three more gates apply; a single CPU cannot run two workers
at once, so there the ratios are only reported:

* parallel efficiency ``speedup / workers`` ≥ :data:`MIN_EFFICIENCY`;
* capture overhead: ``score_parallel`` ≤ ``score_parallel_nocapture`` ×
  (1 + :data:`MAX_CAPTURE_OVERHEAD`) + 0.05 s;
* recovery overhead: ``score_parallel_deadline`` ≤ ``score_parallel`` ×
  (1 + :data:`MAX_RECOVERY_OVERHEAD`) + 0.05 s.
"""

import os
import time

import numpy as np
import pytest

from repro import obs
from repro.core.asynchrony import score_matrix
from repro.engine import warm_pool
from repro.engine.deadline import TaskDeadline, deadline_scope
from repro.traces.grid import TimeGrid
from repro.traces.traceset import TraceSet

N_INSTANCES = 100_000
STEP_MINUTES = 60
N_BASIS = 8
SEED = 0
MIN_EFFICIENCY = 0.7
MAX_CAPTURE_OVERHEAD = 0.05
MAX_RECOVERY_OVERHEAD = 0.03
#: Additive slack on the two overhead gates, against timer jitter.
OVERHEAD_FLOOR_S = 0.05

CPU_COUNT = os.cpu_count() or 1
WORKERS = min(4, max(2, CPU_COUNT))

#: Reference wall seconds per stage (recorded with 2 workers on 1 CPU).
REFERENCE_WALL_S = {
    "synthesize": 1.2825510949987802,
    "aggregate": 0.028328197999144322,
    "score_serial": 0.24866318199929083,
    "score_parallel": 0.4334691069998371,
    "score_parallel_nocapture": 0.25596239600054105,
    "score_parallel_deadline": 0.46958915799950773,
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
    serial = score_matrix(instances, basis, dtype=np.float32)
    walls["score_serial"] = time.perf_counter() - started

    # Spawn the workers outside the timed region: the committed cost of a
    # persistent pool is paid once per process, not once per batch.
    warm_pool(WORKERS)
    obs.reset_report()
    started = time.perf_counter()
    parallel = score_matrix(instances, basis, dtype=np.float32, workers=WORKERS)
    walls["score_parallel"] = time.perf_counter() - started

    # Harvest the parallel stage's shard imbalance from the unified run
    # report while it covers exactly this pass.
    report = obs.build_report(include_spans=False)
    stage = report["stages"][-1] if report["stages"] else None

    # Time the identical pass with worker-telemetry capture disabled to
    # measure capture overhead.  Running it second hands it every warm
    # cache the captured pass built, so the measured overhead is an upper
    # bound on the true cost.
    saved = os.environ.get("REPRO_OBS_CAPTURE")
    os.environ["REPRO_OBS_CAPTURE"] = "0"
    try:
        started = time.perf_counter()
        bare = score_matrix(instances, basis, dtype=np.float32, workers=WORKERS)
        walls["score_parallel_nocapture"] = time.perf_counter() - started
    finally:
        if saved is None:
            os.environ.pop("REPRO_OBS_CAPTURE", None)
        else:
            os.environ["REPRO_OBS_CAPTURE"] = saved

    # The identical pass again with the failure-domain layer armed (hard
    # deadlines generous enough to never fire on a healthy run): measures
    # the watchdog's polling overhead on the fault-free path.
    with deadline_scope(TaskDeadline(hard_timeout_s=120.0)):
        started = time.perf_counter()
        guarded = score_matrix(instances, basis, dtype=np.float32, workers=WORKERS)
        walls["score_parallel_deadline"] = time.perf_counter() - started

    return walls, serial, parallel, bare, guarded, stage


@pytest.mark.benchmark(group="scale")
def test_fleet_scale_scaling(benchmark, emit_report, check_walls):
    walls, serial, parallel, bare, guarded, stage = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )

    # Worker count must not change a single score bit — and neither may
    # the telemetry kill switch or the failure-domain layer.
    assert np.array_equal(serial, parallel)
    assert np.array_equal(parallel, bare)
    assert np.array_equal(parallel, guarded)

    speedup = (
        walls["score_serial"] / walls["score_parallel"]
        if walls["score_parallel"] > 0
        else float("inf")
    )
    efficiency = speedup / WORKERS
    capture_overhead = (
        walls["score_parallel"] / walls["score_parallel_nocapture"] - 1.0
        if walls["score_parallel_nocapture"] > 0
        else 0.0
    )
    recovery_overhead = (
        walls["score_parallel_deadline"] / walls["score_parallel"] - 1.0
        if walls["score_parallel"] > 0
        else 0.0
    )

    emit_report(
        "scale",
        "\n".join(
            [
                "fleet-scale scoring: serial vs shared-memory pool",
                f"  instances         {N_INSTANCES}",
                f"  basis traces      {N_BASIS}",
                f"  workers           {WORKERS} (host cpus: {CPU_COUNT})",
                f"  synthesize        {walls['synthesize']:.3f}s",
                f"  aggregate         {walls['aggregate']:.3f}s",
                f"  score serial      {walls['score_serial']:.3f}s",
                f"  score parallel    {walls['score_parallel']:.3f}s",
                f"  score no-capture  {walls['score_parallel_nocapture']:.3f}s",
                f"  score deadline    {walls['score_parallel_deadline']:.3f}s",
                f"  capture overhead  {capture_overhead:+.1%}"
                f" (limit {MAX_CAPTURE_OVERHEAD:.0%})",
                f"  recovery overhead {recovery_overhead:+.1%}"
                f" (limit {MAX_RECOVERY_OVERHEAD:.0%})",
                f"  shard imbalance   "
                + (f"{stage['imbalance']:.2f}x" if stage else "-"),
                f"  speedup           {speedup:.2f}x",
                f"  efficiency        {efficiency:.2f} (target {MIN_EFFICIENCY})",
            ]
        ),
    )

    failures = check_walls(walls, REFERENCE_WALL_S)
    if CPU_COUNT >= 2:
        if efficiency < MIN_EFFICIENCY:
            failures.append(
                f"parallel scoring efficiency {efficiency:.2f} below "
                f"{MIN_EFFICIENCY} at {WORKERS} workers"
            )
        capture_limit = (
            walls["score_parallel_nocapture"] * (1.0 + MAX_CAPTURE_OVERHEAD)
            + OVERHEAD_FLOOR_S
        )
        if walls["score_parallel"] > capture_limit:
            failures.append(
                f"worker-telemetry capture costs {capture_overhead:+.1%}: the "
                f"captured pass took {walls['score_parallel']:.3f}s, over "
                f"{capture_limit:.3f}s"
            )
        recovery_limit = (
            walls["score_parallel"] * (1.0 + MAX_RECOVERY_OVERHEAD)
            + OVERHEAD_FLOOR_S
        )
        if walls["score_parallel_deadline"] > recovery_limit:
            failures.append(
                f"an armed deadline costs {recovery_overhead:+.1%}: the "
                f"guarded pass took {walls['score_parallel_deadline']:.3f}s, "
                f"over {recovery_limit:.3f}s"
            )
    assert not failures, "\n".join(failures)
