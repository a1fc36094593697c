"""Fleet-scale scaling benchmark → ``BENCH_scale.json``.

Synthesizes a 100k-instance fleet (``BENCH_SCALE_INSTANCES`` overrides; the
harness is sized for 100k–1M) directly as one float32 trace matrix — no
Python-level per-instance objects — then times the hot stages the
persistent worker pool is supposed to accelerate:

* ``synthesize``  — vectorized diurnal + phase + noise fleet construction;
* ``aggregate``   — the asynchrony numerator/denominator over the whole
  fleet (per-row peaks and the aggregate-trace peak);
* ``score_serial``   — the I-to-S score matrix in one process;
* ``score_parallel`` — the same scores sharded across the persistent pool
  over shared-memory views (:mod:`repro.engine.sharedmem`).

Scores are row-independent, so serial and parallel results must be
*identical* — asserted every run.  The scaling gate (parallel efficiency
``speedup / workers >= 0.7``) only applies on multi-CPU hosts;
single-CPU runners record the numbers and skip the assertion, and
``tools/bench_compare.py`` applies the same rule to the emitted document.

Three observability sections ride along in ``BENCH_scale.json``:

* ``run_report`` — the parallel pass's per-worker imbalance and
  utilization harvested from the unified run report
  (:mod:`repro.obs.report`), so BENCH documents carry the *shape* of the
  parallel stage, not just its wall time.  The full report is also
  written to ``run_report.json`` at the repo root for CI artifact upload;
* ``capture`` — the same parallel pass timed again with
  ``REPRO_OBS_CAPTURE=0``, recording worker-telemetry capture overhead as
  a fraction.  ``tools/bench_compare.py`` gates it at 5% on multi-CPU
  runners;
* ``recovery`` — the same pass once more under an armed (but never
  firing) :class:`repro.engine.deadline.TaskDeadline`, recording the
  failure-domain layer's fault-free overhead (watchdog polling).
  ``tools/bench_compare.py`` gates it at 3% on multi-CPU runners.
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

N_INSTANCES = int(os.environ.get("BENCH_SCALE_INSTANCES", "100000"))
STEP_MINUTES = 60
N_BASIS = 8
SEED = 0
MIN_EFFICIENCY = 0.7
MAX_CAPTURE_OVERHEAD = 0.05
MAX_RECOVERY_OVERHEAD = 0.03

CPU_COUNT = os.cpu_count() or 1
WORKERS = int(os.environ.get("BENCH_SCALE_WORKERS", "0")) or min(
    4, max(2, CPU_COUNT)
)


def _synthesize(n_instances: int, grid: TimeGrid, rng: np.random.Generator) -> TraceSet:
    """A seeded synthetic fleet: diurnal base + per-instance phase + noise.

    Built as one vectorized float32 matrix — at 1M instances a row-by-row
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

    # Harvest the parallel stage's shape (imbalance, per-worker economics)
    # from the unified run report while it covers exactly this pass.
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
def test_fleet_scale_scaling(benchmark, emit_report):
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

    obs.update_bench(
        "scale",
        "workload",
        {
            "n_instances": N_INSTANCES,
            "n_samples": 7 * 24 * 60 // STEP_MINUTES,
            "step_minutes": STEP_MINUTES,
            "n_basis": N_BASIS,
            "dtype": "float32",
            "seed": SEED,
        },
    )
    obs.update_bench(
        "scale",
        "stages",
        [
            {"stage": stage, "wall_s": wall, "calls": 1}
            for stage, wall in walls.items()
        ],
    )
    obs.update_bench(
        "scale",
        "scaling",
        {
            "workers": WORKERS,
            "cpu_count": CPU_COUNT,
            "serial_wall_s": walls["score_serial"],
            "parallel_wall_s": walls["score_parallel"],
            "speedup": speedup,
            "efficiency": efficiency,
            "min_efficiency": MIN_EFFICIENCY,
        },
    )
    obs.update_bench(
        "scale",
        "run_report",
        {
            "stage": stage["label"] if stage else None,
            "imbalance": stage["imbalance"] if stage else None,
            "mean_exec_s": stage["mean_exec_s"] if stage else None,
            "max_exec_s": stage["max_exec_s"] if stage else None,
            "mean_queue_s": stage["mean_queue_s"] if stage else None,
            "per_worker": stage["per_worker"] if stage else {},
        },
    )
    obs.update_bench(
        "scale",
        "capture",
        {
            "workers": WORKERS,
            "cpu_count": CPU_COUNT,
            "capture_wall_s": walls["score_parallel"],
            "no_capture_wall_s": walls["score_parallel_nocapture"],
            "overhead_frac": capture_overhead,
            "max_overhead_frac": MAX_CAPTURE_OVERHEAD,
        },
    )
    obs.update_bench(
        "scale",
        "recovery",
        {
            "workers": WORKERS,
            "cpu_count": CPU_COUNT,
            "guarded_wall_s": walls["score_parallel_deadline"],
            "bare_wall_s": walls["score_parallel"],
            "overhead_frac": recovery_overhead,
            "max_overhead_frac": MAX_RECOVERY_OVERHEAD,
        },
    )
    # The full report goes to the repo root so CI uploads it with the
    # BENCH documents (bench-diff artifact).
    obs.write_report(obs.bench_path("scale").parent / "run_report.json")

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

    # Near-linear scaling gate — only meaningful when the host actually
    # has the cores (bench_compare applies the identical rule).
    if CPU_COUNT >= 2:
        assert efficiency >= MIN_EFFICIENCY, (
            f"parallel scoring efficiency {efficiency:.2f} below "
            f"{MIN_EFFICIENCY} at {WORKERS} workers"
        )
