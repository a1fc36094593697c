"""Serial vs parallel chaos-suite execution, gated in this script.

Runs the full named scenario suite through ``repro.engine.run_many`` twice
— once serially, once across a process pool — asserts the outcomes are
identical either way, and gates the two timings:

* both passes stay within the wall bound of ``benchmarks/conftest.py``
  (3x their reference + 0.05 s);
* on a host with at least two CPUs the pool must beat the serial pass by
  :data:`MIN_SPEEDUP`.  A single CPU cannot run two workers at once, so
  there the speedup is only reported.

Scale is deliberately small: the point is the executor overhead and the
speedup ratio, not the simulation itself.
"""

import os
import time

import pytest

from repro import obs
from repro.engine import chaos_spec, run_many, warm_pool
from repro.faults.harness import DEFAULT_SUITE

N_INSTANCES = 96
STEP_MINUTES = 60
WEEKS = 2
WORKERS = min(4, max(2, os.cpu_count() or 1))

#: The pool must be at least this much faster than serial on 2+ CPUs.
MIN_SPEEDUP = 1.3

#: Reference wall seconds per pass (recorded with 2 workers on 1 CPU).
REFERENCE_WALL_S = {
    "chaos_suite_serial": 0.9323336280003787,
    "chaos_suite_parallel": 1.440528171000551,
}


def _specs():
    return [
        chaos_spec(
            scenario,
            dc_name="DC1",
            n_instances=N_INSTANCES,
            step_minutes=STEP_MINUTES,
            weeks=WEEKS,
        )
        for scenario in DEFAULT_SUITE
    ]


def _timed(specs, workers):
    start = time.perf_counter()
    artifacts = run_many(specs, workers=workers)
    return artifacts, time.perf_counter() - start


def _run():
    specs = _specs()
    # Warm the dataset caches first: the serial pass should not pay the
    # one-off synthesis cost the forked workers then inherit for free.
    run_many(specs[:1], workers=1)
    serial = _timed(specs, 1)
    # Spawn the persistent pool outside the timed region: its workers are
    # a once-per-process cost shared by every later batch, and forking now
    # hands them the warm dataset caches.
    warm_pool(WORKERS)
    obs.reset_metrics()
    parallel = _timed(specs, WORKERS)
    # The pooled pass is the only one the pool's histogram covers; its task
    # imbalance, max over mean execution time, goes into the rendered result.
    execs = obs.global_registry().histograms.get("pool.task_exec_s")
    imbalance = execs.max / (execs.total / execs.count) if execs is not None else None
    return specs, serial, parallel, imbalance


@pytest.mark.benchmark(group="engine")
def test_chaos_suite_parallel_speedup(benchmark, emit_report, check_walls):
    specs, (serial, serial_s), (parallel, parallel_s), imbalance = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )

    # Determinism: worker count must not change outcomes.
    assert len(serial) == len(parallel) == len(specs)
    for left, right in zip(serial, parallel):
        assert left.result.scenario.name == right.result.scenario.name
        assert left.result.passed == right.result.passed
        assert left.result.quality_chaos == right.result.quality_chaos

    cpu_count = os.cpu_count() or 1
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    emit_report(
        "engine_parallel",
        "\n".join(
            [
                "chaos suite: serial vs process pool",
                f"  scenarios         {len(specs)}",
                f"  instances         {N_INSTANCES}",
                f"  workers           {WORKERS} (host cpus: {cpu_count})",
                f"  serial wall       {serial_s:.3f}s",
                f"  parallel wall     {parallel_s:.3f}s",
                f"  speedup           {speedup:.2f}x",
                f"  task imbalance    "
                + (f"{imbalance:.2f}x" if imbalance is not None else "-"),
            ]
        ),
    )

    failures = check_walls(
        {"chaos_suite_serial": serial_s, "chaos_suite_parallel": parallel_s},
        REFERENCE_WALL_S,
    )
    if cpu_count >= 2 and speedup < MIN_SPEEDUP:
        failures.append(
            f"process pool speedup {speedup:.2f}x is below {MIN_SPEEDUP}x "
            f"at {WORKERS} workers on {cpu_count} CPUs"
        )
    assert not failures, "\n".join(failures)
