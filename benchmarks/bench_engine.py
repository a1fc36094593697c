"""Serial vs parallel chaos-suite execution, gated in this script.

Runs the full named scenario suite through ``repro.engine.run_many``
serially, then once untimed across a process pool to warm its workers,
then three timed times across it — with worker-telemetry capture on, with
it off (``REPRO_OBS_CAPTURE=0``), and under an armed but never firing
:class:`repro.engine.deadline.TaskDeadline` — asserts the outcomes are
identical every time, and gates the timings:

* the serial and the captured pooled pass stay within the wall bound of
  ``benchmarks/conftest.py`` (3x their reference + 0.05 s);
* on a host with at least two CPUs:

  * the pool must beat the serial pass by :data:`MIN_SPEEDUP`;
  * capture overhead: the captured pass ≤ the capture-off pass ×
    (1 + :data:`MAX_CAPTURE_OVERHEAD`) + :data:`OVERHEAD_FLOOR_S`;
  * recovery overhead: the deadline-guarded pass ≤ the captured pass ×
    (1 + :data:`MAX_RECOVERY_OVERHEAD`) + :data:`OVERHEAD_FLOOR_S`.

  A single CPU cannot run two workers at once, so there the ratios are
  only reported.

Scale is deliberately small: the point is the executor overhead and the
speedup ratio, not the simulation itself.
"""

import os
import time

import pytest

from repro import obs
from repro.engine import chaos_spec, run_many, warm_pool
from repro.engine.deadline import TaskDeadline, deadline_scope
from repro.faults.harness import DEFAULT_SUITE

N_INSTANCES = 96
STEP_MINUTES = 60
WEEKS = 2
WORKERS = min(4, max(2, os.cpu_count() or 1))

#: The pool must be at least this much faster than serial on 2+ CPUs.
MIN_SPEEDUP = 1.3
MAX_CAPTURE_OVERHEAD = 0.05
MAX_RECOVERY_OVERHEAD = 0.03
#: Additive slack on the two overhead gates, against timer jitter.
OVERHEAD_FLOOR_S = 0.05

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
    """Every pass's artifacts and wall seconds, by stage name."""
    specs = _specs()
    passes = {}
    # Warm the dataset caches first: the serial pass should not pay the
    # one-off synthesis cost the forked workers then inherit for free.
    run_many(specs[:1], workers=1)
    passes["chaos_suite_serial"] = _timed(specs, 1)
    # Spawn the persistent pool outside the timed region: its workers are
    # a once-per-process cost shared by every later batch, and forking now
    # hands them the warm dataset caches.  One untimed pooled pass then
    # pays each worker's first run of the suite, which the timed passes
    # would otherwise count as capture cost.
    warm_pool(WORKERS)
    run_many(specs, workers=WORKERS)
    obs.reset_metrics()
    passes["chaos_suite_parallel"] = _timed(specs, WORKERS)
    # So far the pool's histogram covers this pass alone; its task
    # imbalance, max over mean execution time, goes into the rendered result.
    execs = obs.global_registry().histograms.get("pool.task_exec_s")
    imbalance = execs.max / (execs.total / execs.count) if execs is not None else None

    # The identical pooled pass with worker-telemetry capture disabled, to
    # price capture.  Running it second hands it every warm cache the
    # captured pass built, so the measured overhead is an upper bound on
    # the true cost.
    saved = os.environ.get("REPRO_OBS_CAPTURE")
    os.environ["REPRO_OBS_CAPTURE"] = "0"
    try:
        passes["chaos_suite_parallel_nocapture"] = _timed(specs, WORKERS)
    finally:
        if saved is None:
            os.environ.pop("REPRO_OBS_CAPTURE", None)
        else:
            os.environ["REPRO_OBS_CAPTURE"] = saved

    # The identical pass again with the failure-domain layer armed (a hard
    # deadline generous enough never to fire on a healthy run): prices the
    # watchdog's polling on the fault-free path.
    with deadline_scope(TaskDeadline(hard_timeout_s=120.0)):
        passes["chaos_suite_parallel_deadline"] = _timed(specs, WORKERS)
    return specs, passes, imbalance


@pytest.mark.benchmark(group="engine")
def test_chaos_suite_parallel_speedup(benchmark, emit_report, check_walls):
    specs, passes, imbalance = benchmark.pedantic(_run, rounds=1, iterations=1)
    walls = {stage: wall for stage, (_, wall) in passes.items()}

    # Determinism: neither the worker count, the telemetry kill switch nor
    # the failure-domain layer may change outcomes.
    serial, _ = passes["chaos_suite_serial"]
    for artifacts, _ in passes.values():
        assert len(artifacts) == len(specs)
        for left, right in zip(serial, artifacts):
            assert left.result.scenario.name == right.result.scenario.name
            assert left.result.passed == right.result.passed
            assert left.result.quality_chaos == right.result.quality_chaos

    cpu_count = os.cpu_count() or 1
    serial_s = walls["chaos_suite_serial"]
    parallel_s = walls["chaos_suite_parallel"]
    bare_s = walls["chaos_suite_parallel_nocapture"]
    guarded_s = walls["chaos_suite_parallel_deadline"]
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    capture_overhead = parallel_s / bare_s - 1.0 if bare_s > 0 else 0.0
    recovery_overhead = guarded_s / parallel_s - 1.0 if parallel_s > 0 else 0.0
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
                f"  no-capture wall   {bare_s:.3f}s",
                f"  deadline wall     {guarded_s:.3f}s",
                f"  speedup           {speedup:.2f}x",
                f"  capture overhead  {capture_overhead:+.1%}"
                f" (limit {MAX_CAPTURE_OVERHEAD:.0%})",
                f"  recovery overhead {recovery_overhead:+.1%}"
                f" (limit {MAX_RECOVERY_OVERHEAD:.0%})",
                f"  task imbalance    "
                + (f"{imbalance:.2f}x" if imbalance is not None else "-"),
            ]
        ),
    )

    failures = check_walls(walls, REFERENCE_WALL_S)
    if cpu_count >= 2:
        if speedup < MIN_SPEEDUP:
            failures.append(
                f"process pool speedup {speedup:.2f}x is below {MIN_SPEEDUP}x "
                f"at {WORKERS} workers on {cpu_count} CPUs"
            )
        capture_limit = bare_s * (1.0 + MAX_CAPTURE_OVERHEAD) + OVERHEAD_FLOOR_S
        if parallel_s > capture_limit:
            failures.append(
                f"worker-telemetry capture costs {capture_overhead:+.1%}: the "
                f"captured pass took {parallel_s:.3f}s, over {capture_limit:.3f}s"
            )
        recovery_limit = parallel_s * (1.0 + MAX_RECOVERY_OVERHEAD) + OVERHEAD_FLOOR_S
        if guarded_s > recovery_limit:
            failures.append(
                f"an armed deadline costs {recovery_overhead:+.1%}: the "
                f"guarded pass took {guarded_s:.3f}s, over {recovery_limit:.3f}s"
            )
    assert not failures, "\n".join(failures)
