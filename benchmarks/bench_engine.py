"""Serial vs parallel chaos-suite execution, gated in this script.

Runs the full named scenario suite through ``repro.engine.run_many``
serially, then once untimed across a process pool to warm its workers,
then timed across it in :data:`OVERHEAD_PASSES` alternating rounds of four
passes: bare (this process has no tracer and no event log), under a
coordinator ``obs.tracing()``, under an armed but never firing
:class:`repro.engine.deadline.TaskDeadline`, and under a tracer plus an
event log.  The serial suite likewise runs bare and under a tracer plus an
event log.  Every pass must produce the serial pass's outcomes, and the
timings are gated:

* the first serial and the first bare pooled pass stay within the wall
  bound of ``benchmarks/conftest.py`` (3x their reference + 0.05 s);
* on a host with at least two CPUs:

  * the first bare pooled pass must beat the first serial pass by
    :data:`MIN_SPEEDUP`;
  * capture overhead: the fastest traced pooled pass ≤ the fastest bare
    pooled pass × (1 + :data:`MAX_CAPTURE_OVERHEAD`) +
    :data:`OVERHEAD_FLOOR_S`;
  * recovery overhead: the fastest deadline-guarded pooled pass ≤ the
    fastest bare pooled pass × (1 + :data:`MAX_RECOVERY_OVERHEAD`) +
    :data:`OVERHEAD_FLOOR_S`.

  A single CPU cannot run two workers at once, so there the ratios are
  only reported.

The passes under a tracer plus an event log, serial and pooled, are
reported with their overhead over the bare pass and not gated.  Each
overhead compares the fastest of :data:`OVERHEAD_PASSES` passes per side:
single passes on a shared host spread by tens of percent.

Scale is deliberately small: the point is the executor overhead and the
speedup ratio, not the simulation itself.
"""

import os
import time
from contextlib import ExitStack

import pytest

from repro import obs
from repro.engine import chaos_spec, run_many, warm_pool
from repro.engine.deadline import TaskDeadline, deadline_scope
from repro.faults.harness import DEFAULT_SUITE
from repro.obs import events as obs_events

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
#: Passes per side of each overhead; the fastest one counts.
OVERHEAD_PASSES = 3

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


def _guarded():
    """A hard deadline generous enough never to fire on a healthy run."""
    return deadline_scope(TaskDeadline(hard_timeout_s=120.0))


#: The contexts each kind of pass runs under.
CONTEXTS = {
    "bare": (),
    "traced": (obs.tracing,),
    "deadline": (_guarded,),
    "full": (obs.tracing, obs_events.recording),
}


def _timed(specs, workers, kind):
    with ExitStack() as stack:
        for context in CONTEXTS[kind]:
            stack.enter_context(context())
        start = time.perf_counter()
        artifacts = run_many(specs, workers=workers)
        wall = time.perf_counter() - start
    return artifacts, wall


def _run():
    """Every pass's artifacts and wall seconds, by mode and kind, in order."""
    specs = _specs()
    passes = {("serial", "bare"): [], ("serial", "full"): []}
    passes.update({("pooled", kind): [] for kind in CONTEXTS})
    # Warm the dataset caches first: the serial pass should not pay the
    # one-off synthesis cost the forked workers then inherit for free.
    run_many(specs[:1], workers=1)
    for _ in range(OVERHEAD_PASSES):
        for kind in ("bare", "full"):
            passes["serial", kind].append(_timed(specs, 1, kind))
    # Spawn the persistent pool outside the timed region: its workers are
    # a once-per-process cost shared by every later batch, and forking now
    # hands them the warm dataset caches.  One untimed pooled pass then
    # pays each worker's first run of the suite.
    warm_pool(WORKERS)
    run_many(specs, workers=WORKERS)
    obs.reset_metrics()
    for round_index in range(OVERHEAD_PASSES):
        for kind in CONTEXTS:
            passes["pooled", kind].append(_timed(specs, WORKERS, kind))
            if round_index == 0 and kind == "bare":
                # So far the pool's histogram covers the first bare pass
                # alone; its task imbalance, max over mean execution time,
                # goes into the rendered result.
                execs = obs.global_registry().histograms["pool.task_exec_s"]
                imbalance = execs.max / (execs.total / execs.count)
    return specs, passes, imbalance


def _overhead(wall, bare):
    return wall / bare - 1.0 if bare > 0 else 0.0


@pytest.mark.benchmark(group="engine")
def test_chaos_suite_parallel_speedup(benchmark, emit_report, check_walls):
    specs, passes, imbalance = benchmark.pedantic(_run, rounds=1, iterations=1)

    # Determinism: neither the worker count, this process's tracer and
    # event log, nor the failure-domain layer may change outcomes.
    [(serial, _), *_] = passes["serial", "bare"]
    for runs in passes.values():
        for artifacts, _ in runs:
            assert len(artifacts) == len(specs)
            for left, right in zip(serial, artifacts):
                assert left.result.scenario.name == right.result.scenario.name
                assert left.result.passed == right.result.passed
                assert left.result.quality_chaos == right.result.quality_chaos

    cpu_count = os.cpu_count() or 1
    serial_s = passes["serial", "bare"][0][1]
    parallel_s = passes["pooled", "bare"][0][1]
    fastest = {key: min(wall for _, wall in runs) for key, runs in passes.items()}
    bare_s = fastest["pooled", "bare"]
    traced_s = fastest["pooled", "traced"]
    guarded_s = fastest["pooled", "deadline"]
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    capture_overhead = _overhead(traced_s, bare_s)
    recovery_overhead = _overhead(guarded_s, bare_s)
    serial_full = _overhead(fastest["serial", "full"], fastest["serial", "bare"])
    pooled_full = _overhead(fastest["pooled", "full"], bare_s)
    emit_report(
        "engine_parallel",
        "\n".join(
            [
                "chaos suite: serial vs process pool",
                f"  scenarios         {len(specs)}",
                f"  instances         {N_INSTANCES}",
                f"  workers           {WORKERS} (host cpus: {cpu_count})",
                f"  serial wall       {serial_s:.3f}s (first pass)",
                f"  parallel wall     {parallel_s:.3f}s (first bare pass)",
                f"  speedup           {speedup:.2f}x",
                f"  fastest of {OVERHEAD_PASSES} passes:",
                f"    serial bare     {fastest['serial', 'bare']:.3f}s",
                f"    serial full     {fastest['serial', 'full']:.3f}s"
                f" ({serial_full:+.1%}, tracer + event log, not gated)",
                f"    pooled bare     {bare_s:.3f}s",
                f"    pooled traced   {traced_s:.3f}s"
                f" (capture overhead {capture_overhead:+.1%},"
                f" limit {MAX_CAPTURE_OVERHEAD:.0%})",
                f"    pooled deadline {guarded_s:.3f}s"
                f" (recovery overhead {recovery_overhead:+.1%},"
                f" limit {MAX_RECOVERY_OVERHEAD:.0%})",
                f"    pooled full     {fastest['pooled', 'full']:.3f}s"
                f" ({pooled_full:+.1%}, tracer + event log, not gated)",
                f"  task imbalance    {imbalance:.2f}x",
            ]
        ),
    )

    failures = check_walls(
        {"chaos_suite_serial": serial_s, "chaos_suite_parallel": parallel_s},
        REFERENCE_WALL_S,
    )
    if cpu_count >= 2:
        if speedup < MIN_SPEEDUP:
            failures.append(
                f"process pool speedup {speedup:.2f}x is below {MIN_SPEEDUP}x "
                f"at {WORKERS} workers on {cpu_count} CPUs"
            )
        capture_limit = bare_s * (1.0 + MAX_CAPTURE_OVERHEAD) + OVERHEAD_FLOOR_S
        if traced_s > capture_limit:
            failures.append(
                f"worker-telemetry capture under a tracer costs "
                f"{capture_overhead:+.1%}: the fastest traced pass took "
                f"{traced_s:.3f}s, over {capture_limit:.3f}s"
            )
        recovery_limit = bare_s * (1.0 + MAX_RECOVERY_OVERHEAD) + OVERHEAD_FLOOR_S
        if guarded_s > recovery_limit:
            failures.append(
                f"an armed deadline costs {recovery_overhead:+.1%}: the "
                f"fastest guarded pass took {guarded_s:.3f}s, over "
                f"{recovery_limit:.3f}s"
            )
    assert not failures, "\n".join(failures)
