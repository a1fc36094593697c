"""Infrastructure faults on the worker pool: the scenario suite.

The scenario suite is the acceptance test of the failure-domain layer:
for every way a pool task can misbehave (its worker is killed, it hangs,
it runs slow, it raises, it hits ``ENOSPC`` on ``/dev/shm``, it ships an
oversized telemetry bundle), a pooled stage running under a
:class:`TaskDeadline` must

* complete in bounded wall time,
* return results bit-identical to a fault-free serial run,
* leak no ``/dev/shm`` segments, and
* emit the corresponding ``pool.*`` telemetry.

Each scenario submits a module-level task function that misbehaves on its
own, on given shards' first attempt (or on every attempt).  Pool workers
share no memory and a killed worker keeps nothing, so attempts are counted
in files under the test's ``tmp_path``.  Each fault task emits a
``fault_injection`` event before it misbehaves.  Pooled work never runs in
the coordinator, so every fault must be contained by the retry rounds and
the hard-deadline watchdog.

When ``REPRO_INFRA_EVENTS`` names a file, every scenario appends its
recorded event log there as JSON Lines — CI uploads that file as the
chaos-run artifact.
"""

import errno
import os
import subprocess
import sys
import textwrap
import time
from functools import partial

import numpy as np
import pytest

import repro
from conftest import announce, first_attempt
from repro import obs
from repro.engine.deadline import TaskDeadline
from repro.engine.parallel import RunFailure, WorkerPool, run_many
from repro.engine.sharedmem import SharedMatrix, attach_rows, shard_ranges
from repro.obs import events as obs_events

#: Appended to by every scenario when ``REPRO_INFRA_EVENTS`` is set.
EVENTS_ENV = "REPRO_INFRA_EVENTS"

#: Far beyond any deadline used here.
HANG_S = 60.0


@pytest.fixture(autouse=True)
def _clean_surfaces():
    obs.reset_metrics()
    yield
    obs.reset_metrics()


@pytest.fixture(autouse=True)
def _no_shm_leaks():
    """Every test must leave /dev/shm exactly as it found it."""
    if not os.path.isdir("/dev/shm"):
        yield
        return
    before = set(os.listdir("/dev/shm"))
    yield
    leaked = set(os.listdir("/dev/shm")) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def publish(log):
    """Append a scenario's event log to the CI artifact file, if configured."""
    path = os.environ.get(EVENTS_ENV, "").strip()
    if not path:
        return
    text = log.to_jsonl()
    if text:
        with open(path, "a") as handle:
            handle.write(text + "\n")


# ----------------------------------------------------------------------
# module-level fault tasks (must pickle into fork workers)
# ----------------------------------------------------------------------
class InjectedFault(RuntimeError):
    """What a raising fault task raises."""


def shard_sum(handle, start, stop):
    return float(attach_rows(handle, start, stop).sum())


def kill_once(counts, shard, faulty, handle, start, stop):
    if faulty and first_attempt(counts, shard, "kill"):
        os._exit(13)
    return shard_sum(handle, start, stop)


def hang_once(counts, shard, faulty, handle, start, stop):
    if faulty and first_attempt(counts, shard, "hang"):
        time.sleep(HANG_S)
    return shard_sum(handle, start, stop)


def slow_once(counts, shard, faulty, handle, start, stop):
    if faulty and first_attempt(counts, shard, "slow"):
        time.sleep(1.0)
    return shard_sum(handle, start, stop)


def raise_once(counts, shard, faulty, handle, start, stop):
    if faulty and first_attempt(counts, shard, "exception"):
        raise InjectedFault(f"injected worker exception (shard {shard})")
    return shard_sum(handle, start, stop)


def shm_exhausted_once(counts, shard, faulty, value):
    if faulty and first_attempt(counts, shard, "shm_exhaust"):
        raise OSError(errno.ENOSPC, f"injected /dev/shm exhaustion (shard {shard})")
    return value


def oversized_bundle_once(counts, shard, faulty, value):
    if faulty and first_attempt(counts, shard, "oversized_bundle"):
        for index in range(2000):
            obs_events.emit(
                obs_events.FAULT_INJECTION,
                source="fault_task.payload",
                shard=shard,
                index=index,
            )
    return value


def raise_always(shard, faulty, value):
    if faulty:
        announce("exception", shard)
        raise InjectedFault(f"injected worker exception (shard {shard})")
    return value


def shard_tasks(counts, shared, rows, shards, faulty):
    """``map_shards`` tasks ``(counts, shard, faulty, handle, start, stop)``."""
    return [
        (str(counts), shard, shard in faulty, shared.handle, start, stop)
        for shard, (start, stop) in enumerate(shard_ranges(rows, shards))
    ]


def specs(task, counts, n, faulty):
    """``run_many`` specs: ``task`` bound to each shard's counts and value."""
    return [
        partial(task, str(counts), shard, shard in faulty, shard) for shard in range(n)
    ]


# ----------------------------------------------------------------------
# the scenario suite
# ----------------------------------------------------------------------
def test_scenario_kill_recovers_by_retry(tmp_path):
    """A worker killed mid-task costs one attempt, never the results."""
    matrix = np.arange(64.0 * 8).reshape(64, 8)
    expected = [float(matrix[a:b].sum()) for a, b in shard_ranges(64, 4)]
    deadline = TaskDeadline(hard_timeout_s=30.0)
    with obs_events.recording() as log:
        with WorkerPool(2) as pool, SharedMatrix.create(matrix) as shared:
            results = pool.map_shards(
                kill_once,
                shard_tasks(tmp_path, shared, 64, 4, faulty={1}),
                max_attempts=3,
                deadline=deadline,
            )
    assert results == expected
    assert obs.counter_value("pool.worker_deaths") >= 1.0
    assert obs.counter_value("pool.tasks_retried") >= 1.0
    publish(log)


def test_scenario_hang_bounded_by_hard_deadline(tmp_path):
    """A hung worker is killed at the hard deadline; the retry recovers."""
    matrix = np.ones((32, 4))
    expected = [float(matrix[a:b].sum()) for a, b in shard_ranges(32, 2)]
    deadline = TaskDeadline(hard_timeout_s=1.0)
    with obs_events.recording() as log:
        started = time.perf_counter()
        with WorkerPool(2) as pool, SharedMatrix.create(matrix) as shared:
            results = pool.map_shards(
                hang_once,
                shard_tasks(tmp_path, shared, 32, 2, faulty={0}),
                max_attempts=3,
                deadline=deadline,
            )
        elapsed = time.perf_counter() - started
    assert results == expected
    assert elapsed < 30.0  # nowhere near the 60s hang
    assert obs.counter_value("pool.task_timeouts") >= 1.0
    assert log.by_kind(obs_events.TASK_TIMEOUT)
    publish(log)


def test_scenario_slow_shard_waited_for_under_hard_deadline(tmp_path):
    """A slow shard under its hard deadline is waited for, not killed."""
    matrix = np.arange(48.0 * 5).reshape(48, 5)
    expected = [float(matrix[a:b].sum()) for a, b in shard_ranges(48, 3)]
    with obs_events.recording() as log:
        started = time.perf_counter()
        with WorkerPool(2) as pool, SharedMatrix.create(matrix) as shared:
            results = pool.map_shards(
                slow_once,
                shard_tasks(tmp_path, shared, 48, 3, faulty={1}),
                deadline=TaskDeadline(hard_timeout_s=5.0),
            )
        elapsed = time.perf_counter() - started
    assert results == expected
    assert elapsed >= 1.0  # waited the slow shard out
    assert obs.counter_value("pool.task_timeouts") == 0.0
    assert obs.counter_value("pool.tasks_retried") == 0.0
    assert not log.by_kind(obs_events.TASK_TIMEOUT)
    assert len(log.by_kind(obs_events.FAULT_INJECTION)) == 1
    publish(log)


def test_scenario_exception_retried_to_success(tmp_path):
    """Worker-raised exceptions burn attempts, not results."""
    matrix = np.arange(48.0).reshape(16, 3)
    expected = [float(matrix[a:b].sum()) for a, b in shard_ranges(16, 4)]
    with obs_events.recording() as log:
        with WorkerPool(2) as pool, SharedMatrix.create(matrix) as shared:
            results = pool.map_shards(
                raise_once,
                shard_tasks(tmp_path, shared, 16, 4, faulty={0, 1, 2, 3}),
                max_attempts=2,
                deadline=TaskDeadline(hard_timeout_s=30.0),
            )
    assert results == expected
    assert obs.counter_value("pool.tasks_failed") == 4.0  # one per shard
    assert len(log.by_kind(obs_events.FAULT_INJECTION)) == 4
    assert len(log.by_kind(obs_events.TASK_ERROR)) == 4
    publish(log)


def test_scenario_shm_exhaustion_retried_to_success(tmp_path):
    """ENOSPC from /dev/shm is an ordinary retryable failure."""
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            results = run_many(
                specs(shm_exhausted_once, tmp_path, 3, faulty={0, 1}),
                workers=2,
                pool=pool,
                max_attempts=2,
                retry_backoff_s=0.0,
                deadline=TaskDeadline(hard_timeout_s=30.0),
            )
    assert [artifact.result for artifact in results] == [0, 1, 2]
    assert not any(isinstance(entry, RunFailure) for entry in results)
    assert [e.fields["error_type"] for e in log.by_kind(obs_events.TASK_ERROR)] == [
        "OSError",
        "OSError",
    ]
    publish(log)


def test_scenario_oversized_bundle_survives_the_merge(tmp_path):
    """A pathologically large telemetry bundle still ships and merges."""
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            results = run_many(
                specs(oversized_bundle_once, tmp_path, 2, faulty={0}),
                workers=2,
                pool=pool,
                retry_backoff_s=0.0,
                deadline=TaskDeadline(hard_timeout_s=30.0),
            )
    assert [artifact.result for artifact in results] == [0, 1]
    payload = [
        event
        for event in log.by_kind(obs_events.FAULT_INJECTION)
        if event.source == "fault_task.payload"
    ]
    assert len(payload) == 2000
    publish(log)


def test_scenario_permanent_exception_exhausts_cleanly():
    """A fault outlasting every retry yields a structured RunFailure."""
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            results = run_many(
                [partial(raise_always, shard, shard == 1, shard) for shard in range(3)],
                workers=2,
                pool=pool,
                max_attempts=2,
                retry_backoff_s=0.0,
                deadline=TaskDeadline(hard_timeout_s=30.0),
            )
    assert results[0].result == 0 and results[2].result == 2
    failure = results[1]
    assert isinstance(failure, RunFailure)
    assert failure.attempts == 2
    assert failure.error_type == "InjectedFault"
    assert len(log.by_kind(obs_events.FAULT_INJECTION)) == 2
    publish(log)


@pytest.mark.parametrize("fault", ["kill", "exception"])
def test_a_bare_coordinator_still_counts_pool_health(tmp_path, fault):
    """Pool health is plain metrics: with no tracer and no event log, the
    coordinator still counts every dispatch, retry, failure and death."""
    task = {"kill": kill_once, "exception": raise_once}[fault]
    matrix = np.arange(24.0).reshape(8, 3)
    expected = [float(matrix[a:b].sum()) for a, b in shard_ranges(8, 2)]
    assert obs.get_tracer() is None and obs_events.get_event_log() is None
    with WorkerPool(2) as pool, SharedMatrix.create(matrix) as shared:
        results = pool.map_shards(
            task,
            shard_tasks(tmp_path, shared, 8, 2, faulty={0}),
            max_attempts=3,
            deadline=TaskDeadline(hard_timeout_s=30.0),
        )
    assert results == expected
    assert obs.counter_value("pool.tasks_completed") == 2.0
    assert obs.counter_value("pool.tasks_retried") >= 1.0
    assert obs.counter_value("pool.tasks_failed") >= 1.0
    assert obs.counter_value("pool.tasks_dispatched") == 2.0 + obs.counter_value(
        "pool.tasks_retried"
    )
    deaths = obs.counter_value("pool.worker_deaths")
    assert deaths >= 1.0 if fault == "kill" else deaths == 0.0
    assert obs.global_registry().histograms["pool.task_exec_s"].count == 2


def test_first_attempt_fires_once_per_shard(tmp_path):
    """The fault tasks' trigger: true on each shard's first attempt only,
    counted per ``counts`` directory, and announced once under a log."""
    other = tmp_path / "other"
    other.mkdir()
    with obs_events.recording() as log:
        draws = [
            first_attempt(str(tmp_path), shard, "kill") for shard in (0, 1, 0, 1, 0)
        ]
        assert first_attempt(str(other), 0, "hang")
    assert draws == [True, True, False, False, False]
    announced = [
        (event.fields["fault"], event.fields["shard"], event.fields["attempt"])
        for event in log.by_kind(obs_events.FAULT_INJECTION)
    ]
    assert announced == [("kill", 0, 1), ("kill", 1, 1), ("hang", 0, 1)]


#: Runs in a fresh interpreter, where no resource tracker has started yet:
#: the pool forks before the segment exists, and shard 0 exits right after
#: attaching it.  The retry must re-attach the coordinator's segment.
_DEATH_AFTER_ATTACH = textwrap.dedent(
    """
    import os
    import sys

    import numpy as np

    from repro.engine.parallel import WorkerPool
    from repro.engine.sharedmem import SharedMatrix, attach_rows, shard_ranges

    MARKER = sys.argv[1]


    def exit_after_attach(handle, start, stop):
        rows = attach_rows(handle, start, stop)
        if start == 0 and not os.path.exists(MARKER):
            open(MARKER, "w").close()
            os._exit(3)
        return float(rows.sum())


    with WorkerPool(2) as pool:
        pool.warm()
        with SharedMatrix.create(np.arange(40.0).reshape(8, 5)) as shared:
            tasks = [(shared.handle, a, b) for a, b in shard_ranges(8, 4)]
            print(
                pool.map_shards(
                    exit_after_attach, tasks, max_attempts=3, retry_backoff_s=1.0
                )
            )
    """
)


def test_worker_death_after_attach_keeps_the_segment(tmp_path):
    """A worker that dies holding an attachment must not unlink the segment.

    Below Python 3.13 an attach registers the segment with the worker's
    resource tracker.  A pool warmed before the coordinator's tracker ran
    gave each worker a private tracker, which unlinked the segment when
    its worker died, so the retry failed with ``FileNotFoundError``.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, "-c", _DEATH_AFTER_ATTACH, str(tmp_path / "died")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[45.0, 145.0, 245.0, 345.0]"
    assert (tmp_path / "died").exists()  # shard 0 really died once
    assert "resource_tracker" not in completed.stderr
