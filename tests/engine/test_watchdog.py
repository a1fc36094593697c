"""The hard-deadline watchdog: hung workers are killed, stages stay bounded.

A hang is the failure mode the retry layer alone cannot handle — a hung
worker never raises, never exits, and never returns, so before the
watchdog existed one stuck task stalled ``map_shards`` / ``run_many``
forever.  These tests pin the watchdog contract:

* a task past ``hard_timeout_s`` fails that attempt with
  :class:`TaskTimeoutError` carrying the dispatch context;
* the worker processes are killed outright (graceful shutdown would
  block on the hung worker), and the pool rebuilds for the retry;
* an exhausted hang surfaces as ``TaskTimeoutError`` from ``map_shards``
  and as a structured ``RunFailure`` from ``run_many``;
* wall time is bounded by attempts x deadline, not by the hang length;
* pooled work never runs in the coordinator, so a task that hangs or
  exits its process wherever it runs cannot hang or kill the coordinator.

The last two are pinned with task functions that misbehave on their own,
with no injector armed: a fault that fires only in pool workers cannot
show where a task runs.
"""

import json
import os
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro import obs
from repro.engine import parallel
from repro.engine.chaos_infra import FAULTS_ENV
from repro.engine.deadline import TaskDeadline, TaskTimeoutError
from repro.engine.parallel import RunFailure, WorkerPool, run_many
from repro.obs import events as obs_events

#: Far beyond any deadline used here; a leaked wait would blow the test
#: session's timeout long before this elapses.
HANG_S = 120.0


@pytest.fixture(autouse=True)
def _clean_surfaces():
    obs.reset_metrics()
    yield
    obs.reset_metrics()


def ident(value):
    return value


class ReturnValue:
    def __init__(self, value):
        self.value = value

    def __call__(self):
        return self.value


def _hang_spec(shards, times):
    return json.dumps(
        {"kind": "hang", "shards": shards, "times": times, "duration_s": HANG_S}
    )


def test_watchdog_kills_and_retry_recovers(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, _hang_spec([1], times=1))
    deadline = TaskDeadline(hard_timeout_s=0.75)
    with obs_events.recording() as log:
        started = time.perf_counter()
        with WorkerPool(2) as pool:
            results = pool.map_shards(
                ident,
                [(0,), (1,), (2,)],
                max_attempts=2,
                deadline=deadline,
            )
        elapsed = time.perf_counter() - started
    assert results == [0, 1, 2]
    assert elapsed < HANG_S / 4  # bounded by the deadline, not the hang

    assert obs.counter_value("pool.task_timeouts") == 1.0
    assert obs.counter_value("pool.worker_deaths") >= 1.0
    assert obs.counter_value("pool.rebuilds") >= 1.0
    (timeout_event,) = log.by_kind(obs_events.TASK_TIMEOUT)
    assert timeout_event.severity == "critical"
    assert timeout_event.fields["shard"] == 1
    assert timeout_event.fields["timeout_s"] == 0.75


def test_exhausted_hang_raises_task_timeout_error(monkeypatch):
    """map_shards: a permanent hang surfaces as TaskTimeoutError."""
    monkeypatch.setenv(FAULTS_ENV, _hang_spec([0], times=99))
    deadline = TaskDeadline(hard_timeout_s=0.5)
    started = time.perf_counter()
    with WorkerPool(2) as pool:
        with pytest.raises(TaskTimeoutError) as excinfo:
            pool.map_shards(
                ident, [(0,), (1,)], max_attempts=2, deadline=deadline
            )
    elapsed = time.perf_counter() - started
    assert elapsed < HANG_S / 4
    error = excinfo.value
    assert error.shard_id == 0
    assert error.timeout_s == 0.5
    assert error.attempt == 2
    assert obs.counter_value("pool.task_timeouts") == 2.0  # both attempts


def test_exhausted_hang_is_a_run_failure(monkeypatch):
    """run_many: a permanent hang fills the slot with RunFailure."""
    monkeypatch.setenv(FAULTS_ENV, _hang_spec([1], times=99))
    deadline = TaskDeadline(hard_timeout_s=0.5)
    with WorkerPool(2) as pool:
        results = run_many(
            [ReturnValue(0), ReturnValue(1), ReturnValue(2)],
            workers=2,
            pool=pool,
            max_attempts=2,
            retry_backoff_s=0.0,
            deadline=deadline,
        )
    assert results[0].result == 0 and results[2].result == 2
    failure = results[1]
    assert isinstance(failure, RunFailure)
    assert failure.error_type == "TaskTimeoutError"
    assert failure.attempts == 2


def test_innocent_inflight_tasks_are_retried_not_condemned(monkeypatch):
    """Tasks in flight when the watchdog fires burn an attempt but recover.

    Killing the pool takes the innocents' workers with it; their failures
    are collateral (plain RuntimeError, not a timeout) and the retry on
    the rebuilt pool completes them.
    """
    monkeypatch.setenv(FAULTS_ENV, _hang_spec([0], times=1))
    deadline = TaskDeadline(hard_timeout_s=0.75)
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            results = pool.map_shards(
                ident,
                [(index,) for index in range(4)],
                max_attempts=3,
                deadline=deadline,
            )
    assert results == [0, 1, 2, 3]
    # exactly one shard actually timed out; the others were collateral
    assert obs.counter_value("pool.task_timeouts") == 1.0
    assert len(log.by_kind(obs_events.TASK_TIMEOUT)) == 1


def sleep_then_return(value, seconds):
    time.sleep(seconds)
    return value


class SleepThenReturn:
    def __init__(self, value, seconds):
        self.value = value
        self.seconds = seconds

    def __call__(self):
        return sleep_then_return(self.value, self.seconds)


def test_queueing_does_not_count_toward_the_deadline():
    """A task's deadline clock starts when a worker is free to run it.

    Four 0.4 s tasks on two workers run in two waves.  Were the second
    wave's clocks started with the first's, those tasks would be 0.8 s old
    when they finished and time out against 0.7 s, though none runs
    longer than 0.4 s.
    """
    with WorkerPool(2) as pool:
        pool.warm()
        results = pool.map_shards(
            sleep_then_return,
            [(index, 0.4) for index in range(4)],
            deadline=TaskDeadline(hard_timeout_s=0.7),
        )
        assert pool.generation == 1  # never killed and rebuilt
    assert results == [0, 1, 2, 3]
    assert obs.counter_value("pool.task_timeouts") == 0.0
    assert obs.counter_value("pool.tasks_dispatched") == 4.0


def test_tasks_not_yet_submitted_keep_their_attempts(monkeypatch):
    """An executor break costs an attempt only to the tasks in flight on it.

    Shard 0 kills its worker while shard 1 runs beside it.  Shards 2 and 3
    are still waiting in the coordinator, so with one attempt each they
    run on the rebuilt executor instead of failing with the dead one.
    """
    monkeypatch.setenv(FAULTS_ENV, json.dumps({"kind": "kill", "shards": [0], "times": 1}))
    with WorkerPool(2) as pool:
        results = run_many(
            [SleepThenReturn(index, 0.3) for index in range(4)],
            workers=2,
            pool=pool,
            max_attempts=1,
            retry_backoff_s=0.0,
        )
    assert [isinstance(entry, RunFailure) for entry in results] == [
        True,
        True,
        False,
        False,
    ]
    assert [entry.result for entry in results[2:]] == [2, 3]


def test_no_deadline_means_no_watchdog_overhead():
    """Without a deadline the dispatch loop blocks exactly as before."""
    with WorkerPool(2) as pool:
        results = pool.map_shards(ident, [(0,), (1,)], deadline=None)
    assert results == [0, 1]
    assert obs.counter_value("pool.task_timeouts") == 0.0


def test_pool_kill_discards_executor_without_waiting():
    """kill() must return promptly and leave the pool lazily rebuildable."""
    with WorkerPool(2) as pool:
        assert pool.map_shards(ident, [(0,), (1,)]) == [0, 1]
        started = time.perf_counter()
        pool.kill()
        assert time.perf_counter() - started < 5.0
        # the next dispatch re-forks transparently
        assert pool.map_shards(ident, [(7,), (8,)]) == [7, 8]


# ----------------------------------------------------------------------
# tasks that misbehave wherever they run (no injector)
# ----------------------------------------------------------------------
def sleep_on_shard_one(value):
    if value == 1:
        time.sleep(20.0)
    return value


def test_persistent_hang_raises_instead_of_running_in_the_coordinator():
    """A shard that hangs on every attempt raises; it never runs here.

    Run in the coordinator, the 20 s sleep would block the stage with no
    watchdog left to stop it.
    """
    started = time.perf_counter()
    with WorkerPool(2) as pool:
        with pytest.raises(TaskTimeoutError) as excinfo:
            pool.map_shards(
                sleep_on_shard_one,
                [(0,), (1,)],
                deadline=TaskDeadline(hard_timeout_s=0.5),
            )
    assert time.perf_counter() - started < 5.0
    assert excinfo.value.shard_id == 1
    assert excinfo.value.attempt == parallel.DEFAULT_MAX_ATTEMPTS


#: Runs in a child process: ``os._exit`` in the coordinator must not be
#: able to take the test session down with it.
_EXITING_STAGE = textwrap.dedent(
    """
    import os
    import sys
    from concurrent.futures.process import BrokenProcessPool

    from repro.engine.deadline import TaskDeadline
    from repro.engine.parallel import WorkerPool

    EVERY_SHARD = sys.argv[1] == "every"


    def exit_process(value):
        if EVERY_SHARD or value == 1:
            os._exit(13)
        return value


    with WorkerPool(2) as pool:
        try:
            pool.map_shards(
                exit_process,
                [(index,) for index in range(6 if EVERY_SHARD else 3)],
                deadline=TaskDeadline(hard_timeout_s=30.0),
            )
        except BrokenProcessPool:
            sys.exit(0)
    sys.exit(1)
    """
)


@pytest.mark.parametrize("which", ["one", "every"])
def test_exiting_shard_breaks_the_pool_not_the_coordinator(which):
    """A shard that exits its process raises BrokenProcessPool here."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    env.pop(FAULTS_ENV, None)
    completed = subprocess.run(
        [sys.executable, "-c", _EXITING_STAGE, which],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
