"""Deterministic infra fault injection: spec parsing plus the scenario suite.

The scenario suite is the acceptance test of the failure-domain layer:
for every fault kind the injector knows (`kill`, `hang`, `slow`,
`exception`, `oversized_bundle`, `shm_exhaust`), a pooled stage running
under a :class:`TaskDeadline` must

* complete in bounded wall time,
* return results bit-identical to a fault-free serial run,
* leak no ``/dev/shm`` segments, and
* emit the corresponding ``pool.*`` telemetry.

Faults are configured through ``REPRO_INFRA_FAULTS`` and armed only in
pool workers; pooled work never runs in the coordinator, so every fault
must be contained by the retry rounds and the hard-deadline watchdog.

When ``REPRO_INFRA_EVENTS`` names a file, every scenario appends its
recorded event log there as JSON Lines — CI uploads that file as the
chaos-run artifact.
"""

import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import repro
from repro import obs
from repro.engine import chaos_infra
from repro.engine.chaos_infra import (
    FAULTS_ENV,
    InfraFault,
    InjectedFault,
    parse_faults,
)
from repro.engine.deadline import TaskDeadline
from repro.engine.parallel import RunFailure, WorkerPool, run_many
from repro.engine.sharedmem import SharedMatrix, attach_rows, shard_ranges
from repro.obs import events as obs_events

#: Appended to by every scenario when ``REPRO_INFRA_EVENTS`` is set.
EVENTS_ENV = "REPRO_INFRA_EVENTS"


@pytest.fixture(autouse=True)
def _clean_surfaces():
    obs.reset_metrics()
    chaos_infra.deactivate()
    yield
    obs.reset_metrics()
    chaos_infra.deactivate()


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
# module-level callables (must pickle into fork workers)
# ----------------------------------------------------------------------
def shard_sum(handle, start, stop):
    return float(attach_rows(handle, start, stop).sum())


class ReturnValue:
    """A zero-arg run_many spec returning ``value`` (picklable instance)."""

    def __init__(self, value):
        self.value = value

    def __call__(self):
        return self.value


# ----------------------------------------------------------------------
# spec parsing and matching
# ----------------------------------------------------------------------
def test_parse_single_object_and_list():
    (fault,) = parse_faults('{"kind": "kill", "shards": [1], "times": 2}')
    assert fault == InfraFault(kind="kill", shards=(1,), times=2)
    faults = parse_faults(
        '[{"kind": "hang", "duration_s": 9.0}, {"kind": "exception"}]'
    )
    assert [fault.kind for fault in faults] == ["hang", "exception"]
    assert parse_faults("") == ()
    assert parse_faults("   ") == ()


@pytest.mark.parametrize(
    "text",
    [
        '"kill"',  # bare string, not an object
        '[{"kind": "nope"}]',  # unknown kind
        '{"kind": "kill", "times": 0}',
        '{"kind": "slow", "duration_s": -1}',
        '{"kind": "kill", "probability": 0}',
        "[42]",
    ],
)
def test_parse_rejects_bad_specs(text):
    with pytest.raises(ValueError):
        parse_faults(text)


def test_configured_raises_on_typoed_spec(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, '{"kind": "oops"}')
    with pytest.raises(ValueError):
        chaos_infra.configured()
    monkeypatch.delenv(FAULTS_ENV)
    assert not chaos_infra.configured()


def test_matches_is_a_pure_function_of_shard_and_attempt():
    fault = InfraFault(kind="exception", shards=(1, 3), times=2)
    assert fault.matches(1, 1) and fault.matches(3, 2)
    assert not fault.matches(2, 1)  # wrong shard
    assert not fault.matches(1, 3)  # past the times window
    # repeated evaluation never changes the answer
    assert all(fault.matches(1, 1) for _ in range(10))


def test_probability_draw_is_deterministic():
    fault = InfraFault(kind="exception", probability=0.5, seed=42, times=1000)
    draws = [fault.matches(shard, 1) for shard in range(200)]
    assert draws == [
        InfraFault(kind="exception", probability=0.5, seed=42, times=1000).matches(
            shard, 1
        )
        for shard in range(200)
    ]
    fired = sum(draws)
    assert 0 < fired < 200  # the coin actually flips both ways


def test_activate_and_inject_are_process_local(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, '{"kind": "exception", "times": 1}')
    assert chaos_infra._ACTIVE == ()
    chaos_infra.inject(0, 1)  # unarmed: no-op
    chaos_infra.activate()
    with pytest.raises(InjectedFault):
        chaos_infra.inject(0, 1)
    chaos_infra.inject(0, 2)  # past the times window
    chaos_infra.deactivate()
    chaos_infra.inject(0, 1)  # disarmed again


# ----------------------------------------------------------------------
# the scenario suite
# ----------------------------------------------------------------------
def _matrix_and_tasks(shared, rows=64, shards=4):
    tasks = [(shared.handle, a, b) for a, b in shard_ranges(rows, shards)]
    return tasks


def test_scenario_kill_recovers_by_retry(monkeypatch):
    """A worker killed mid-task costs one attempt, never the results."""
    matrix = np.arange(64.0 * 8).reshape(64, 8)
    expected = [float(matrix[a:b].sum()) for a, b in shard_ranges(64, 4)]
    monkeypatch.setenv(FAULTS_ENV, '{"kind": "kill", "shards": [1], "times": 1}')
    deadline = TaskDeadline(hard_timeout_s=30.0)
    with obs_events.recording() as log:
        with WorkerPool(2) as pool, SharedMatrix.create(matrix) as shared:
            results = pool.map_shards(
                shard_sum,
                _matrix_and_tasks(shared),
                max_attempts=3,
                deadline=deadline,
            )
    assert results == expected
    assert obs.counter_value("pool.worker_deaths") >= 1.0
    assert obs.counter_value("pool.tasks_retried") >= 1.0
    publish(log)


def test_scenario_hang_bounded_by_hard_deadline(monkeypatch):
    """A hung worker is killed at the hard deadline; the retry recovers."""
    matrix = np.ones((32, 4))
    expected = [float(matrix[a:b].sum()) for a, b in shard_ranges(32, 2)]
    monkeypatch.setenv(
        FAULTS_ENV,
        '{"kind": "hang", "shards": [0], "times": 1, "duration_s": 60.0}',
    )
    deadline = TaskDeadline(hard_timeout_s=1.0)
    with obs_events.recording() as log:
        started = time.perf_counter()
        with WorkerPool(2) as pool, SharedMatrix.create(matrix) as shared:
            results = pool.map_shards(
                shard_sum,
                _matrix_and_tasks(shared, rows=32, shards=2),
                max_attempts=3,
                deadline=deadline,
            )
        elapsed = time.perf_counter() - started
    assert results == expected
    assert elapsed < 30.0  # nowhere near the 60s hang
    assert obs.counter_value("pool.task_timeouts") >= 1.0
    assert log.by_kind(obs_events.TASK_TIMEOUT)
    publish(log)


def test_scenario_slow_shard_waited_for_under_hard_deadline(monkeypatch):
    """A slow shard under its hard deadline is waited for, not killed."""
    matrix = np.arange(48.0 * 5).reshape(48, 5)
    expected = [float(matrix[a:b].sum()) for a, b in shard_ranges(48, 3)]
    monkeypatch.setenv(
        FAULTS_ENV,
        '{"kind": "slow", "shards": [1], "times": 1, "duration_s": 1.0}',
    )
    with obs_events.recording() as log:
        started = time.perf_counter()
        with WorkerPool(2) as pool, SharedMatrix.create(matrix) as shared:
            results = pool.map_shards(
                shard_sum,
                _matrix_and_tasks(shared, rows=48, shards=3),
                deadline=TaskDeadline(hard_timeout_s=5.0),
            )
        elapsed = time.perf_counter() - started
    assert results == expected
    assert elapsed >= 1.0  # waited the slow shard out
    assert obs.counter_value("pool.task_timeouts") == 0.0
    assert obs.counter_value("pool.tasks_retried") == 0.0
    assert not log.by_kind(obs_events.TASK_TIMEOUT)
    publish(log)


def test_scenario_exception_retried_to_success(monkeypatch):
    """Worker-raised injected exceptions burn attempts, not results."""
    matrix = np.arange(48.0).reshape(16, 3)
    expected = [float(matrix[a:b].sum()) for a, b in shard_ranges(16, 4)]
    monkeypatch.setenv(FAULTS_ENV, '{"kind": "exception", "times": 1}')
    with obs_events.recording() as log:
        with WorkerPool(2) as pool, SharedMatrix.create(matrix) as shared:
            results = pool.map_shards(
                shard_sum,
                _matrix_and_tasks(shared, rows=16, shards=4),
                max_attempts=2,
                deadline=TaskDeadline(hard_timeout_s=30.0),
            )
    assert results == expected
    assert obs.counter_value("pool.tasks_failed") == 4.0  # one per shard
    assert log.by_kind(obs_events.FAULT_INJECTION)
    publish(log)


def test_scenario_shm_exhaustion_retried_to_success(monkeypatch):
    """ENOSPC from /dev/shm is an ordinary retryable failure."""
    monkeypatch.setenv(
        FAULTS_ENV, '{"kind": "shm_exhaust", "shards": [0, 1], "times": 1}'
    )
    specs = [ReturnValue(index) for index in range(3)]
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            results = run_many(
                specs,
                workers=2,
                pool=pool,
                max_attempts=2,
                retry_backoff_s=0.0,
                deadline=TaskDeadline(hard_timeout_s=30.0),
            )
    assert [artifact.result for artifact in results] == [0, 1, 2]
    assert not any(isinstance(entry, RunFailure) for entry in results)
    publish(log)


def test_scenario_oversized_bundle_survives_the_merge(monkeypatch):
    """A pathologically large telemetry bundle still ships and merges."""
    monkeypatch.setenv(
        FAULTS_ENV,
        '{"kind": "oversized_bundle", "shards": [0], "times": 1,'
        ' "payload_events": 2000}',
    )
    specs = [ReturnValue(index) for index in range(2)]
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            results = run_many(
                specs,
                workers=2,
                pool=pool,
                retry_backoff_s=0.0,
                deadline=TaskDeadline(hard_timeout_s=30.0),
            )
    assert [artifact.result for artifact in results] == [0, 1]
    payload = [
        event
        for event in log.by_kind(obs_events.FAULT_INJECTION)
        if event.source == "chaos_infra.payload"
    ]
    assert len(payload) == 2000
    publish(log)


def test_scenario_permanent_exception_exhausts_cleanly(monkeypatch):
    """A fault outlasting every retry yields a structured RunFailure."""
    monkeypatch.setenv(
        FAULTS_ENV, '{"kind": "exception", "shards": [1], "times": 99}'
    )
    specs = [ReturnValue(0), ReturnValue(1), ReturnValue(2)]
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            results = run_many(
                specs,
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
    publish(log)


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
    env.pop(FAULTS_ENV, None)
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


def test_faults_never_fire_without_the_env(monkeypatch):
    """No spec, no injection wrapper: the fault-free path is untouched."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    matrix = np.ones((8, 2))
    with WorkerPool(2) as pool, SharedMatrix.create(matrix) as shared:
        results = pool.map_shards(
            shard_sum, _matrix_and_tasks(shared, rows=8, shards=2)
        )
    assert results == [8.0, 8.0]
