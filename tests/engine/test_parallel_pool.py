"""The persistent worker pool: reuse, short-circuits, pinning, backoff.

These pin the properties the parallel-execution fix promises:

* serial short-circuits (``workers=1`` or a single spec) never construct a
  pool at all;
* one pool's workers survive across batches (``generation`` counts
  executor builds, not batches);
* every worker pins its BLAS/OpenMP thread pools at startup;
* the retry loop never sleeps its backoff *after* the final attempt, and
  no single backoff sleep exceeds ``MAX_RETRY_BACKOFF_S``.
"""

import os

import pytest

from repro.engine import parallel
from repro.engine.parallel import (
    WORKER_THREAD_ENV_VARS,
    WORKER_THREADS,
    RunFailure,
    WorkerPool,
    get_pool,
    run_many,
    shutdown_pools,
)


# ----------------------------------------------------------------------
# module-level callables (must pickle into fork workers)
# ----------------------------------------------------------------------
def well_behaved():
    return "ok"


def other_task():
    return "also ok"


def read_thread_env():
    """What the worker's environment says about library thread pools."""
    return {name: os.environ.get(name) for name in WORKER_THREAD_ENV_VARS}


class AlwaysRaises:
    def __call__(self):
        raise ValueError("deliberate failure")


# ----------------------------------------------------------------------
# serial short-circuits create no pool
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "specs, workers",
    [
        ([well_behaved, other_task], 1),  # workers=1
        ([well_behaved], 4),  # single spec
        ([], 4),  # empty batch
    ],
)
def test_serial_short_circuit_never_touches_a_pool(monkeypatch, specs, workers):
    def forbidden(*args, **kwargs):
        raise AssertionError("serial path constructed a worker pool")

    monkeypatch.setattr(parallel, "get_pool", forbidden)
    monkeypatch.setattr(parallel.WorkerPool, "__init__", forbidden)
    results = run_many(specs, workers=workers)
    assert len(results) == len(specs)
    for artifacts in results:
        assert artifacts.result in ("ok", "also ok")


# ----------------------------------------------------------------------
# pool persistence
# ----------------------------------------------------------------------
def test_pool_workers_survive_across_batches():
    # A private pool, not the process-wide registry one: `generation`
    # counts executor builds over the pool's whole lifetime, and the
    # registry pool accumulates builds from every earlier test.
    with WorkerPool(2) as pool:
        first = run_many([well_behaved, other_task], workers=2, pool=pool)
        generation_after_first = pool.generation
        second = run_many([other_task, well_behaved], workers=2, pool=pool)
        assert [a.result for a in first] == ["ok", "also ok"]
        assert [a.result for a in second] == ["also ok", "ok"]
        # Same executor, same workers: no re-spawn between batches.
        assert pool.generation == generation_after_first == 1


def test_get_pool_returns_the_same_pool_per_worker_count():
    assert get_pool(2) is get_pool(2)
    assert get_pool(2) is not get_pool(3)


def test_pool_validates_worker_count():
    with pytest.raises(ValueError):
        WorkerPool(0)
    with pytest.raises(ValueError):
        get_pool(0)


# ----------------------------------------------------------------------
# worker thread pinning
# ----------------------------------------------------------------------
def test_workers_pin_blas_thread_pools():
    with WorkerPool(2) as pool:
        env = pool.submit(read_thread_env).result()
    expected = str(WORKER_THREADS)
    assert env == {name: expected for name in WORKER_THREAD_ENV_VARS}


# ----------------------------------------------------------------------
# retry backoff: never sleeps after the final attempt
# ----------------------------------------------------------------------
def test_serial_retry_sleeps_between_attempts_not_after_the_last(monkeypatch):
    sleeps = []
    monkeypatch.setattr(parallel.time, "sleep", sleeps.append)
    [failure] = run_many(
        [AlwaysRaises()], workers=1, max_attempts=3, retry_backoff_s=0.25
    )
    assert isinstance(failure, RunFailure)
    assert failure.attempts == 3
    # Two gaps between three attempts; no sleep once the spec is written off.
    assert len(sleeps) == 2


def test_serial_retry_backoff_is_capped(monkeypatch):
    # Inline batches retry through the same driver as pooled ones, so the
    # decorrelated-jitter schedule and its cap apply: an uncapped doubling
    # schedule would reach 256 s before the tenth attempt.
    sleeps = []
    monkeypatch.setattr(parallel.time, "sleep", sleeps.append)
    [failure] = run_many(
        [AlwaysRaises()], workers=1, max_attempts=10, retry_backoff_s=1.0
    )
    assert isinstance(failure, RunFailure)
    assert failure.attempts == 10
    assert len(sleeps) == 9
    assert max(sleeps) <= parallel.MAX_RETRY_BACKOFF_S


def test_serial_single_attempt_never_sleeps(monkeypatch):
    sleeps = []
    monkeypatch.setattr(parallel.time, "sleep", sleeps.append)
    [failure] = run_many(
        [AlwaysRaises()], workers=1, max_attempts=1, retry_backoff_s=10.0
    )
    assert isinstance(failure, RunFailure)
    assert sleeps == []


def test_pooled_retry_never_sleeps_after_the_final_round(monkeypatch):
    sleeps = []
    monkeypatch.setattr(parallel.time, "sleep", sleeps.append)
    try:
        results = run_many(
            [AlwaysRaises(), AlwaysRaises()],
            workers=2,
            max_attempts=2,
            retry_backoff_s=0.25,
        )
    finally:
        shutdown_pools()
    assert all(isinstance(r, RunFailure) for r in results)
    # One retry round separates the two attempts; after the second (final)
    # attempt every spec is out of tries, so no further backoff may run.
    assert len(sleeps) == 1
