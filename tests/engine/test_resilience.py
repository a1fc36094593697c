"""Regression tests: ``run_many`` survives dying workers and bad specs.

A killed worker process breaks the whole ``ProcessPoolExecutor``; the
suite must come back with per-spec results anyway — retried where the
spec was an innocent bystander, a structured :class:`RunFailure` where it
kept crashing.
"""

import os

import pytest

from conftest import make_demand, make_runtime_parts
from repro.engine import RunArtifacts, RunFailure, ScenarioSpec, run_many
from repro.engine.parallel import WorkerPool, _worker_barrier


# ----------------------------------------------------------------------
# module-level callables (must pickle into fork workers)
# ----------------------------------------------------------------------
def well_behaved():
    return "ok"


def kill_worker_hard():
    """Die the way a real casualty dies: no exception, no cleanup."""
    os._exit(17)


class KillOnce:
    """Kills the first worker that runs it, succeeds afterwards.

    The flag lives on the filesystem because the retry lands in a *new*
    forked worker: process memory resets, the file survives.
    """

    def __init__(self, flag_path):
        self.flag_path = str(flag_path)

    def __call__(self):
        if not os.path.exists(self.flag_path):
            with open(self.flag_path, "w") as handle:
                handle.write("died")
            os._exit(17)
        return "recovered"


class AlwaysRaises:
    def __call__(self):
        raise ValueError("deliberate failure")


def _scenario_spec():
    fleet, conversion, _, _ = make_runtime_parts()
    return ScenarioSpec(
        mode="pre", fleet=fleet, demand=make_demand(), conversion=conversion
    )


# ----------------------------------------------------------------------
# worker death
# ----------------------------------------------------------------------
def test_run_many_survives_a_worker_killed_mid_suite(tmp_path):
    """One spec kills its worker once; the suite still returns everything."""
    specs = [
        _scenario_spec(),
        KillOnce(tmp_path / "died.flag"),
        well_behaved,
    ]
    results = run_many(specs, workers=2, retry_backoff_s=0.0)
    assert len(results) == 3
    assert isinstance(results[0], RunArtifacts)
    assert results[0].result.name == "pre"
    assert isinstance(results[1], RunArtifacts)
    assert results[1].result == "recovered"
    assert isinstance(results[2], RunArtifacts)
    assert results[2].result == "ok"


def test_run_many_reports_a_persistent_killer_as_run_failure():
    specs = [well_behaved, kill_worker_hard, well_behaved]
    results = run_many(
        specs, workers=2, max_attempts=2, retry_backoff_s=0.0
    )
    assert len(results) == 3
    # The innocent bystanders survive (possibly via retry) …
    assert results[0].result == "ok"
    assert results[2].result == "ok"
    # … and the killer comes back as a structured failure, not a crash.
    failure = results[1]
    assert isinstance(failure, RunFailure)
    assert failure.attempts == 2
    assert failure.spec is kill_worker_hard
    assert failure.result is None
    assert failure.error_type and failure.error


def test_submit_resilient_retries_a_submit_that_found_a_broken_executor():
    """A worker death can break the executor *between* two submits of the
    same round; the racing submit then raises ``BrokenProcessPool``
    synchronously instead of returning a future.  ``submit_resilient``
    must absorb that: rebuild, resubmit, and hand back a working future.
    """
    from concurrent.futures.process import BrokenProcessPool

    pool = WorkerPool(2)
    try:
        real_submit = pool.submit
        calls = []
        rebuilds = []

        def submit_broken_once(fn, /, *args, **kwargs):
            calls.append(fn)
            if len(calls) == 1:
                raise BrokenProcessPool("executor died before dispatch")
            return real_submit(fn, *args, **kwargs)

        pool.submit = submit_broken_once
        future = pool.submit_resilient(
            _worker_barrier, 7, on_rebuild=lambda: rebuilds.append(True)
        )
        assert future.result() == 7
        assert len(calls) == 2
        assert rebuilds == [True]
    finally:
        pool.submit = real_submit
        pool.shutdown()


def test_rebuild_if_broken_spares_a_healthy_executor():
    """``rebuild_if_broken`` must only tear down an executor that really
    broke — a fresh one swapped in mid-round keeps its running tasks."""
    pool = WorkerPool(2)
    try:
        pool.warm()
        generation = pool.generation
        assert pool.rebuild_if_broken() is False
        assert pool.generation == generation

        future = pool.submit(kill_worker_hard)
        with pytest.raises(Exception):
            future.result()
        assert pool.rebuild_if_broken() is True
        assert pool.submit(_worker_barrier, 3).result() == 3
        assert pool.generation == generation + 1
    finally:
        pool.shutdown()


# ----------------------------------------------------------------------
# plain exceptions (serial and parallel)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_run_many_wraps_raising_specs_without_sinking_the_suite(workers):
    specs = [well_behaved, AlwaysRaises(), well_behaved]
    results = run_many(
        specs, workers=workers, max_attempts=2, retry_backoff_s=0.0
    )
    assert results[0].result == "ok"
    assert results[2].result == "ok"
    failure = results[1]
    assert isinstance(failure, RunFailure)
    assert failure.error_type == "ValueError"
    assert "deliberate failure" in failure.error
    assert failure.attempts == 2


def test_run_many_validates_retry_parameters():
    with pytest.raises(ValueError, match="max_attempts"):
        run_many([well_behaved], max_attempts=0)
    with pytest.raises(ValueError, match="backoff"):
        run_many([well_behaved], retry_backoff_s=-1.0)


def test_callable_specs_wrap_plain_return_values():
    [artifacts] = run_many([well_behaved])
    assert isinstance(artifacts, RunArtifacts)
    assert artifacts.spec is well_behaved
    assert artifacts.result == "ok"
