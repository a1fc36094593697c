"""Telemetry accounting when a pooled task fails on its *final* attempt.

A failed attempt's bundle rides home attached to the exception itself
(`obs.remote.run_captured`), and the dispatch driver merges it when the
failure is recorded.  The invariants pinned here:

* the final attempt's exception-attached bundle merges exactly once —
  a retried-then-exhausted task never double-merges any attempt;
* ``pool.tasks_failed`` increments exactly once per failed attempt, so
  ``max_attempts=N`` of a persistent failure counts N, not 1 and not
  N x attempts-seen;
* a fail-then-succeed task merges one failure bundle and one success
  bundle — nothing is dropped and nothing is duplicated.
"""

import pytest

from repro import obs
from repro.engine.parallel import RunFailure, WorkerPool, run_many
from repro.obs import events as obs_events


@pytest.fixture(autouse=True)
def _clean_surfaces():
    obs.reset_metrics()
    yield
    obs.reset_metrics()


# ----------------------------------------------------------------------
# module-level callables (must pickle into fork workers)
# ----------------------------------------------------------------------
def emit_marker_then_raise(tag):
    obs.emit("advisory", source="final-attempt", tag=tag)
    raise ValueError(f"always failing ({tag})")


class RaiseOnceThenReturn:
    """Fails its first attempt (flag file), succeeds afterwards."""

    def __init__(self, flag_path, value):
        self.flag_path = str(flag_path)
        self.value = value

    def __call__(self):
        import os

        obs.emit("advisory", source="final-attempt", tag="attempt")
        if not os.path.exists(self.flag_path):
            with open(self.flag_path, "w") as handle:
                handle.write("failed")
            raise ValueError("first attempt is doomed")
        return self.value


class SpecRaises:
    def __init__(self, tag):
        self.tag = tag

    def __call__(self):
        emit_marker_then_raise(self.tag)


def _marker_events(log):
    return [e for e in log.by_kind("advisory") if e.source == "final-attempt"]


# ----------------------------------------------------------------------
# map_shards
# ----------------------------------------------------------------------
def test_final_attempt_bundle_merges_exactly_once_per_attempt():
    """Two attempts, both failing: two marker events, two task_errors."""
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="always failing"):
                pool.map_shards(
                    emit_marker_then_raise,
                    [("only",)],
                    max_attempts=2,
                    retry_backoff_s=0.0,
                    label="doomed.shard",
                )
    # one bundle per failed attempt, each merged exactly once
    assert len(_marker_events(log)) == 2
    assert len(log.by_kind(obs_events.TASK_ERROR)) == 2
    assert obs.counter_value("pool.tasks_failed") == 2.0
    assert obs.counter_value("pool.tasks_dispatched") == 2.0
    assert obs.counter_value("pool.tasks_retried") == 1.0


def test_single_attempt_failure_counts_once():
    with obs_events.recording() as log:
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError):
                pool.map_shards(
                    emit_marker_then_raise,
                    [("solo",)],
                    max_attempts=1,
                    label="doomed.shard",
                )
    assert len(_marker_events(log)) == 1
    assert obs.counter_value("pool.tasks_failed") == 1.0
    assert obs.counter_value("pool.tasks_retried") == 0.0


def test_fail_then_succeed_serial_baseline(tmp_path):
    """The serial short-circuit emits in-process: one marker per attempt."""
    task = RaiseOnceThenReturn(tmp_path / "failed.flag", 42)
    with obs_events.recording() as log:
        results = run_many([task], workers=1, max_attempts=2, retry_backoff_s=0.0)
    assert results[0].result == 42
    assert len(_marker_events(log)) == 2


# ----------------------------------------------------------------------
# run_many
# ----------------------------------------------------------------------
def test_run_many_exhausted_spec_counts_each_attempt_once():
    specs = [SpecRaises("a"), SpecRaises("b"), SpecRaises("c")]
    with obs_events.recording() as log:
        results = run_many(
            specs, workers=2, max_attempts=2, retry_backoff_s=0.0
        )
    assert all(isinstance(entry, RunFailure) for entry in results)
    assert all(entry.attempts == 2 for entry in results)
    # 3 specs x 2 attempts: every attempt's bundle merged exactly once
    assert len(_marker_events(log)) == 6
    assert obs.counter_value("pool.tasks_failed") == 6.0


def test_run_many_fail_then_succeed_pooled(tmp_path):
    """Pooled retry: one failure bundle + one success bundle, no dupes."""
    specs = [
        RaiseOnceThenReturn(tmp_path / "flaky.flag", 7),
        SpecRaises("doomed"),
        lambda_free_ok,
    ]
    with obs_events.recording() as log:
        results = run_many(
            specs, workers=2, max_attempts=2, retry_backoff_s=0.0
        )
    assert results[0].result == 7
    assert isinstance(results[1], RunFailure)
    assert results[2].result == "ok"
    # flaky: 1 failed + 1 success marker; doomed: 2 failed markers
    assert len(_marker_events(log)) == 4
    # failures counted once per failed attempt only
    assert obs.counter_value("pool.tasks_failed") == 3.0


def lambda_free_ok():
    return "ok"
