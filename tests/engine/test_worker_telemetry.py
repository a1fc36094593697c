"""Worker telemetry across the pool boundary: capture, failure, kill switch.

Pins the cross-process observability contract end to end:

* a sharded job on a real pool yields ONE merged span tree — per-shard
  spans under the stage's ``pool.stage`` span inside the dispatching span,
  tagged with worker pid and shard id — plus merged counters/histograms
  and pool health metrics, and the run report read off that tree agrees
  with the spans and the pool's histogram bit for bit;
* a raising task still ships its telemetry (span error + ``task_error``
  event reach the coordinator's event log);
* a worker dying mid-task loses that attempt's bundle, but the *retried*
  task's bundle arrives with the retry — telemetry is only ever lost with
  the process that held it;
* ``REPRO_OBS_CAPTURE=0`` disables capture entirely: tasks run bare and
  the coordinator registry receives zero entries;
* merged metric totals are a function of the work, not of completion
  order or worker count.
"""

import os

import numpy as np
import pytest

from repro import obs
from repro.engine.parallel import RunFailure, WorkerPool, run_many
from repro.engine.sharedmem import SharedMatrix, attach_rows, shard_ranges
from repro.obs import events as obs_events


@pytest.fixture(autouse=True)
def _clean_surfaces():
    obs.reset_metrics()
    yield
    obs.reset_metrics()


# ----------------------------------------------------------------------
# module-level callables (must pickle into fork workers)
# ----------------------------------------------------------------------
def traced_shard_sum(handle, start, stop):
    """Sums a row block while exercising every telemetry surface."""
    obs.count("shard.rows", stop - start)
    obs.observe("shard.rows_hist", stop - start)
    obs.emit("advisory", source="shard", start=start)
    with obs.span("shard.inner"):
        return float(attach_rows(handle, start, stop).sum())


def emit_then_raise(handle, start, stop):
    obs.emit("advisory", source="doomed", start=start)
    raise ValueError(f"shard [{start}, {stop}) is doomed")


class DieOnceThenSum:
    """Kills its worker on first run (flag file), sums the shard after."""

    def __init__(self, flag_path):
        self.flag_path = str(flag_path)

    def __call__(self, handle, start, stop):
        if not os.path.exists(self.flag_path):
            with open(self.flag_path, "w") as f:
                f.write("died")
            os._exit(17)
        return traced_shard_sum(handle, start, stop)


def spec_raises():
    obs.emit("advisory", source="spec", note="about to fail")
    raise ValueError("deliberate failure")


def forty_two():
    return 42


# ----------------------------------------------------------------------
# the merged picture on a healthy pool
# ----------------------------------------------------------------------
def test_sharded_stage_produces_one_merged_tree_and_registry():
    matrix = np.arange(400, dtype=np.float64).reshape(100, 4)
    ranges = shard_ranges(100, 4)
    with obs.tracing() as tracer, obs_events.recording() as log:
        with obs.span("stage"):
            with WorkerPool(2) as pool:
                with SharedMatrix.create(matrix) as shared:
                    tasks = [(shared.handle, a, b) for a, b in ranges]
                    results = pool.map_shards(
                        traced_shard_sum, tasks, label="score.shard"
                    )
    # Results are exactly what an in-process loop would produce.
    assert results == [float(matrix[a:b].sum()) for a, b in ranges]

    # One tree: the per-shard spans hang under the stage's pool.stage span
    # inside the dispatching span, in shard order, each tagged with shard
    # id and a real worker pid.
    [stage] = tracer.roots
    [pool_stage] = stage.children
    assert pool_stage.name == "pool.stage"
    assert pool_stage.meta["label"] == "score.shard"
    assert pool_stage.meta["workers"] == 2
    shard_spans = [c for c in pool_stage.children if c.name == "score.shard"]
    assert [s.meta["shard"] for s in shard_spans] == [0, 1, 2, 3]
    assert all(s.meta["pid"] != os.getpid() for s in shard_spans)
    assert all(s.wall_s > 0 for s in shard_spans)
    assert [c.name for s in shard_spans for c in s.children] == ["shard.inner"] * 4

    # Worker counters merged into the coordinator registry, exactly.
    snapshot = obs.snapshot_metrics()
    assert snapshot["counters"]["shard.rows"] == 100.0
    assert snapshot["histograms"]["shard.rows_hist"]["count"] == 4

    # Pool health metrics recorded coordinator-side.
    assert snapshot["counters"]["pool.tasks_dispatched"] == 4.0
    assert snapshot["counters"]["pool.tasks_completed"] == 4.0
    assert snapshot["histograms"]["pool.task_exec_s"]["count"] == 4
    assert snapshot["histograms"]["pool.task_queue_s"]["count"] == 4
    assert snapshot["gauges"]["pool.workers"] == 2.0
    assert snapshot["gauges"]["shm.segments_live"] == 0.0

    # Worker events landed in the coordinator log, remapped and tagged.
    advisories = log.by_kind("advisory")
    assert sorted(e.fields["start"] for e in advisories) == [a for a, _ in ranges]
    merged_ids = {s.span_id for s in shard_spans}
    assert all(e.span_id in merged_ids for e in advisories)
    assert all(e.fields["worker_pid"] != os.getpid() for e in advisories)

    # The run report saw the stage.
    report = obs.json_document(tracer=tracer)["pool"]
    [stage_summary] = report["stages"]
    assert stage_summary["label"] == "score.shard"
    assert stage_summary["tasks"] == 4
    assert stage_summary["imbalance"] >= 1.0
    assert len(report["totals"]["per_worker_utilization"]) >= 1


def test_run_report_matches_spans_and_histogram_bit_for_bit():
    """The pool section is a view of the merged task spans: its per-task
    execution times and per-worker busy times are theirs, and its imbalance
    is the pool.task_exec_s histogram's max over mean, to the last bit."""
    matrix = np.arange(500, dtype=np.float64).reshape(100, 5)
    with obs.tracing() as tracer:
        with WorkerPool(2) as pool:
            with SharedMatrix.create(matrix) as shared:
                tasks = [(shared.handle, a, b) for a, b in shard_ranges(100, 5)]
                pool.map_shards(traced_shard_sum, tasks, label="score.shard")
    [pool_stage] = tracer.roots
    task_spans = pool_stage.children
    [stage] = obs.json_document(tracer=tracer)["pool"]["stages"]
    assert stage["pool_generation"] == pool.generation

    assert [t["exec_s"] for t in stage["task_stats"]] == [s.wall_s for s in task_spans]
    busy = {}
    for span in task_spans:
        pid = str(span.meta["pid"])
        busy[pid] = busy.get(pid, 0.0) + span.wall_s
    assert {pid: row["busy_s"] for pid, row in stage["per_worker"].items()} == busy

    hist = obs.global_registry().histograms["pool.task_exec_s"]
    assert hist.count == len(task_spans) == 5
    assert stage["imbalance"] == hist.max / (hist.total / hist.count)


def test_merged_totals_independent_of_worker_count():
    """The merged registry is a function of the work done, not of how many
    workers did it (chunk counters aside, which this task does not use)."""
    matrix = np.arange(240, dtype=np.float64).reshape(60, 4)

    def run(workers, shards):
        obs.reset_metrics()
        with WorkerPool(workers) as pool:
            with SharedMatrix.create(matrix) as shared:
                tasks = [
                    (shared.handle, a, b) for a, b in shard_ranges(60, shards)
                ]
                results = pool.map_shards(traced_shard_sum, tasks)
        counters = dict(obs.snapshot_metrics()["counters"])
        hist = obs.global_registry().histogram("shard.rows_hist")
        return results, counters["shard.rows"], hist.count, hist.total

    results_2, rows_2, count_2, total_2 = run(2, 4)
    results_3, rows_3, count_3, total_3 = run(3, 4)
    assert results_2 == results_3
    assert rows_2 == rows_3 == 60.0
    assert count_2 == count_3 == 4
    assert total_2 == total_3 == 60.0


# ----------------------------------------------------------------------
# failure paths
# ----------------------------------------------------------------------
def test_raising_task_ships_its_events_and_span_error():
    matrix = np.ones((10, 2))
    with obs.tracing() as tracer, obs_events.recording() as log:
        with obs.span("stage"):
            with WorkerPool(2) as pool:
                with SharedMatrix.create(matrix) as shared:
                    tasks = [(shared.handle, a, b) for a, b in shard_ranges(10, 2)]
                    with pytest.raises(ValueError, match="doomed"):
                        pool.map_shards(
                            emit_then_raise, tasks, label="doomed.shard", max_attempts=1
                        )
    # Both shards' pre-failure events AND task_error events arrived.
    assert len(log.by_kind("advisory")) == 2
    task_errors = log.by_kind(obs_events.TASK_ERROR)
    assert len(task_errors) == 2
    assert all(e.fields["error_type"] == "ValueError" for e in task_errors)
    # The failed shards' spans are in the tree, marked with the error.
    [stage] = tracer.roots
    [pool_stage] = stage.children
    assert pool_stage.meta["label"] == "doomed.shard"
    assert pool_stage.meta["workers"] == 2
    doomed = [c for c in pool_stage.children if c.name == "doomed.shard"]
    assert len(doomed) == 2
    assert all("ValueError" in s.meta["error"] for s in doomed)
    assert obs.counter_value("pool.tasks_failed") == 2.0


def test_worker_death_does_not_lose_the_retried_tasks_bundle(tmp_path):
    """The attempt that died with its worker ships nothing — but the retry
    runs to completion and its bundle must arrive intact."""
    matrix = np.arange(40, dtype=np.float64).reshape(10, 4)
    task = DieOnceThenSum(tmp_path / "died.flag")
    ranges = shard_ranges(10, 2)
    with obs.tracing() as tracer, obs_events.recording() as log:
        with obs.span("stage"):
            with WorkerPool(2) as pool:
                with SharedMatrix.create(matrix) as shared:
                    tasks = [(shared.handle, a, b) for a, b in ranges]
                    results = pool.map_shards(task, tasks, label="fragile.shard")
    assert results == [float(matrix[a:b].sum()) for a, b in ranges]
    # Every shard's successful attempt shipped: merged counters cover the
    # full matrix and every shard span is present.
    assert obs.counter_value("shard.rows") == 10.0
    [stage] = tracer.roots
    [pool_stage] = stage.children
    assert pool_stage.meta["label"] == "fragile.shard"
    assert pool_stage.meta["workers"] == 2
    shard_spans = [c for c in pool_stage.children if c.name == "fragile.shard"]
    assert sorted(s.meta["shard"] for s in shard_spans) == [0, 1]
    # The death was observed as pool health.
    assert obs.counter_value("pool.worker_deaths") >= 1.0
    assert obs.counter_value("pool.rebuilds") >= 1.0
    assert obs.counter_value("pool.tasks_retried") >= 1.0
    assert len(log.by_kind("advisory")) == 2


def test_run_many_failure_keeps_original_error_type_under_capture():
    results = run_many(
        [spec_raises, spec_raises], workers=2, max_attempts=1, retry_backoff_s=0
    )
    assert all(isinstance(r, RunFailure) for r in results)
    assert all(r.error_type == "ValueError" for r in results)
    assert all("deliberate failure" in r.error for r in results)


def test_run_many_batch_lands_in_run_report():
    with obs.tracing() as tracer:
        run_many([forty_two, forty_two, forty_two], workers=2)
    report = obs.json_document(tracer=tracer)["pool"]
    labels = [stage["label"] for stage in report["stages"]]
    assert labels == ["run.many"]
    assert report["stages"][0]["tasks"] == 3


# ----------------------------------------------------------------------
# the kill switch
# ----------------------------------------------------------------------
def test_capture_disabled_adds_zero_registry_entries(monkeypatch):
    monkeypatch.setenv("REPRO_OBS_CAPTURE", "0")
    matrix = np.arange(40, dtype=np.float64).reshape(10, 4)
    ranges = shard_ranges(10, 2)
    with obs.tracing() as tracer:
        with WorkerPool(2) as pool:
            with SharedMatrix.create(matrix) as shared:
                tasks = [(shared.handle, a, b) for a, b in ranges]
                results = pool.map_shards(traced_shard_sum, tasks)
    assert results == [float(matrix[a:b].sum()) for a, b in ranges]
    snapshot = obs.snapshot_metrics()
    assert snapshot["counters"] == {}
    assert snapshot["gauges"] == {}
    assert snapshot["histograms"] == {}
    assert tracer.roots == []


def test_capture_disabled_run_many_still_reports_failures(monkeypatch):
    monkeypatch.setenv("REPRO_OBS_CAPTURE", "0")
    results = run_many(
        [spec_raises, spec_raises], workers=2, max_attempts=1, retry_backoff_s=0
    )
    assert all(isinstance(r, RunFailure) for r in results)
    assert all(r.error_type == "ValueError" for r in results)
