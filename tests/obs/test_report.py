"""The run document and the run report read off its span tree (repro.obs.report)."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import POOL_STAGE, json_document, run_report, stage_summary
from repro.obs.spans import Span, Tracer


def _task(shard, pid, exec_s, *, cpu_s=0.0, roundtrip_s=0.0, attempt=1, error=None):
    """A merged worker task span, as the coordinator leaves it."""
    meta = {"shard": shard, "pid": pid, "attempt": attempt, "roundtrip_s": roundtrip_s}
    if error is not None:
        meta["error"] = error
    span = Span("score.shard", meta)
    span.wall_s = exec_s
    span.cpu_s = cpu_s
    return span


def _stage(wall_s, tasks=(), *, label="score.shard", workers=2):
    stage = Span(POOL_STAGE, {"label": label, "workers": workers})
    stage.wall_s = wall_s
    stage.children = list(tasks)
    return stage


def _stage_tasks():
    return [
        _task(0, 101, 1.0, cpu_s=0.9, roundtrip_s=1.1),
        _task(1, 102, 3.0, cpu_s=2.8, roundtrip_s=3.2),
        _task(2, 101, 2.0, cpu_s=1.9, roundtrip_s=2.1),
    ]


def _tracer(*roots):
    tracer = Tracer()
    tracer.roots = list(roots)
    return tracer


class TestStageSummary:
    def test_imbalance_is_max_over_mean_exec(self):
        summary = stage_summary(_stage(4.0, _stage_tasks()))
        assert summary["mean_exec_s"] == pytest.approx(2.0)
        assert summary["max_exec_s"] == pytest.approx(3.0)
        assert summary["imbalance"] == pytest.approx(1.5)
        assert summary["mean_queue_s"] == pytest.approx(0.4 / 3)

    def test_per_worker_utilization(self):
        per_worker = stage_summary(_stage(4.0, _stage_tasks()))["per_worker"]
        assert per_worker["101"]["tasks"] == 2
        assert per_worker["101"]["busy_s"] == pytest.approx(3.0)
        assert per_worker["101"]["utilization"] == pytest.approx(0.75)
        assert per_worker["102"]["utilization"] == pytest.approx(0.75)

    def test_slowest_shards_ranked(self):
        slowest = stage_summary(_stage(4.0, _stage_tasks()))["slowest_shards"]
        assert [entry["shard_id"] for entry in slowest] == [1, 2, 0]

    def test_retries_and_failures_counted(self):
        tasks = [
            _task(0, 1, 1.0, attempt=2),
            _task(0, 1, 0.5, attempt=1, error="ValueError: doomed"),
        ]
        summary = stage_summary(_stage(1.0, tasks, label="s"))
        assert summary["retries"] == 1
        assert summary["failures"] == 1
        # Failed attempts do not pollute the imbalance statistics.
        assert summary["mean_exec_s"] == pytest.approx(1.0)
        assert [(t["attempt"], t["ok"]) for t in summary["task_stats"]] == [
            (1, False),
            (2, True),
        ]

    def test_empty_stage_has_defined_statistics(self):
        summary = stage_summary(_stage(0.0, label="s"))
        assert summary["imbalance"] == 1.0
        assert summary["mean_exec_s"] == 0.0
        assert summary["per_worker"] == {}


class TestBuildReport:
    def test_totals_aggregate_across_stages(self):
        report = run_report(
            _tracer(
                _stage(4.0, _stage_tasks(), label="a"),
                _stage(2.0, [_task(0, 101, 2.0)], label="b"),
            )
        )
        assert [stage["label"] for stage in report["stages"]] == ["a", "b"]
        assert report["totals"]["stages"] == 2
        assert report["totals"]["tasks"] == 4
        assert report["totals"]["wall_s"] == pytest.approx(6.0)
        assert report["totals"]["worker_pids"] == ["101", "102"]
        assert report["totals"]["per_worker_utilization"]["101"] == pytest.approx(5.0 / 6.0)

    def test_spans_embedded_when_tracer_live(self):
        # A tracer with no pooled stage yields spans but no pool section,
        # so a serial run's document keys do not change.
        with obs.tracing() as tracer:
            with obs.span("outer"):
                pass
        document = json_document(tracer=tracer)
        assert [s["name"] for s in document["spans"]] == ["outer"]
        assert "pool" not in document
        assert run_report(tracer) is None

    def test_json_serializable_and_renderable(self):
        stage = _stage(4.0, _stage_tasks(), label="a")
        document = json.loads(json.dumps(json_document(tracer=_tracer(stage))))
        assert document["spans"][0]["name"] == POOL_STAGE
        text = obs.render_report(document["pool"])
        assert "imbalance 1.50x" in text
        assert "pid 101" in text


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.inc("remap.swaps_accepted", 3)
    registry.set_gauge("fleet.instances", 480)
    for value in (1.0, 2.0, 3.0, 4.0):
        registry.observe("place.node_seconds", value)
    return registry


class TestJsonDocument:
    def test_sections_match_supplied_surfaces(self):
        with obs.tracing() as tracer:
            with obs.span("profile"):
                pass
        document = json_document(tracer=tracer, registry=_populated_registry())
        assert set(document) == {"spans", "stages", "metrics"}
        assert document["spans"][0]["name"] == "profile"
        assert [row["stage"] for row in document["stages"]] == ["profile"]
        assert document["metrics"]["counters"] == {"remap.swaps_accepted": 3.0}
        assert document["metrics"]["histograms"]["place.node_seconds"]["count"] == 4

    def test_empty_call_is_empty_document(self):
        assert json_document() == {}

    def test_json_serialisable(self):
        document = json_document(
            tracer=_tracer(_stage(4.0, _stage_tasks())), registry=_populated_registry()
        )
        assert set(document) == {"spans", "stages", "pool", "metrics"}
        json.dumps(document)  # must not raise
