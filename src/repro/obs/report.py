"""One JSON document per run, and the run report read off its span tree.

:func:`json_document` is the one machine-readable record of a run: the
span forest, per-name stage timings and the metrics snapshot.
``smoothoperator profile --json`` prints it, and ``smoothoperator report``
writes, re-reads and renders it.

The run report is a view of the merged span tree, not a second record.
Every pooled stage (a ``map_shards`` call or a ``run_many`` batch) run
with worker capture under a live tracer opens one ``pool.stage`` span
(meta: ``label``, ``workers``, the pool ``generation`` at the end of the
stage), and the final merge grafts the stage's worker task spans under it.
Each task's root span carries ``shard``, ``pid`` and ``attempt`` from the
worker, ``roundtrip_s`` stamped by the coordinator, and ``error`` when the
attempt failed.  :func:`stage_summary` reads one stage's economics off
that subtree:

* **per-worker utilization**: of the stage's wall time, what fraction was
  each worker pid actually executing shards?  Idle workers mean shards too
  coarse or a pool too wide;
* **imbalance**: max over mean shard execution wall.  1.0 is a perfectly
  balanced stage; 2.0 means the slowest shard ran twice the average and the
  stage's critical path is one straggler;
* **slowest shards**: the stragglers themselves, by shard id and pid.

When the tracer holds ``pool.stage`` spans, the document's ``pool``
section is :func:`run_report`; :func:`render_report` renders it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .metrics import MetricsRegistry
from .spans import Span, Tracer, stage_timings

__all__ = [
    "POOL_STAGE",
    "json_document",
    "render_report",
    "run_report",
    "stage_summary",
]

#: Name of the span each captured pooled stage opens around its dispatch.
POOL_STAGE = "pool.stage"


def _queue_s(task: Span) -> float:
    """Roundtrip minus execution, clamped at zero: time the task spent
    queued, pickled and in transit rather than executing."""
    return max(0.0, float(task.meta["roundtrip_s"]) - task.wall_s)  # type: ignore[arg-type]


def _task_stats(task: Span) -> Dict[str, object]:
    """One pool task's economics, from its merged root span.

    ``exec_s``/``cpu_s`` were measured inside the worker, so cross-process
    clock skew cannot touch them; ``roundtrip_s`` is coordinator-side
    submit-to-result wall.
    """
    return {
        "shard_id": task.meta["shard"],
        "worker_pid": task.meta["pid"],
        "attempt": task.meta["attempt"],
        "exec_s": task.wall_s,
        "cpu_s": task.cpu_s,
        "roundtrip_s": task.meta["roundtrip_s"],
        "queue_s": _queue_s(task),
        "ok": "error" not in task.meta,
    }


def stage_summary(stage: Span) -> Dict[str, object]:
    """One ``pool.stage`` span's economics (imbalance, utilization, stragglers).

    The stage's children are its task spans, one per attempt that shipped
    telemetry; failed attempts count towards retries, failures and busy
    time but not towards the execution statistics.
    """
    tasks = sorted(
        stage.children, key=lambda task: (task.meta["shard"], task.meta["attempt"])
    )
    execs = [task.wall_s for task in tasks if "error" not in task.meta]
    # Summed in task order rather than with sum() (compensated from Python
    # 3.12), so the mean matches the pool.task_exec_s histogram bit for bit.
    exec_total = 0.0
    for value in execs:
        exec_total += value
    mean_exec = exec_total / len(execs) if execs else 0.0
    max_exec = max(execs) if execs else 0.0
    wall_s = stage.wall_s
    by_worker: Dict[object, Dict[str, float]] = {}
    for task in tasks:
        row = by_worker.setdefault(
            task.meta["pid"], {"tasks": 0, "busy_s": 0.0, "cpu_s": 0.0}
        )
        row["tasks"] += 1
        row["busy_s"] += task.wall_s
        row["cpu_s"] += task.cpu_s
    workers = {
        str(pid): {
            "tasks": int(row["tasks"]),
            "busy_s": row["busy_s"],
            "cpu_s": row["cpu_s"],
            "utilization": (row["busy_s"] / wall_s) if wall_s > 0 else 0.0,
        }
        for pid, row in sorted(by_worker.items())
    }
    slowest = [
        {
            "shard_id": task.meta["shard"],
            "worker_pid": task.meta["pid"],
            "exec_s": task.wall_s,
        }
        for task in sorted(tasks, key=lambda task: (-task.wall_s, task.meta["shard"]))[:5]
    ]
    payload: Dict[str, object] = {
        "label": stage.meta["label"],
        "workers": stage.meta["workers"],
        "wall_s": wall_s,
        "tasks": len(tasks),
        "retries": sum(1 for task in tasks if task.meta["attempt"] > 1),  # type: ignore[operator]
        "failures": len(tasks) - len(execs),
        "mean_exec_s": mean_exec,
        "max_exec_s": max_exec,
        "imbalance": (max_exec / mean_exec) if mean_exec > 0 else 1.0,
        "mean_queue_s": (
            sum(_queue_s(task) for task in tasks) / len(tasks) if tasks else 0.0
        ),
        "per_worker": workers,
        "slowest_shards": slowest,
        "task_stats": [_task_stats(task) for task in tasks],
    }
    if "generation" in stage.meta:
        payload["pool_generation"] = stage.meta["generation"]
    return payload


def run_report(tracer: Tracer) -> Optional[Dict[str, object]]:
    """Every ``pool.stage`` in ``tracer`` summarised, plus totals across
    them; ``None`` when the tracer recorded no pooled stage."""
    stages = [stage_summary(span) for span in tracer.walk() if span.name == POOL_STAGE]
    if not stages:
        return None
    busy: Dict[str, float] = {}
    for stage in stages:
        for pid, row in stage["per_worker"].items():  # type: ignore[union-attr]
            busy[pid] = busy.get(pid, 0.0) + float(row["busy_s"])
    wall_total = sum(float(stage["wall_s"]) for stage in stages)  # type: ignore[arg-type]
    return {
        "stages": stages,
        "totals": {
            "stages": len(stages),
            "tasks": sum(int(stage["tasks"]) for stage in stages),  # type: ignore[call-overload]
            "wall_s": wall_total,
            "worker_pids": sorted(busy, key=int),
            "per_worker_utilization": {
                pid: (busy[pid] / wall_total) if wall_total > 0 else 0.0
                for pid in sorted(busy, key=int)
            },
        },
    }


def json_document(
    *,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """One JSON-ready document over the supplied observability surfaces.

    Sections are present only for the surfaces supplied, so the top-level
    keys are stable per configuration: ``spans`` and ``stages`` for a
    tracer, ``pool`` (the run report) when that tracer holds ``pool.stage``
    spans, and ``metrics`` for a registry.
    """
    document: Dict[str, object] = {}
    if tracer is not None:
        document["spans"] = tracer.to_dict()["spans"]
        document["stages"] = stage_timings(tracer)
        pool = run_report(tracer)
        if pool is not None:
            document["pool"] = pool
    if registry is not None:
        document["metrics"] = registry.snapshot()
    return document


# ----------------------------------------------------------------------
# rendering (the ``smoothoperator report`` command)
# ----------------------------------------------------------------------
def render_report(report: Dict[str, object]) -> str:
    """A terminal-friendly rendering of a document's ``pool`` section."""
    lines: List[str] = []
    totals = report.get("totals", {})
    lines.append(
        "run report: {stages} stage(s), {tasks} task(s), {wall:.3f}s pooled wall".format(
            stages=totals.get("stages", 0),
            tasks=totals.get("tasks", 0),
            wall=float(totals.get("wall_s", 0.0)),
        )
    )
    for stage in report.get("stages", ()):  # type: ignore[union-attr]
        lines.append(
            "  {label}: {tasks} task(s) on {workers} worker(s), "
            "{wall:.3f}s wall, imbalance {imbalance:.2f}x, "
            "mean queue {queue:.1f}ms".format(
                label=stage["label"],
                tasks=stage["tasks"],
                workers=stage["workers"],
                wall=float(stage["wall_s"]),
                imbalance=float(stage["imbalance"]),
                queue=float(stage["mean_queue_s"]) * 1e3,
            )
        )
        retries = int(stage.get("retries", 0))
        failures = int(stage.get("failures", 0))
        if retries or failures:
            lines.append(f"    retries={retries} failures={failures}")
        for pid, row in stage.get("per_worker", {}).items():  # type: ignore[union-attr]
            lines.append(
                "    pid {pid}: {tasks} task(s), busy {busy:.3f}s "
                "({util:.0%} of stage wall)".format(
                    pid=pid,
                    tasks=row["tasks"],
                    busy=float(row["busy_s"]),
                    util=float(row["utilization"]),
                )
            )
        slowest = stage.get("slowest_shards", ())
        if slowest:
            worst = ", ".join(
                "#{shard}@{pid} {exec_s:.1f}ms".format(
                    shard=entry["shard_id"],
                    pid=entry["worker_pid"],
                    exec_s=float(entry["exec_s"]) * 1e3,
                )
                for entry in slowest
            )
            lines.append(f"    slowest: {worst}")
    per_worker = totals.get("per_worker_utilization", {})
    if per_worker:
        lines.append("  overall worker utilization:")
        for pid, utilization in per_worker.items():  # type: ignore[union-attr]
            lines.append(f"    pid {pid}: {float(utilization):.0%}")
    return "\n".join(lines)
