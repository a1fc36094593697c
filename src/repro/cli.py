"""Command-line interface: regenerate paper experiments from the terminal.

Usage::

    smoothoperator list
    smoothoperator fig10 [--instances N]
    smoothoperator fig13
    smoothoperator table1
    smoothoperator chaos [--instances N] [--workers N] [--task-timeout S]
    smoothoperator place [--gamma N] [--instances N]
    smoothoperator robust [--instances N]
    smoothoperator profile [--instances N] [--json]
    smoothoperator monitor [--scenario NAME] [--events PATH] [--instances N]
    smoothoperator report [--report PATH] [--run --workers N] [--json]
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import experiments
from .analysis.comparison import table1_headers, table1_rows
from .analysis.report import format_percent, format_table


def _cmd_fig5(args: argparse.Namespace) -> None:
    for name in experiments.DATACENTER_NAMES:
        dc = experiments.get_datacenter(name, n_instances=args.instances)
        rows = [
            (service, format_percent(share))
            for service, share in experiments.run_figure5(dc)
        ]
        print(format_table(["service", "share"], rows, title=f"Figure 5 — {name}"))
        print()


def _cmd_fig6(args: argparse.Namespace) -> None:
    dc = experiments.get_datacenter("DC1", n_instances=args.instances)
    summary = experiments.run_figure6(dc)
    rows = [
        (
            service,
            f"{stats['median_peak']:.1f}",
            f"{stats['median_valley']:.1f}",
            format_percent(stats["diurnal_swing"]),
            format_percent(stats["heterogeneity"]),
        )
        for service, stats in summary.items()
    ]
    print(
        format_table(
            ["service", "median peak", "median valley", "diurnal swing", "heterogeneity"],
            rows,
            title="Figure 6 — diurnal patterns (DC1)",
        )
    )


def _cmd_fig10(args: argparse.Namespace) -> None:
    result = experiments.run_figure10(n_instances=args.instances)
    levels = ["suite", "msb", "sb", "rpp"]
    rows = []
    for name, reductions in result.items():
        rows.append(
            [name]
            + [format_percent(reductions.get(level, 0.0)) for level in levels]
            + [format_percent(reductions["extra_servers"])]
        )
    print(
        format_table(
            ["DC"] + [level.upper() for level in levels] + ["extra servers"],
            rows,
            title="Figure 10 — peak power reduction by level",
        )
    )


def _cmd_fig11(args: argparse.Namespace) -> None:
    for name in experiments.DATACENTER_NAMES:
        grid = experiments.run_figure11(name, n_instances=args.instances)
        labels = sorted(next(iter(grid.values())).keys())
        rows = [
            [level] + [f"{grid[level][label]:.3f}" for label in labels]
            for level in grid
        ]
        print(format_table(["level"] + labels, rows, title=f"Figure 11 — {name}"))
        print()


def _cmd_fig13(args: argparse.Namespace) -> None:
    result = experiments.run_figure13(n_instances=args.instances)
    rows = [
        [
            name,
            format_percent(row["lc_conversion"]),
            format_percent(row["batch_conversion"]),
            format_percent(row["lc_throttle_boost"]),
            format_percent(row["batch_throttle_boost"]),
        ]
        for name, row in result.items()
    ]
    print(
        format_table(
            ["DC", "LC (conv)", "Batch (conv)", "LC (+thr/boost)", "Batch (+thr/boost)"],
            rows,
            title="Figure 13 — throughput improvement",
        )
    )


def _cmd_fig14(args: argparse.Namespace) -> None:
    result = experiments.run_figure14(n_instances=args.instances)
    rows = [
        [name, format_percent(row["average"]), format_percent(row["off_peak"])]
        for name, row in result.items()
    ]
    print(
        format_table(
            ["DC", "avg slack reduction", "off-peak slack reduction"],
            rows,
            title="Figure 14 — power slack reduction",
        )
    )


def _cmd_table1(args: argparse.Namespace) -> None:
    print(format_table(table1_headers(), table1_rows(), title="Table 1"))


def _cmd_figures(args: argparse.Namespace) -> None:
    from .analysis.gallery import render_all

    paths = render_all("figures", n_instances=args.instances)
    for path in paths:
        print(path)


def _cmd_safety(args: argparse.Namespace) -> None:
    study = experiments.run_power_safety("DC3", n_instances=args.instances)
    rows = [
        [
            label,
            report.total_event_steps,
            f"{report.lc_energy_shed / 1e3:.1f}",
            f"{report.batch_energy_shed / 1e3:.1f}",
        ]
        for label, report in study.reports.items()
    ]
    print(
        format_table(
            ["placement", "capping events", "LC shed (kW-min)", "batch shed (kW-min)"],
            rows,
            title="Power safety — capping under an LC surge (DC3)",
        )
    )


def _chaos_specs(args: argparse.Namespace, scenarios=None) -> list:
    """Shared scenario loader for the chaos and monitor commands.

    Resolves names eagerly (typos fail before any work starts) and stamps
    the CLI sizing onto declarative :class:`repro.engine.ChaosSpec`s.
    """
    from .engine import chaos_spec
    from .faults.harness import DEFAULT_SUITE

    scenarios = scenarios if scenarios is not None else DEFAULT_SUITE
    return [
        chaos_spec(scenario, dc_name="DC1", n_instances=args.instances)
        for scenario in scenarios
    ]


def _cmd_chaos(args: argparse.Namespace) -> None:
    from .engine import run_many
    from .faults import format_chaos_table

    specs = _chaos_specs(args)
    outcomes = [
        artifacts.result
        for artifacts in run_many(specs, workers=args.workers)
    ]
    print(format_chaos_table(outcomes))
    failed = [o.scenario.name for o in outcomes if not o.passed]
    if failed:
        print(f"\nFAILED scenarios: {', '.join(failed)}")
        raise SystemExit(1)


def _cmd_place(args: argparse.Namespace) -> None:
    """Run the (Γ-robust) placement pipeline and print a placement summary."""
    import numpy as np

    from .core.pipeline import SmoothOperator, SmoothOperatorConfig
    from .core.placement import PlacementConfig
    from .infra.aggregation import NodePowerView
    from .infra.topology import Level
    from .robust.placement import RobustPlacementConfig

    dc = experiments.get_datacenter("DC1", n_instances=args.instances)
    operator = SmoothOperator(
        SmoothOperatorConfig(
            placement=PlacementConfig(seed=0),
            robust=RobustPlacementConfig(gamma=args.gamma),
        )
    )
    outcome = operator.optimize(dc.records, dc.topology)
    robust = outcome.robust
    view = NodePowerView(dc.topology, outcome.assignment, dc.test_traces())
    rows = []
    for node in dc.topology.nodes_at_level(Level.RPP):
        acc = robust.index.accountants[node.name]
        rows.append(
            [
                node.name,
                f"{view.node_peak(node.name):.0f}",
                f"{acc.nominal_sum:.0f}",
                f"{acc.top_sum:.0f}",
            ]
        )
    print(
        format_table(
            ["RPP", "test-week peak (W)", "Σ nominal (W)", f"top-{args.gamma} radii (W)"],
            rows,
            title=f"Γ-robust placement — DC1, gamma={args.gamma}",
        )
    )
    spike_charge = np.array([float(row[3]) for row in rows])
    print()
    print(f"instances placed : {len(dc.records)}")
    print(f"strategy         : {'nominal fallback' if args.gamma == 0 else 'swap'}")
    print(f"swaps performed  : {robust.n_swaps}")
    print(
        "spike charge     : "
        f"max {spike_charge.max():.0f} W, mean {spike_charge.mean():.0f} W per RPP"
    )


def _cmd_robust(args: argparse.Namespace) -> None:
    """Run the spike-burst chaos suite: robust vs. nominal placement."""
    from .robust.chaos import format_robust_table, run_robust_suite

    outcomes = run_robust_suite(n_instances=args.instances)
    print(format_robust_table(outcomes))


def _cmd_predictability(args: argparse.Namespace) -> None:
    from .traces import predictability_report

    rows = []
    for name in experiments.DATACENTER_NAMES:
        dc = experiments.get_datacenter(name, n_instances=args.instances)
        report = predictability_report(dc.records)
        rows.append(
            [
                name,
                format_percent(report.mean_mape),
                format_percent(report.mean_abs_peak_error),
                f"{report.mean_peak_time_error_minutes:.0f} min",
            ]
        )
    print(
        format_table(
            ["DC", "mean MAPE", "mean |peak error|", "mean peak-time error"],
            rows,
            title="Week-ahead predictability (training avg -> test week)",
        )
    )


def _cmd_profile(args: argparse.Namespace) -> None:
    """Run the full pipeline under tracing and print the span-tree profile."""
    import json

    from . import obs
    from .core.pipeline import SmoothOperator, SmoothOperatorConfig
    from .core.placement import PlacementConfig
    from .core.remapping import RemapConfig
    from .datasets import build_datacenter, dc1_spec
    from .infra.topology import Level

    obs.reset_metrics()
    with obs.tracing() as tracer:
        with obs.span("profile", instances=args.instances):
            # Build from scratch (no experiment cache) so synthesis is traced.
            dc = build_datacenter(
                dc1_spec(n_instances=args.instances), weeks=3, step_minutes=30
            )
            operator = SmoothOperator(
                SmoothOperatorConfig(
                    placement=PlacementConfig(seed=0),
                    remap=RemapConfig(
                        level=Level.RPP,
                        max_swaps=20,
                        verify_every=args.verify_every,
                    ),
                )
            )
            outcome = operator.optimize(dc.records, dc.topology)
            report = SmoothOperator.evaluate(
                dc.records, dc.baseline, outcome.assignment
            )

    if args.json:
        payload = obs.json_document(tracer=tracer, registry=obs.global_registry())
        payload["workload"] = {
            "datacenter": dc.name,
            "instances": len(dc.records),
            "samples_per_trace": dc.records[0].training_trace.grid.n_samples,
            "swaps_accepted": outcome.remap.n_swaps if outcome.remap else 0,
        }
        payload["peak_reduction"] = report.peak_reduction
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    print(tracer.render())
    print()
    swaps = outcome.remap.n_swaps if outcome.remap else 0
    print(f"instances placed : {len(dc.records)}")
    print(f"swaps accepted   : {swaps}")
    reductions = ", ".join(
        f"{level}={format_percent(value)}"
        for level, value in report.peak_reduction.items()
    )
    print(f"peak reduction   : {reductions}")


def _cmd_monitor(args: argparse.Namespace) -> None:
    """Replay one chaos scenario under full telemetry and dump its record.

    Runs the scenario with the tracer, the structured event log, and the
    flight recorder all installed, renders a per-level utilization /
    violation table plus event counts, and writes the JSONL event log.
    """
    from . import obs
    from .engine import execute
    from .obs import events as obs_events
    from .obs import telemetry as obs_telemetry

    [spec] = _chaos_specs(args, scenarios=[args.scenario])
    scenario = spec.scenario
    with obs.tracing(), obs_events.recording() as log, obs_telemetry.recording() as recorder:
        outcome = execute(spec).result

    dc = experiments.get_datacenter("DC1", n_instances=args.instances)
    level_of = {node.name: node.level for node in dc.topology.nodes()}
    # Root-to-leaf level order, with non-topology paths (e.g. the
    # "reshape/<name>" scenario aggregates) grouped last.
    level_order = dc.topology.levels() + ["scenario"]

    def _blank() -> dict:
        return {"nodes": 0, "max_util": 0.0, "violations": 0, "advisories": 0}

    per_level: dict = {}
    for path, series in recorder.summary().items():
        level = level_of.get(path, "scenario")
        agg = per_level.setdefault(level, _blank())
        agg["nodes"] += 1
        util = series.get("utilization", {})
        if util.get("count"):
            agg["max_util"] = max(agg["max_util"], util["max"])
    for event in log:
        if event.kind not in (obs_events.VIOLATION, obs_events.ADVISORY):
            continue
        level = level_of.get(event.fields.get("node"), "scenario")
        agg = per_level.setdefault(level, _blank())
        if event.kind == obs_events.VIOLATION:
            agg["violations"] += 1
        else:
            agg["advisories"] += 1

    ordered = [lvl for lvl in level_order if lvl in per_level] + sorted(
        set(per_level) - set(level_order)
    )
    rows = [
        [
            level,
            per_level[level]["nodes"],
            f"{per_level[level]['max_util']:.3f}",
            per_level[level]["violations"],
            per_level[level]["advisories"],
        ]
        for level in ordered
    ]
    print(
        format_table(
            ["level", "nodes", "max utilization", "violations", "advisories"],
            rows,
            title=f"Monitor — chaos scenario {scenario.name!r}",
        )
    )
    print()
    counts = log.counts_by_kind()
    print(
        format_table(
            ["event kind", "count"],
            [[kind, counts[kind]] for kind in sorted(counts)],
            title="Structured events",
        )
    )
    path = log.write(args.events)
    print(f"\n{len(log)} events written to {path}")
    print(f"scenario passed  : {outcome.passed}")


def _cmd_report(args: argparse.Namespace) -> None:
    """Render the run report of the parallel data plane.

    By default reads a run document (:func:`repro.obs.json_document`)
    written by an earlier ``--run``.  With ``--run``, executes the chaos
    suite on a worker pool under tracing right now, writes its document to
    ``--report`` and reports on that run — the quickest way to see
    per-worker utilization and shard imbalance on this machine.
    """
    import json
    import pathlib

    from . import obs

    path = pathlib.Path(args.report)
    if args.run:
        from .engine import run_many

        obs.reset_metrics()
        specs = _chaos_specs(args)
        with obs.tracing() as tracer:
            run_many(specs, workers=max(2, args.workers))
        document = obs.json_document(tracer=tracer, registry=obs.global_registry())
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"run report written to {path}\n", file=sys.stderr)
    else:
        if not path.exists():
            raise SystemExit(
                f"no run report at {path} — produce one with "
                f"'smoothoperator report --run --report {path}'"
            )
        document = json.loads(path.read_text())
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
        return
    if "pool" not in document:
        raise SystemExit(
            f"{path} records no pooled stage — produce one under "
            f"tracing: 'smoothoperator report --run --report {path}'"
        )
    print(obs.render_report(document["pool"]))


_COMMANDS = {
    "chaos": _cmd_chaos,
    "monitor": _cmd_monitor,
    "profile": _cmd_profile,
    "report": _cmd_report,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "fig10": _cmd_fig10,
    "fig11": _cmd_fig11,
    "fig13": _cmd_fig13,
    "fig14": _cmd_fig14,
    "table1": _cmd_table1,
    "figures": _cmd_figures,
    "place": _cmd_place,
    "robust": _cmd_robust,
    "safety": _cmd_safety,
    "predictability": _cmd_predictability,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="smoothoperator",
        description="Regenerate SmoothOperator (ASPLOS 2018) experiments.",
    )
    parser.add_argument(
        "command",
        choices=sorted(_COMMANDS) + ["list"],
        help="experiment to run",
    )
    parser.add_argument(
        "--instances",
        type=int,
        default=experiments.DEFAULT_N_INSTANCES,
        help="fleet size per datacenter",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON (profile command)",
    )
    parser.add_argument(
        "--scenario",
        default="surge_overload",
        help="chaos scenario to replay (monitor command)",
    )
    parser.add_argument(
        "--events",
        default="events.jsonl",
        help="JSONL event-log output path (monitor command)",
    )
    parser.add_argument(
        "--gamma",
        type=int,
        default=2,
        help="Γ protection level for robust placement (place command)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes that run the chaos suite (chaos, report commands)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="S",
        help=(
            "hard per-task deadline in seconds for pooled stages: hung "
            "workers are killed and the task retried"
        ),
    )
    parser.add_argument(
        "--verify-every",
        type=int,
        default=None,
        metavar="N",
        help=(
            "opt-in remapping verification knob: every N accepted swaps "
            "touching a node, cross-check its exactly-maintained aggregate "
            "against a from-scratch recomputation (profile command)"
        ),
    )
    parser.add_argument(
        "--report",
        default="run_report.json",
        help="run document JSON path to render or write (report command)",
    )
    parser.add_argument(
        "--run",
        action="store_true",
        help="run the chaos suite on a worker pool and report on it (report command)",
    )
    args = parser.parse_args(argv)
    if args.instances < 1:
        parser.error("--instances must be positive")
    if args.command == "list":
        for name in sorted(_COMMANDS):
            print(name)
        return 0
    from .engine.deadline import TaskDeadline, deadline_scope

    deadline = None
    if args.task_timeout is not None:
        if not args.task_timeout > 0:  # also rejects NaN
            parser.error("--task-timeout must be positive")
        deadline = TaskDeadline(hard_timeout_s=args.task_timeout)
    with deadline_scope(deadline):
        _COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
