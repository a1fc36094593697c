"""Incremental de-fragmentation under a migration budget (Sec. 3.6).

A full fleet re-placement means migrating almost every service instance —
operationally expensive.  SmoothOperator's adaptation loop instead finds the
most fragmented power node (lowest asynchrony score), evicts its
worst-fitting instance (lowest *differential* asynchrony score), and swaps
it with an instance from another node, accepting only swaps that improve
both nodes.  Each swap costs exactly two instance migrations.

This example starts from a legacy, service-grouped placement and shows how
much of the full optimiser's benefit a bounded number of swaps recovers.

Run:  python examples/incremental_remapping.py
"""

from repro.analysis import format_percent, format_table
from repro.baselines import oblivious_placement
from repro.core import (
    PlacementConfig,
    RemapConfig,
    RemappingEngine,
    WorkloadAwarePlacer,
    node_asynchrony_scores,
)
from repro.infra import Level, NodePowerView, build_topology, ocp_spec
from repro.traces import (
    TraceSet,
    TraceSynthesizer,
    cache_profile,
    db_profile,
    hadoop_profile,
    media_profile,
    web_profile,
)


def main() -> None:
    topology = build_topology(
        ocp_spec(
            "legacy",
            suites=2,
            msbs_per_suite=1,
            sbs_per_msb=2,
            rpps_per_sb=2,
            racks_per_rpp=2,
            servers_per_rack=10,
        )
    )
    synthesizer = TraceSynthesizer(weeks=2, step_minutes=30, seed=11)
    fleet = synthesizer.fleet(
        [
            (web_profile(), 48),
            (cache_profile(), 28),
            (db_profile(), 28),
            (hadoop_profile(), 16),
            (media_profile(), 24),
        ],
        test_weeks=0,
    )
    traces = TraceSet.from_traces(
        {r.instance_id: r.training_trace for r in fleet}
    )

    legacy = oblivious_placement(fleet, topology)
    legacy_peaks = NodePowerView(topology, legacy, traces).sum_of_peaks(Level.RPP)

    optimal = WorkloadAwarePlacer(PlacementConfig(seed=0)).place(fleet, topology)
    optimal_peaks = NodePowerView(topology, optimal.assignment, traces).sum_of_peaks(
        Level.RPP
    )
    achievable = legacy_peaks - optimal_peaks

    rows = []
    for budget in (5, 15, 30, 60, 120):
        engine = RemappingEngine(
            RemapConfig(
                level=Level.RPP,
                max_swaps=budget,
                candidate_nodes=7,
                candidate_instances=24,
            )
        )
        result = engine.run(legacy, traces)
        peaks = NodePowerView(topology, result.assignment, traces).sum_of_peaks(
            Level.RPP
        )
        scores = node_asynchrony_scores(result.assignment, traces, Level.RPP)
        recovered = (legacy_peaks - peaks) / achievable if achievable > 0 else 0.0
        rows.append(
            [
                f"{budget} swaps (used {result.n_swaps})",
                f"{peaks:.0f}",
                format_percent(1 - peaks / legacy_peaks),
                format_percent(recovered),
                f"{min(scores.values()):.3f}",
            ]
        )
    rows.append(
        [
            "full re-placement",
            f"{optimal_peaks:.0f}",
            format_percent(1 - optimal_peaks / legacy_peaks),
            "100.0%",
            f"{min(node_asynchrony_scores(optimal.assignment, traces, Level.RPP).values()):.3f}",
        ]
    )

    print(
        format_table(
            [
                "migration budget",
                "RPP sum-of-peaks W",
                "reduction vs legacy",
                "of full benefit",
                "min node asynchrony",
            ],
            rows,
            title=(
                "Incremental de-fragmentation of a legacy placement "
                f"(legacy: {legacy_peaks:.0f} W of RPP peaks)"
            ),
        )
    )


if __name__ == "__main__":
    main()
