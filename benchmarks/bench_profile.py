"""Stage-by-stage pipeline profile, gated against committed references.

Runs the full pipeline (synthesize → score → cluster → place → remap →
evaluate) on a 480-instance DC3 fleet under the :mod:`repro.obs` tracer
and asserts two gates against the references below:

* every reference stage appears in the profile and stays within the wall
  bound of ``benchmarks/conftest.py`` (3x its reference + 0.05 s);
* the remapped placement's peak reduction at each power-tree level is at
  least its reference minus :data:`PEAK_TOLERANCE`.

The references were recorded at these constants.  The peak reductions
are deterministic, so a drop past the tolerance means placement changed,
not the host.  The two overhead tests below bound the cost of tracing and
of the full observability stack.
"""

import time

import pytest

from repro import obs
from repro.core.pipeline import SmoothOperator, SmoothOperatorConfig
from repro.core.placement import PlacementConfig, WorkloadAwarePlacer
from repro.core.remapping import RemapConfig
from repro.datasets import build_datacenter, dc3_spec
from repro.infra.topology import Level

N_INSTANCES = 480
STEP_MINUTES = 10
WEEKS = 3

#: Reference wall seconds per traced stage.
REFERENCE_WALL_S = {
    "profile": 0.4662031190000562,
    "synthesize": 0.21303115699993214,
    "synthesize.service": 0.21272287700230663,
    "pipeline.optimize": 0.2280958709998231,
    "place": 0.21832667000126094,
    "score": 0.04583346100298513,
    "cluster": 0.11334383000212256,
    "remap": 0.008313364000059664,
    "pipeline.evaluate": 0.011649101999864797,
}

#: Reference peak reduction per power-tree level after RPP remapping.
REFERENCE_PEAK_REDUCTION = {
    "datacenter": 0.0,
    "msb": 0.12173529014728977,
    "rack": 0.15279482616903123,
    "rpp": 0.15279482616903123,
    "sb": 0.14021725743475835,
    "suite": 0.021166549089559197,
}

#: A level fails when its reduction drops more than this below reference.
PEAK_TOLERANCE = 0.02


def _profiled_run():
    with obs.tracing() as tracer:
        with obs.span("profile", instances=N_INSTANCES):
            dc = build_datacenter(
                dc3_spec(n_instances=N_INSTANCES),
                weeks=WEEKS,
                step_minutes=STEP_MINUTES,
            )
            operator = SmoothOperator(
                SmoothOperatorConfig(
                    placement=PlacementConfig(seed=0),
                    remap=RemapConfig(level=Level.RPP, max_swaps=30),
                )
            )
            outcome = operator.optimize(dc.records, dc.topology)
            report = SmoothOperator.evaluate(
                dc.records, dc.baseline, outcome.assignment
            )
    return tracer, report


@pytest.mark.benchmark(group="profile")
def test_pipeline_profile(benchmark, emit_report, check_walls):
    tracer, report = benchmark.pedantic(_profiled_run, rounds=1, iterations=1)
    emit_report("profile", tracer.render())

    walls = {row["stage"]: row["wall_s"] for row in obs.stage_timings(tracer)}
    failures = check_walls(walls, REFERENCE_WALL_S)
    for level, reference in REFERENCE_PEAK_REDUCTION.items():
        reduction = report.peak_reduction.get(level)
        if reduction is None:
            failures.append(f"no peak reduction reported at {level!r}")
        elif reduction < reference - PEAK_TOLERANCE:
            failures.append(
                f"peak reduction at {level!r} is {reduction:.4f}, more than "
                f"{PEAK_TOLERANCE} below its {reference:.4f} reference"
            )
    assert not failures, "\n".join(failures)


@pytest.mark.benchmark(group="profile")
def test_tracing_overhead(benchmark, emit_report):
    """Placement under tracing must cost ≤ 5% over the untraced run."""
    dc = build_datacenter(
        dc3_spec(n_instances=N_INSTANCES), weeks=WEEKS, step_minutes=STEP_MINUTES
    )

    def _place():
        placer = WorkloadAwarePlacer(PlacementConfig(seed=0))
        started = time.perf_counter()
        placer.place(dc.records, dc.topology)
        return time.perf_counter() - started

    def _measure():
        untraced = min(_place() for _ in range(3))
        with obs.tracing():
            traced = min(_place() for _ in range(3))
        return untraced, traced

    untraced, traced = benchmark.pedantic(_measure, rounds=1, iterations=1)
    overhead = traced / untraced - 1.0
    emit_report(
        "profile_overhead",
        f"placement untraced {untraced:.3f}s, traced {traced:.3f}s "
        f"({overhead:+.2%} overhead)",
    )
    # 5% relative plus a small absolute floor so timer jitter on very fast
    # runs cannot fail the guard.
    assert traced <= untraced * 1.05 + 0.05


@pytest.mark.benchmark(group="profile")
def test_telemetry_overhead(benchmark, emit_report):
    """The full observability stack (tracing + events + flight recorder)
    must cost ≤ 10% over a plain pipeline run — the tentpole's overhead
    budget."""
    from repro.obs import events, telemetry

    dc = build_datacenter(
        dc3_spec(n_instances=N_INSTANCES), weeks=WEEKS, step_minutes=STEP_MINUTES
    )

    def _optimize():
        operator = SmoothOperator(
            SmoothOperatorConfig(
                placement=PlacementConfig(seed=0),
                remap=RemapConfig(level=Level.RPP, max_swaps=30),
            )
        )
        started = time.perf_counter()
        operator.optimize(dc.records, dc.topology)
        return time.perf_counter() - started

    def _measure():
        plain = min(_optimize() for _ in range(3))
        with obs.tracing(), events.recording(), telemetry.recording():
            instrumented = min(_optimize() for _ in range(3))
        return plain, instrumented

    plain, instrumented = benchmark.pedantic(_measure, rounds=1, iterations=1)
    overhead = instrumented / plain - 1.0
    emit_report(
        "telemetry_overhead",
        f"optimize plain {plain:.3f}s, instrumented {instrumented:.3f}s "
        f"({overhead:+.2%} overhead)",
    )
    # 10% relative plus an absolute floor against timer jitter.
    assert instrumented <= plain * 1.10 + 0.05
