"""Shared builders and fingerprint helpers for the engine parity suite.

The golden-parity tests pin the engine's output to fingerprints captured
from the pre-refactor runtimes (``tests/engine/golden.json``, produced by
``tests/engine/_golden_gen.py``).  Equality is exact (``==`` on floats):
the refactor moved code, it must not change a single bit of the results.
"""

import numpy as np
import pytest

from repro.engine import Engine, FleetDescription, ScenarioSpec
from repro.reshaping import ConversionPolicy, ThrottleBoostPolicy
from repro.sim import DemandTrace, DVFSModel, ServerPowerModel
from repro.traces import TimeGrid

#: The chaos-harness scale every engine test runs at (fast, deterministic).
SMALL = dict(n_instances=96, step_minutes=60, weeks=2)


def make_grid():
    return TimeGrid.for_days(2, step_minutes=60)


def make_fleet(budget_watts=45_000.0):
    return FleetDescription(
        n_lc=100,
        n_batch=40,
        lc_model=ServerPowerModel(90, 240),
        batch_model=ServerPowerModel(150, 235),
        budget_watts=budget_watts,
    )


def make_demand(grid=None):
    """Diurnal demand: peak per-server load 0.85 on the original fleet."""
    grid = grid if grid is not None else make_grid()
    hours = grid.hours_of_day()
    shape = 0.35 + 0.5 * np.exp(2.0 * (np.cos(2 * np.pi * (hours - 14) / 24) - 1))
    return DemandTrace(grid, shape * 100.0)


def make_runtime_parts(budget_watts=45_000.0):
    """(fleet, conversion, throttle, dvfs) for the reshaping fixtures."""
    return (
        make_fleet(budget_watts),
        ConversionPolicy(conversion_threshold=0.85),
        ThrottleBoostPolicy(),
        DVFSModel(),
    )


def reshaping_results():
    """The four reshaping scenarios ``golden.json`` pins, via ``Engine.run``.

    Shared by ``_golden_gen.py`` and the parity suite, so the generator and
    the test run exactly the same scenarios.
    """
    fleet, conversion, throttle, dvfs = make_runtime_parts()
    engine = Engine(fleet, conversion, throttle=throttle, dvfs=dvfs)
    demand = make_demand()

    def run(mode, demand, **kwargs):
        spec = ScenarioSpec(
            mode=mode,
            fleet=fleet,
            demand=demand,
            conversion=conversion,
            throttle=throttle,
            dvfs=dvfs,
            **kwargs,
        )
        return engine.run(spec).result

    return {
        "pre": run("pre", demand),
        "lc_only": run("lc_only", demand.scaled(1.1), extra_servers=10),
        "conversion": run("conversion", demand.scaled(1.1), extra_servers=10),
        "throttle_boost": run(
            "throttle_boost",
            demand.scaled(1.15),
            extra_servers=10,
            extra_throttle_funded=5,
        ),
    }


def throttle_boost_chaos_result():
    """The ``throttle_boost_chaos`` run ``golden.json`` pins, via ``Engine.run``.

    At 28 kW the boosted week overloads, so the capping fallback engages.
    """
    fleet, conversion, throttle, dvfs = make_runtime_parts(budget_watts=28_000.0)
    spec = ScenarioSpec(
        mode="throttle_boost_chaos",
        fleet=fleet,
        demand=make_demand(),
        conversion=conversion,
        throttle=throttle,
        dvfs=dvfs,
        extra_servers=10,
    )
    return Engine.from_spec(spec).run(spec).result


# ----------------------------------------------------------------------
# fingerprints: position-weighted checksums catch any per-step change
# ----------------------------------------------------------------------
def scenario_fingerprint(result):
    w = np.arange(1.0, result.total_power.size + 1.0)
    return {
        "name": result.name,
        "lc_total": float(result.lc_served.sum()),
        "batch_total": float(result.batch_throughput.sum()),
        "dropped_fraction": result.dropped_fraction(),
        "peak_power": float(result.total_power.max()),
        "energy_slack": result.energy_slack(),
        "overload_steps": int(result.overload_steps()),
        "power_checksum": float(np.dot(result.total_power, w)),
        "freq_checksum": float(np.dot(result.batch_freq, w)),
        "n_lc_checksum": float(np.dot(result.n_lc_active, w)),
        "n_batch_checksum": float(np.dot(result.n_batch_active, w)),
        "parked_checksum": (
            float(np.dot(result.parked, w)) if result.parked is not None else None
        ),
    }


def run_fingerprint(run):
    """A :class:`~repro.engine.ChaosRunResult`: both scenarios and the audit."""
    recovery = run.recovery
    fingerprint = {
        "scenario": scenario_fingerprint(run.scenario),
        "raw": scenario_fingerprint(run.raw),
        "engaged": recovery.engaged,
        "overload_before": recovery.overload_steps_before,
        "overload_after": recovery.overload_steps_after,
        "trips_before": len(recovery.trips_before),
        "trips_after": len(recovery.trips_after),
        "forced_shutdown_watt_minutes": recovery.forced_shutdown_watt_minutes,
        "lc_energy_shed": recovery.lc_energy_shed,
        "failure_downtime": recovery.failure_downtime_server_steps,
    }
    if recovery.capping is not None:
        fingerprint["capping"] = {
            "total_event_steps": recovery.capping.total_event_steps,
            "residual_overload_steps": recovery.capping.residual_overload_steps,
            "shed_by_kind": dict(sorted(recovery.capping.shed_by_kind.items())),
        }
    if recovery.conversion_lc is not None:
        log = recovery.conversion_lc
        fingerprint["conversion_lc"] = [
            log.n_transitions,
            log.n_failed_attempts,
            log.n_aborted,
            log.delayed_server_steps,
        ]
    return fingerprint


def chaos_fingerprint(outcome):
    fingerprint = run_fingerprint(outcome.reshaping)
    fingerprint.update(
        quality_clean=outcome.quality_clean,
        quality_chaos=outcome.quality_chaos,
        placement_trips=outcome.placement_trips,
        passed=outcome.passed,
    )
    return fingerprint


@pytest.fixture(scope="session")
def golden():
    import json
    import pathlib

    path = pathlib.Path(__file__).parent / "golden.json"
    with open(path) as handle:
        return json.load(handle)
