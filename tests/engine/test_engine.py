"""Unit tests for the engine's building blocks."""

import dataclasses

import pytest

from conftest import make_demand, make_fleet, make_runtime_parts
from repro.engine import (
    MODES,
    CappingPolicy,
    ChaosRunResult,
    ConversionFaultModel,
    Engine,
    FailureEvent,
    RunArtifacts,
    ScenarioResult,
    ScenarioSpec,
    ServerFailureSchedule,
    execute,
    run_many,
)
from repro.infra.breaker import BreakerModel
from repro.reshaping import ConversionPolicy, ThrottleBoostPolicy
from repro.sim import DVFSModel


# ----------------------------------------------------------------------
# ScenarioSpec validation and modes
# ----------------------------------------------------------------------
def test_spec_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        ScenarioSpec(mode="nonsense", fleet=make_fleet(), demand=make_demand())


def test_spec_rejects_negative_extra_servers():
    with pytest.raises(ValueError, match="cannot be negative"):
        ScenarioSpec(
            mode="lc_only",
            fleet=make_fleet(),
            demand=make_demand(),
            extra_servers=-1,
        )


@pytest.mark.parametrize("mode", MODES)
def test_run_executes_every_mode(mode):
    fleet, conversion, throttle, dvfs = make_runtime_parts()
    engine = Engine(fleet, conversion, throttle=throttle, dvfs=dvfs)
    spec = ScenarioSpec(
        mode=mode,
        fleet=fleet,
        demand=make_demand(),
        conversion=conversion,
        extra_servers=5,
    )
    result = engine.run(spec).result
    if mode.endswith("_chaos"):
        # Emergency capping guards the chaos modes.
        assert isinstance(result, ChaosRunResult)
        assert isinstance(result.scenario, ScenarioResult)
    else:
        assert isinstance(result, ScenarioResult)


def test_from_spec_requires_a_conversion_policy():
    """The spec checks it where it is built, before any engine or worker."""
    with pytest.raises(ValueError, match="conversion policy"):
        ScenarioSpec(mode="pre", fleet=make_fleet(), demand=make_demand())


#: One value per engine field that differs from ``make_runtime_parts()``'s
#: engine (built with its throttle and dvfs, everything else defaulted).
DIFFERENT = {
    "fleet": make_fleet(30_000.0),
    "conversion": ConversionPolicy(conversion_threshold=0.7),
    "throttle": ThrottleBoostPolicy(throttle_freq=0.7),
    "dvfs": DVFSModel(max_freq=1.2),
    "failures": ServerFailureSchedule(
        events=(FailureEvent(start_index=0, duration_samples=1, n_servers=1),)
    ),
    "conversion_faults": ConversionFaultModel(latency_steps=1),
    "breaker": BreakerModel(tolerance_minutes=5),
    "capping_policy": CappingPolicy(floors={"batch": 0.1}),
    "seed": 1,
}


@pytest.mark.parametrize("field", sorted(DIFFERENT))
def test_run_rejects_a_spec_that_disagrees_with_the_engine(field):
    fleet, conversion, throttle, dvfs = make_runtime_parts()
    engine = Engine(fleet, conversion, throttle=throttle, dvfs=dvfs)
    spec = ScenarioSpec(
        mode="conversion_chaos",
        fleet=fleet,
        demand=make_demand(),
        conversion=conversion,
    )
    with pytest.raises(ValueError, match=rf"spec\.{field} differs"):
        engine.run(dataclasses.replace(spec, **{field: DIFFERENT[field]}))


def test_run_accepts_equal_values_and_unset_fields():
    """Engine fields compare by value; ``None`` means the engine's."""
    fleet, conversion, throttle, dvfs = make_runtime_parts()
    engine = Engine(fleet, conversion, throttle=throttle, dvfs=dvfs)
    demand = make_demand()
    equal = ScenarioSpec(
        mode="conversion_chaos",
        fleet=dataclasses.replace(fleet),
        demand=demand,
        conversion=dataclasses.replace(conversion),
        throttle=ThrottleBoostPolicy(),
        dvfs=DVFSModel(),
        failures=ServerFailureSchedule(),
        conversion_faults=ConversionFaultModel(),
        breaker=BreakerModel(),
        capping_policy=CappingPolicy(),
        seed=0,
    )
    unset = ScenarioSpec(
        mode="conversion_chaos", fleet=fleet, demand=demand, conversion=conversion
    )
    assert engine.run(equal).result.scenario.budget_watts == fleet.budget_watts
    assert engine.run(unset).result.scenario.budget_watts == fleet.budget_watts


def test_throttle_boost_rejects_negative_funded_count():
    fleet, conversion, throttle, dvfs = make_runtime_parts()
    engine = Engine(fleet, conversion, throttle=throttle, dvfs=dvfs)
    spec = ScenarioSpec(
        mode="throttle_boost",
        fleet=fleet,
        demand=make_demand(),
        conversion=conversion,
        extra_servers=3,
        extra_throttle_funded=-1,
    )
    with pytest.raises(ValueError, match="cannot be negative"):
        engine.run(spec)


def test_custom_name_overrides_the_mode_label():
    fleet, conversion, throttle, dvfs = make_runtime_parts()
    engine = Engine(fleet, conversion, throttle=throttle, dvfs=dvfs)
    spec = ScenarioSpec(
        mode="pre",
        fleet=fleet,
        demand=make_demand(),
        conversion=conversion,
        name="baseline",
    )
    assert engine.run(spec).result.name == "baseline"


# ----------------------------------------------------------------------
# RunArtifacts and execute/run_many plumbing
# ----------------------------------------------------------------------
def test_artifacts_scenario_unwraps_plain_results():
    fleet, conversion, throttle, dvfs = make_runtime_parts()
    engine = Engine(fleet, conversion, throttle=throttle, dvfs=dvfs)
    spec = ScenarioSpec(
        mode="pre", fleet=fleet, demand=make_demand(), conversion=conversion
    )
    artifacts = engine.run(spec)
    assert artifacts.scenario is artifacts.result
    assert artifacts.spec is spec


def test_artifacts_scenario_is_none_for_foreign_results():
    assert RunArtifacts(spec=None, result={"not": "a result"}).scenario is None


def test_execute_rejects_unknown_spec_types():
    with pytest.raises(TypeError, match="cannot execute"):
        execute(object())


def test_run_many_serial_preserves_spec_order():
    fleet, conversion, throttle, dvfs = make_runtime_parts()
    demand = make_demand()
    specs = [
        ScenarioSpec(
            mode="pre", fleet=fleet, demand=demand, conversion=conversion
        ),
        ScenarioSpec(
            mode="lc_only",
            fleet=fleet,
            demand=demand,
            conversion=conversion,
            extra_servers=5,
        ),
    ]
    results = run_many(specs, workers=1)
    assert [a.result.name for a in results] == ["pre", "lc_only"]
