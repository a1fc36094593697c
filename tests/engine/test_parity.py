"""Golden parity: the engine reproduces the committed fingerprints bit-for-bit.

``golden.json`` was first captured from the scenario runtimes that predate
``repro.engine`` and ``run_chaos_suite``.  Every compare here is exact
(``==`` on floats): refactors move code between modules, they must not
change a single bit of any result.
"""

import pytest

from conftest import (
    SMALL,
    chaos_fingerprint,
    reshaping_results,
    run_fingerprint,
    scenario_fingerprint,
    throttle_boost_chaos_result,
)
from repro.engine import chaos_spec, run_many
from repro.faults import run_chaos_suite
from repro.faults.harness import DEFAULT_SUITE

RESHAPING_MODES = ("pre", "lc_only", "conversion", "throttle_boost")
CHAOS_NAMES = tuple(scenario.name for scenario in DEFAULT_SUITE)


# ----------------------------------------------------------------------
# reshaping modes, driven through the engine
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine_results():
    """The four scenarios ``_golden_gen.py`` fingerprints, run once."""
    return reshaping_results()


@pytest.mark.parametrize("mode", RESHAPING_MODES)
def test_engine_matches_golden(engine_results, golden, mode):
    assert scenario_fingerprint(engine_results[mode]) == golden["reshaping"][mode]


def test_throttle_boost_chaos_matches_golden(golden):
    run = throttle_boost_chaos_result()
    assert run.recovery.engaged  # the pinned run exercises the fallback
    assert run_fingerprint(run) == golden["throttle_boost_chaos"]


# ----------------------------------------------------------------------
# chaos harness: all ten scenarios, end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def chaos_outcomes():
    outcomes = run_chaos_suite(dc_name="DC1", **SMALL)
    return {outcome.scenario.name: outcome for outcome in outcomes}


def test_chaos_suite_covers_golden(chaos_outcomes, golden):
    assert set(chaos_outcomes) == set(golden["chaos"])


@pytest.mark.parametrize("name", CHAOS_NAMES)
def test_chaos_matches_golden(chaos_outcomes, golden, name):
    assert chaos_fingerprint(chaos_outcomes[name]) == golden["chaos"][name]


# ----------------------------------------------------------------------
# determinism: worker count must not change a single bit
# ----------------------------------------------------------------------
def test_run_many_parallel_matches_serial(golden):
    specs = [chaos_spec(name, dc_name="DC1", **SMALL) for name in CHAOS_NAMES]
    serial = run_many(specs, workers=1)
    parallel = run_many(specs, workers=4)
    assert [chaos_fingerprint(a.result) for a in serial] == [
        chaos_fingerprint(a.result) for a in parallel
    ]
    # ... and both match the pre-refactor goldens.
    for artifacts in parallel:
        fingerprint = chaos_fingerprint(artifacts.result)
        assert fingerprint == golden["chaos"][artifacts.result.scenario.name]
