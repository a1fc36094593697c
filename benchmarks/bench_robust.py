"""Spike-burst chaos: robust vs nominal placement, gated in this script.

Runs the named :data:`repro.robust.chaos.SPIKE_SUITE` head-to-head suite
and gates the robustness claim the package makes: across the Γ ≥ 2
scenarios, the Γ-robust placement must avoid at least 80% of the
spike-induced violations the nominal placement suffers, while
provisioning at most 15% more breaker capacity.  The avoided fraction
must also stay within :data:`AVOIDED_TOLERANCE` of the committed
:data:`REFERENCE_AVOIDED_FRACTION`.  The Γ = 0 control must change
nothing (the robust placer falls back to the nominal placement).

Scale is the validated reference fleet: 360 instances over 48 RPPs, two
synthesized weeks, 30-minute sampling.
"""

import pytest

from repro.robust import SPIKE_SUITE, format_robust_table, run_robust_suite

N_INSTANCES = 360
STEP_MINUTES = 30
WEEKS = 2

#: Aggregate gate: Γ ≥ 2 scenarios must avoid this share of the nominal
#: placement's violation steps …
MIN_AVOIDED_FRACTION = 0.80
#: … while provisioning at most this much extra breaker capacity.
MAX_CAPACITY_OVERHEAD = 0.15

#: The avoided fraction recorded at these constants; the suite is seeded,
#: so a drop of more than :data:`AVOIDED_TOLERANCE` means the placer
#: changed.
REFERENCE_AVOIDED_FRACTION = 0.8861788617886179
AVOIDED_TOLERANCE = 0.05


def _run():
    return run_robust_suite(
        dc_name="DC1",
        n_instances=N_INSTANCES,
        step_minutes=STEP_MINUTES,
        weeks=WEEKS,
    )


@pytest.mark.benchmark(group="robust")
def test_robust_spike_suite(benchmark, emit_report):
    outcomes = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit_report("robust_suite", format_robust_table(outcomes))

    by_name = {o.scenario.name: o for o in outcomes}
    control = by_name["gamma_zero_control"]
    protected = [o for o in outcomes if o.gamma >= 2]
    assert protected, "suite lost its Γ ≥ 2 scenarios"

    # The control pins the fallback: at Γ = 0 the robust placement *is*
    # the nominal placement, so both sides must take identical damage.
    assert control.robust.violation_steps == control.nominal.violation_steps
    assert control.robust.breaker_trips == control.nominal.breaker_trips
    assert control.n_swaps == 0

    # Every protected scenario must have something to protect against —
    # a nominal placement that never violates would make the avoided
    # fraction vacuous.
    for outcome in protected:
        assert outcome.nominal.violation_steps > 0, (
            f"{outcome.scenario.name}: nominal placement survived the "
            "bursts; the scenario no longer stresses anything"
        )

    total_nominal = sum(o.nominal.violation_steps for o in protected)
    total_robust = sum(o.robust.violation_steps for o in protected)
    avoided_fraction = 1.0 - total_robust / total_nominal
    max_capacity_overhead = max(o.headroom_sacrifice_fraction for o in protected)

    assert avoided_fraction >= MIN_AVOIDED_FRACTION, (
        f"robust placement avoided only {avoided_fraction:.1%} of "
        f"spike-induced violations (gate: {MIN_AVOIDED_FRACTION:.0%})"
    )
    assert max_capacity_overhead <= MAX_CAPACITY_OVERHEAD, (
        f"robust placement costs {max_capacity_overhead:.1%} extra "
        f"capacity (gate: {MAX_CAPACITY_OVERHEAD:.0%})"
    )
    assert avoided_fraction >= REFERENCE_AVOIDED_FRACTION - AVOIDED_TOLERANCE, (
        f"robust placement avoided {avoided_fraction:.1%} of spike-induced "
        f"violations, more than {AVOIDED_TOLERANCE:.0%} below its "
        f"{REFERENCE_AVOIDED_FRACTION:.1%} reference"
    )
