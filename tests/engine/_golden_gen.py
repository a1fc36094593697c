"""Regenerate ``tests/engine/golden.json`` — the parity fingerprints.

The committed golden file was first captured from the scenario runtimes
that predate ``repro.engine``; the engine has reproduced it bit-for-bit
ever since, and this script now regenerates it through the engine (the
same builders the parity suite uses), leaving it byte-identical.  The
``throttle_boost_chaos`` entry was added from the 6.0.0 engine, before
7.0.0 removed its policy/actuator layer.  CI runs this script and fails
if the file changes.  Re-run it only when a deliberate behaviour change
is being made, and say so in the commit message:

    PYTHONPATH=src python tests/engine/_golden_gen.py
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import conftest  # noqa: E402  (the shared builders)


def reshaping_goldens():
    return {
        mode: conftest.scenario_fingerprint(result)
        for mode, result in conftest.reshaping_results().items()
    }


def chaos_goldens():
    from repro.faults import run_chaos_suite

    outcomes = run_chaos_suite(dc_name="DC1", **conftest.SMALL)
    return {
        outcome.scenario.name: conftest.chaos_fingerprint(outcome)
        for outcome in outcomes
    }


def throttle_boost_chaos_golden():
    return conftest.run_fingerprint(conftest.throttle_boost_chaos_result())


def main():
    document = {
        "scale": conftest.SMALL,
        "reshaping": reshaping_goldens(),
        "chaos": chaos_goldens(),
        "throttle_boost_chaos": throttle_boost_chaos_golden(),
    }
    path = HERE / "golden.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
