"""Checks of the benchmark itself: ``pytest bench -q`` (not part of tier-1)."""

import json
import math
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import layers
import reference
import run

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def test_benchmark_json_limits(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert len(json.dumps(spec)) <= 64 * 1024


def test_every_metric_has_unit_direction_and_bound(spec):
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_per_layer_metric_names_what_it_should_move(spec):
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    assert set(layers.SHOULD_MOVE) == {m["name"] for m in spec["per_layer"]}
    for name, moves in layers.SHOULD_MOVE.items():
        if moves is None:
            assert name.startswith("bench."), name
            continue
        metric, targets = moves
        assert metric in end_to_end, name
        assert targets and set(targets) <= workloads, name


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([1.0 + 0.01 * (i % 3) for i in range(10)], [0.8 + 0.01 * (i % 3) for i in range(10)], "lower", "improved"),
        ([1.0 + 0.01 * (i % 3) for i in range(10)], [1.3 + 0.01 * (i % 3) for i in range(10)], "lower", "regressed"),
        ([1.0 + 0.01 * (i % 3) for i in range(10)], [1.0 + 0.01 * ((i + 1) % 3) for i in range(10)], "lower", "unchanged"),
        ([1.0, 1.5, 0.7, 1.4, 0.8, 1.3, 0.6, 1.2, 0.9, 1.1], [1.0] * 10, "lower", "unresolved"),
        ([0.10] * 10, [0.12] * 10, "higher", "improved"),
        ([0.10] * 10, [0.08] * 10, "higher", "regressed"),
        # Nine pairs only: a consistent gain is not yet a claim.
        ([1.0] * 9, [0.8] * 9, "lower", "unchanged"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better=better, bound=0.1) == expected


def _records(path, workload, values, *, failed=0):
    with open(path, "w") as handle:
        for value in values:
            record = {
                "workload": workload,
                "trace": 0,
                "attempted": 10,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": "s"}
                    for name in ("setup_s", "pass_s", "peak_rss_mb", "rpp_peak_reduction")
                },
            }
            handle.write(json.dumps(record) + "\n")


def test_compare_exit_codes(tmp_path):
    parent, same, worse = tmp_path / "p.jsonl", tmp_path / "s.jsonl", tmp_path / "w.jsonl"
    _records(parent, "fig10-dc3", [1.0] * 10)
    _records(same, "fig10-dc3", [1.0] * 10)
    _records(worse, "fig10-dc3", [1.0] * 10, failed=1)
    assert compare.main([str(parent), str(same)]) == 0
    assert compare.main([str(parent), str(worse)]) == 1
    _records(worse, "fig10-dc3", [1.5] * 10)
    assert compare.main([str(parent), str(worse)]) == 1


def test_compare_keeps_pairs_aligned_around_unmeasured_runs(tmp_path, spec):
    # Twelve alternating pairs; the parent missed the metric in pairs 4 and 7,
    # where the change happened to be slow.  Dropping only those pairs leaves
    # ten clean wins; shifting the lists would pair the slow runs with others.
    parent, change = tmp_path / "p.jsonl", tmp_path / "c.jsonl"
    missed = {3, 6}
    _records(parent, "fig10-dc3", [None if i in missed else 1.0 for i in range(12)])
    _records(change, "fig10-dc3", [9.0 if i in missed else 0.5 for i in range(12)])
    rows, _ = compare.compare(compare.load_runs(parent), compare.load_runs(change), spec)
    (_, verdicts, _, _), = rows
    assert verdicts["pass_s"] == "improved"
    p_values, c_values = compare.paired_values(
        compare.load_runs(parent), compare.load_runs(change), "pass_s"
    )
    assert p_values == [1.0] * 10 and c_values == [0.5] * 10


def test_quality_reference_table(spec):
    table = reference.load()
    for workload in spec["workloads"]:
        seeds = set(table[workload["name"]])
        assert {str(seed) for seed in [*range(100), 303]} <= seeds, workload["name"]
    expected = table["fleet-dc3"]["303"]
    near, far = expected - 0.9 * reference.TOLERANCE, expected + 2 * reference.TOLERANCE
    assert reference.check("fleet-dc3", 303, near) == {"quality_matches_reference": True}
    assert reference.check("fleet-dc3", 303, far) == {"quality_matches_reference": False}
    assert reference.check("fleet-dc3", 10**6, far) == {}


TINY = {
    "fig10-dc3": {"n_instances": 96},
    "fleet-dc3": {"n_instances": 192},
    "adapt-dc3-pool": {"n_instances": 192, "max_swaps": 5},
    "churn-dc3": {"n_instances": 192, "batch": 20},
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_run(spec, name):
    record = run.run_workload(name, seed=7, seconds=0.05, params=TINY[name])
    assert record["correct"], record["checks"]
    assert set(record["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for name, metric in record["metrics"].items():
        assert math.isfinite(metric["value"]), name
        # Too few instances for a guaranteed peak reduction; times and memory.
        if name != "rpp_peak_reduction":
            assert metric["value"] > 0, name
    details = record["details"]
    assert len(details["pass_walls_s"]) == len(details["pass_times_s"]) >= run.MIN_PASSES
    assert len(details["setup_walls_s"]) == len(details["setup_times_s"]) >= run.MIN_SETUPS


@pytest.mark.parametrize("sample", [False, True])
def test_host_speed_clock(sample):
    import hostspeed

    # A call that took 0.3 s while the probe ran twice as slow as the
    # reference took 0.15 reference seconds.
    assert hostspeed.scaled(0.3, 2 * hostspeed.REFERENCE_S) == pytest.approx(0.15)
    clock = hostspeed.Clock(sample=sample)
    result, wall, reference = clock.time(lambda: time.sleep(0.35) or "done")
    assert result == "done"
    # Samples taken during the call are not counted as its time (the
    # sleep keeps its deadline across them, so it ends no later).
    assert 0.3 <= wall < 0.4
    assert reference == pytest.approx(hostspeed.scaled(wall, clock.unit_times[0]))
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tiny_traced_run(spec, tmp_path):
    trace = tmp_path / "trace.json"
    record = run.run_workload(
        "churn-dc3", seed=7, seconds=0.05, trace=True, params=TINY["churn-dc3"],
        trace_path=trace,
    )
    assert record["correct"], record["checks"]
    assert set(record["metrics"]) == {m["name"] for m in spec["per_layer"]}
    values = {name: m["value"] for name, m in record["metrics"].items()}
    for metric in spec["per_layer"]:
        if metric["unit"] == "s":
            assert values[metric["name"]] > 0, metric["name"]
    assert values["bench.layer_coverage_frac"] > 0.5
    spans = json.loads(trace.read_text())["spans"]
    assert {"bench.setup", "bench.pass", "engine.delta_apply"} <= {s["name"] for s in spans}


def test_run_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig10-dc3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
