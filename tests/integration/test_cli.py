"""Integration tests for the command-line interface."""

import json

import pytest

from repro import cli
from repro.cli import main
from repro.engine.deadline import HARD_TIMEOUT_ENV, TaskDeadline, get_default_deadline


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out
        assert "table1" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "SmoothOperator" in out
        assert "Power Routing" in out

    def test_fig5_small(self, capsys):
        assert main(["fig5", "--instances", "96"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "%" in out

    def test_fig10_small(self, capsys):
        assert main(["fig10", "--instances", "96"]) == 0
        out = capsys.readouterr().out
        assert "RPP" in out
        assert "extra servers" in out

    def test_safety_small(self, capsys):
        assert main(["safety", "--instances", "96"]) == 0
        out = capsys.readouterr().out
        assert "Power safety" in out
        assert "smoothoperator" in out

    def test_predictability_small(self, capsys):
        assert main(["predictability", "--instances", "96"]) == 0
        out = capsys.readouterr().out
        assert "MAPE" in out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_task_timeout_is_scoped_to_the_command(self, monkeypatch):
        monkeypatch.delenv(HARD_TIMEOUT_ENV, raising=False)
        seen = []
        monkeypatch.setitem(
            cli._COMMANDS, "table1", lambda args: seen.append(get_default_deadline())
        )
        assert main(["table1", "--task-timeout", "5"]) == 0
        assert get_default_deadline() is None  # nothing leaks past main
        assert seen == [TaskDeadline(hard_timeout_s=5.0)]

    def test_task_timeout_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["table1", "--task-timeout", "0"])

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_instances_must_be_positive(self, capsys, count):
        with pytest.raises(SystemExit) as exit_info:
            main(["fig5", "--instances", count])
        assert exit_info.value.code == 2
        assert "--instances must be positive" in capsys.readouterr().err

    def test_profile_small(self, capsys):
        assert main(["profile", "--instances", "96"]) == 0
        out = capsys.readouterr().out
        for stage in ("synthesize", "score", "cluster", "place", "remap"):
            assert stage in out
        assert "peak reduction" in out

    def test_profile_json(self, capsys):
        assert main(["profile", "--instances", "96", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stages = {row["stage"] for row in payload["stages"]}
        for stage in ("synthesize", "score", "cluster", "place", "remap"):
            assert stage in stages
        assert payload["workload"]["instances"] == 96
        assert payload["spans"][0]["name"] == "profile"
        assert "counters" in payload["metrics"]

    def test_profile_json_schema(self, capsys):
        """The --json document's shape is a stable machine contract."""
        assert main(["profile", "--instances", "96", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "workload",
            "spans",
            "stages",
            "metrics",
            "peak_reduction",
        }
        assert set(payload["workload"]) == {
            "datacenter",
            "instances",
            "samples_per_trace",
            "swaps_accepted",
        }
        stages = {row["stage"] for row in payload["stages"]}
        assert {
            "synthesize",
            "score",
            "cluster",
            "place",
            "remap",
            "pipeline.evaluate",
        } <= stages
        for row in payload["stages"]:
            assert {"stage", "wall_s", "cpu_s", "calls"} <= set(row)
            assert row["wall_s"] >= 0.0
            assert row["calls"] >= 1
        assert set(payload["metrics"]) >= {"counters", "gauges"}
        # Per-level reductions are fractions keyed by known levels.
        assert set(payload["peak_reduction"]) <= {
            "datacenter",
            "suite",
            "msb",
            "sb",
            "rpp",
            "rack",
        }
        for value in payload["peak_reduction"].values():
            assert isinstance(value, float)
        # Span ids are present and unique (events join against them).
        seen = set()

        def walk(span):
            assert span["span_id"] not in seen
            seen.add(span["span_id"])
            for child in span.get("children", []):
                walk(child)

        for root in payload["spans"]:
            walk(root)


class TestMonitorCommand:
    def test_monitor_writes_correlated_event_log(self, capsys, tmp_path):
        """The tentpole acceptance check: monitor renders the per-level
        table and its JSONL log holds violation, conversion, and advisory
        events joined to spans."""
        events_path = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "monitor",
                    "--instances",
                    "96",
                    "--scenario",
                    "surge_overload",
                    "--events",
                    str(events_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "surge_overload" in out
        assert "max utilization" in out
        for level in ("suite", "msb", "sb", "rpp"):
            assert level in out

        lines = events_path.read_text().splitlines()
        assert lines
        entries = [json.loads(line) for line in lines]
        kinds = {entry["kind"] for entry in entries}
        assert {"violation", "conversion", "advisory"} <= kinds
        # Sequence numbers are monotonic and every event joins to a span.
        seqs = [entry["seq"] for entry in entries]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        for entry in entries:
            assert isinstance(entry["span_id"], int)
            assert entry["span_path"].startswith("chaos.scenario")

    def test_monitor_rejects_unknown_scenario(self, tmp_path):
        with pytest.raises(KeyError):
            main(
                [
                    "monitor",
                    "--instances",
                    "48",
                    "--scenario",
                    "not_a_scenario",
                    "--events",
                    str(tmp_path / "e.jsonl"),
                ]
            )


class TestReportCommand:
    def test_run_writes_a_report_that_renders_again(self, capsys, tmp_path):
        path = tmp_path / "run_report.json"
        argv = ["report", "--run", "--workers", "2", "--instances", "48"]
        assert main(argv + ["--report", str(path)]) == 0
        rendered = capsys.readouterr().out
        assert path.exists()
        lines = rendered.splitlines()
        [stage] = [line for line in lines if line.startswith("  run.many:")]
        assert "imbalance" in stage
        workers = [line for line in lines if line.startswith("    pid ") and "task(s)" in line]
        assert workers

        assert main(["report", "--report", str(path)]) == 0
        assert capsys.readouterr().out == rendered

        assert main(["report", "--report", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(path.read_text())

    def test_document_without_pool_stages_exits_naming_the_path(self, tmp_path):
        path = tmp_path / "serial.json"
        path.write_text(json.dumps({"spans": [], "stages": []}))
        with pytest.raises(SystemExit) as exit_info:
            main(["report", "--report", str(path)])
        assert str(path) in str(exit_info.value.code)

    def test_missing_report_exits_with_the_hint(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["report", "--report", str(path)])
        message = str(exit_info.value.code)
        assert str(path) in message
        assert "smoothoperator report --run" in message
