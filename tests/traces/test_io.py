"""Unit tests for trace and fleet persistence."""

import numpy as np
import pytest

from repro.traces import (
    PowerTrace,
    TimeGrid,
    TraceSet,
    export_csv,
    import_csv,
    load_fleet,
    load_trace_set,
    save_fleet,
    save_trace_set,
)


@pytest.fixture
def sample_set():
    grid = TimeGrid(0, 60, 24)
    return TraceSet.from_traces(
        {
            "a": PowerTrace(grid, np.linspace(0, 10, 24)),
            "b": PowerTrace.constant(grid, 5.5),
        }
    )


class TestTraceSetRoundTrip:
    def test_npz_roundtrip(self, sample_set, tmp_path):
        path = tmp_path / "traces.npz"
        save_trace_set(sample_set, path)
        loaded = load_trace_set(path)
        assert loaded.ids == sample_set.ids
        assert loaded.grid == sample_set.grid
        assert np.allclose(loaded.matrix, sample_set.matrix)

    def test_bad_version_rejected(self, sample_set, tmp_path):
        path = tmp_path / "traces.npz"
        save_trace_set(sample_set, path)
        data = dict(np.load(path, allow_pickle=True))
        data["version"] = np.array([99])
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError):
            load_trace_set(path)


class TestCSV:
    def test_csv_roundtrip(self, sample_set, tmp_path):
        path = tmp_path / "traces.csv"
        export_csv(sample_set, path)
        loaded = import_csv(path)
        assert loaded.ids == sample_set.ids
        assert loaded.grid == sample_set.grid
        assert np.allclose(loaded.matrix, sample_set.matrix, atol=1e-4)

    def test_import_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,a\n0,1\n")
        with pytest.raises(ValueError):
            import_csv(path)

    def test_import_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("minute,a\n")
        with pytest.raises(ValueError):
            import_csv(path)

    def test_import_rejects_non_finite_readings(self, tmp_path):
        path = tmp_path / "dead_sensor.csv"
        path.write_text("minute,a,b\n0,1.5,2.0\n60,nan,inf\n")
        with pytest.raises(ValueError, match="must be finite"):
            import_csv(path)

    def test_single_row_needs_step(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("minute,a\n0,4.5\n")
        with pytest.raises(ValueError):
            import_csv(path)
        loaded = import_csv(path, step_minutes=10)
        assert loaded.grid.n_samples == 1


class TestFleetRoundTrip:
    def test_fleet_roundtrip(self, tiny_records, tmp_path):
        save_fleet(tiny_records, tmp_path / "fleet")
        loaded = load_fleet(tmp_path / "fleet")
        assert len(loaded) == len(tiny_records)
        original = {r.instance_id: r for r in tiny_records}
        for record in loaded:
            source = original[record.instance_id]
            assert record.service == source.service
            assert record.kind == source.kind
            assert record.training_trace == source.training_trace
            assert record.test_trace == source.test_trace

    def test_fleet_without_test_traces(self, synthesizer, tmp_path):
        from repro.traces import web_profile

        records = synthesizer.service_instances(web_profile(), 3, test_weeks=0)
        save_fleet(records, tmp_path / "fleet")
        loaded = load_fleet(tmp_path / "fleet")
        assert all(r.test_trace is None for r in loaded)
        assert not (tmp_path / "fleet" / "test.npz").exists()

    def test_empty_fleet_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_fleet([], tmp_path / "fleet")

    def test_mixed_test_presence_rejected(self, tiny_records, synthesizer, tmp_path):
        from repro.traces import web_profile

        no_test = synthesizer.service_instances(
            web_profile(), 1, id_prefix="extra", test_weeks=0
        )
        with pytest.raises(ValueError):
            save_fleet(list(tiny_records) + no_test, tmp_path / "fleet")
