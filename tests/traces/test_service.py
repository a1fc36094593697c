"""Unit tests for S-trace construction (Eq. 5) and top-consumer ranking."""

import pytest

from repro.traces import (
    InstanceRecord,
    PowerTrace,
    ServiceInstance,
    TimeGrid,
    build_service_traces,
    extract_basis_traces,
    service_power_trace,
    top_power_consumers,
    total_energy_by_service,
)


@pytest.fixture
def week():
    return TimeGrid.for_weeks(1, step_minutes=6 * 60)


def record(service, level, index=0, week_grid=None):
    return InstanceRecord(
        instance=ServiceInstance(f"{service}-{index}", service),
        training_trace=PowerTrace.constant(week_grid, level),
    )


class TestServiceTrace:
    def test_mean_of_instances(self, week):
        records = [record("web", 10, 0, week), record("web", 30, 1, week)]
        s_trace = service_power_trace(records)
        assert s_trace.mean() == pytest.approx(20.0)

    def test_rejects_mixed_services(self, week):
        with pytest.raises(ValueError):
            service_power_trace([record("web", 1, 0, week), record("db", 1, 0, week)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            service_power_trace([])

    def test_build_all(self, week):
        records = [
            record("web", 10, 0, week),
            record("db", 5, 0, week),
            record("db", 15, 1, week),
        ]
        traces = build_service_traces(records)
        assert set(traces) == {"web", "db"}
        assert traces["db"].mean() == pytest.approx(10.0)


class TestRanking:
    def test_energy_by_service(self, week):
        records = [record("web", 10, 0, week), record("db", 30, 0, week)]
        energy = total_energy_by_service(records)
        assert energy["db"] == pytest.approx(3 * energy["web"])

    def test_top_consumers_order(self, week):
        records = [
            record("small", 1, 0, week),
            record("big", 100, 0, week),
            record("mid", 10, 0, week),
        ]
        assert top_power_consumers(records, 2) == ["big", "mid"]

    def test_top_clamps(self, week):
        records = [record("only", 1, 0, week)]
        assert top_power_consumers(records, 10) == ["only"]

    def test_top_rejects_nonpositive(self, week):
        with pytest.raises(ValueError):
            top_power_consumers([record("x", 1, 0, week)], 0)

    def test_tie_break_by_name(self, week):
        records = [record("beta", 5, 0, week), record("alpha", 5, 0, week)]
        assert top_power_consumers(records, 2) == ["alpha", "beta"]


class TestBasis:
    def test_extract_basis(self, week):
        records = [
            record("web", 10, i, week) for i in range(3)
        ] + [record("db", 50, 0, week)]
        basis = extract_basis_traces(records, 2)
        assert basis.ids == ["db", "web"]  # db has more total energy? 50 vs 30
        assert basis["web"].mean() == pytest.approx(10.0)

    def test_one_sample_basis_adds_rows_in_order(self):
        """On a one-sample grid numpy adds an axis-0 column pairwise; the
        S-trace is still the mean of the ``total += values`` loop."""
        grid = TimeGrid(0, 30, 1)
        levels = [
            318.48084366072715, 134.89335688193515, 20.486761968097344,
            8.263817764264548, 406.6351196001362, 456.37778863886086,
            303.31788788358995, 364.7482804919992,
        ]
        records = [
            InstanceRecord(ServiceInstance(f"web-{k}", "web"), PowerTrace(grid, [level]))
            for k, level in enumerate(levels)
        ]
        total = 0.0
        for level in levels:
            total += level
        assert extract_basis_traces(records, 1).matrix[0, 0] == total / len(levels)

    def test_basis_is_traceset_on_same_grid(self, week, synthesizer):
        records = synthesizer.service_instances(
            __import__("repro.traces", fromlist=["web_profile"]).web_profile(), 3
        )
        basis = extract_basis_traces(records, 5)
        assert len(basis) == 1
        assert basis.grid.n_samples == records[0].training_trace.grid.n_samples
