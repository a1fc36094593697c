"""The cross-process capture/ship/merge layer (repro.obs.remote)."""

from __future__ import annotations

import os
import pickle
import random

import pytest

from repro import obs
from repro.obs import events as obs_events
from repro.obs import remote
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.spans import Span, Tracer


@pytest.fixture(autouse=True)
def _clean_registry():
    obs.reset_metrics()
    yield
    obs.reset_metrics()


def _record_everything():
    obs.count("work.rows", 40)
    obs.emit("advisory", source="test", note="hi")
    with obs.span("inner"):
        pass


class TestCapture:
    def test_bundle_collects_spans_metrics_events(self):
        with remote.capture(
            shard_id=3, label="score.shard", trace=True, record=True
        ) as cap:
            obs.count("work.rows", 40)
            obs.observe("work.latency", 0.5)
            obs.set_gauge("work.gauge", 7.0)
            obs.emit("advisory", source="test", note="hi")
            with obs.span("inner"):
                obs.count("work.inner")
        bundle = cap.bundle
        assert bundle.shard_id == 3
        assert bundle.label == "score.shard"
        assert bundle.worker_pid == os.getpid()
        assert not bundle.failed
        assert bundle.counters == {"work.rows": 40.0, "work.inner": 1.0}
        assert bundle.gauges == {"work.gauge": 7.0}
        assert bundle.histograms["work.latency"]["count"] == 1
        [root] = bundle.spans
        assert root["name"] == "score.shard"
        assert root["meta"] == {"shard": 3, "pid": os.getpid(), "attempt": 1}
        assert [c["name"] for c in root.get("children", [])] == ["inner"]
        [event] = bundle.events
        assert event["kind"] == "advisory"
        # The event correlates to the capture's root span by original id.
        assert event["span_id"] == root["span_id"]

    def test_capture_is_isolated_from_global_registry(self):
        with remote.capture(trace=False, record=False):
            obs.count("isolated.counter")
        assert obs.snapshot_metrics()["counters"] == {}

    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("record", [False, True])
    def test_ships_spans_and_events_only_where_asked(self, trace, record):
        with remote.capture(trace=trace, record=record) as cap:
            _record_everything()
        bundle = cap.bundle
        assert bundle.counters == {"work.rows": 40.0}
        assert bundle.wall_s > 0.0
        assert bool(bundle.spans) is trace
        assert bool(bundle.events) is record

    def test_installs_nothing_over_an_inherited_tracer_and_log(self):
        """A tracer and a log live before the capture (as a worker inherits
        them at fork) record nothing of a bare capture's task, and are back
        in place after it."""
        with obs.tracing() as inherited_tracer, obs_events.recording() as inherited_log:
            with remote.capture(trace=False, record=False) as cap:
                assert obs.get_tracer() is None
                assert obs.get_event_log() is None
                _record_everything()
            assert obs.get_tracer() is inherited_tracer
            assert obs.get_event_log() is inherited_log
        assert inherited_tracer.roots == []
        assert len(inherited_log) == 0
        assert cap.bundle.counters == {"work.rows": 40.0}

    def test_bare_failure_still_ships_its_error(self):
        cap = remote.capture(shard_id=1, label="boom.shard", trace=False, record=False)
        with pytest.raises(ValueError):
            with cap:
                obs.count("work.rows")
                raise ValueError("kaboom")
        assert cap.bundle.error == {"type": "ValueError", "message": "kaboom"}
        assert cap.bundle.counters == {"work.rows": 1.0}
        assert cap.bundle.spans == [] and cap.bundle.events == []

    def test_exception_recorded_and_propagates(self):
        cap = remote.capture(shard_id=1, label="boom.shard", trace=True, record=True)
        with pytest.raises(ValueError):
            with cap:
                obs.emit("advisory", source="boom", note="before")
                raise ValueError("kaboom")
        bundle = cap.bundle
        assert bundle.failed
        assert bundle.error == {"type": "ValueError", "message": "kaboom"}
        [root] = bundle.spans
        assert root["meta"]["error"] == "ValueError: kaboom"
        kinds = [event["kind"] for event in bundle.events]
        assert kinds == ["advisory", obs_events.TASK_ERROR]
        task_error = bundle.events[-1]
        assert task_error["fields"]["error_type"] == "ValueError"

    def test_nested_capture_restores_previous_surfaces(self):
        with obs.tracing() as outer_tracer:
            with remote.capture(trace=True, record=True):
                pass
            with obs.span("after"):
                pass
        assert [s.name for s in outer_tracer.roots] == ["after"]


class TestRunCaptured:
    def test_success_returns_result_and_bundle(self):
        result, bundle = remote.run_captured(
            lambda a, b: a + b, 2, "add.shard", 1, (20, 22), trace=True, record=True
        )
        assert result == 42
        assert bundle.shard_id == 2
        assert bundle.attempt == 1
        assert bundle.wall_s >= 0.0

    def test_failure_attaches_bundle_to_original_exception(self):
        def explode():
            raise KeyError("missing")

        with pytest.raises(KeyError) as exc_info:
            remote.run_captured(explode, 0, "boom", 2, (), trace=True, record=True)
        bundle = remote.bundle_from_error(exc_info.value)
        assert bundle is not None
        assert bundle.failed
        assert bundle.attempt == 2

    def test_bundle_survives_exception_pickling(self):
        """The shipped bundle must live through the executor's pickle trip."""

        def explode():
            raise ValueError("kaboom")

        with pytest.raises(ValueError) as exc_info:
            remote.run_captured(explode, 0, "boom", 1, (), trace=True, record=True)
        revived = pickle.loads(pickle.dumps(exc_info.value))
        assert type(revived) is ValueError
        bundle = remote.bundle_from_error(revived)
        assert bundle is not None and bundle.error["type"] == "ValueError"

    def test_bundle_from_error_none_for_plain_exceptions(self):
        assert remote.bundle_from_error(ValueError("plain")) is None


def _make_bundle(shard_id, *, counters=None, observations=(), events=(), attempt=1):
    """A bundle built through the real capture machinery."""
    with remote.capture(
        shard_id=shard_id, label="t.shard", attempt=attempt, trace=True, record=True
    ) as cap:
        for name, value in (counters or {}).items():
            obs.count(name, value)
        for value in observations:
            obs.observe("t.hist", value)
        for note in events:
            obs.emit("advisory", source="t", note=note)
    return cap.bundle


class TestMergeBundles:
    def test_spans_graft_under_open_coordinator_span(self):
        bundles = [_make_bundle(i) for i in range(3)]
        tracer = Tracer()
        with obs.tracing(tracer):
            with obs.span("dispatch"):
                remote.merge_bundles(bundles)
        [dispatch] = tracer.roots
        assert [c.name for c in dispatch.children] == ["t.shard"] * 3
        assert [c.meta["shard"] for c in dispatch.children] == [0, 1, 2]

    def test_counters_and_gauges_merge_into_registry(self):
        bundles = [
            _make_bundle(0, counters={"t.rows": 10}),
            _make_bundle(1, counters={"t.rows": 32}),
        ]
        registry = MetricsRegistry()
        remote.merge_bundles(bundles, registry=registry, tracer=None, log=None)
        assert registry.counters["t.rows"] == 42.0

    def test_events_remap_span_ids_and_gain_worker_tags(self):
        bundle = _make_bundle(5, events=["one", "two"])
        tracer = Tracer()
        log = obs_events.EventLog()
        with obs.tracing(tracer):
            remote.merge_bundles([bundle], log=log)
        [root] = tracer.roots
        merged = log.events
        assert [e.fields["note"] for e in merged] == ["one", "two"]
        assert all(e.fields["worker_pid"] == os.getpid() for e in merged)
        assert all(e.fields["shard_id"] == 5 for e in merged)
        # Remapped onto the rebuilt span, not the worker-side original id.
        assert all(e.span_id == root.span_id for e in merged)
        assert [e.seq for e in merged] == [1, 2]

    def test_merge_is_deterministic_under_shuffled_completion_order(self):
        """Satellite: coordinator-merged histograms must not depend on the
        order tasks completed in — merge sorts by shard id first."""
        rng = random.Random(7)
        bundles = [
            _make_bundle(i, observations=[float(v) for v in range(i * 10, i * 10 + 8)])
            for i in range(6)
        ]

        def merged_registry(order):
            registry = MetricsRegistry()
            remote.merge_bundles(
                [bundles[i] for i in order], registry=registry, tracer=None, log=None
            )
            return registry

        baseline = merged_registry(range(6)).histogram("t.hist")
        for _ in range(5):
            order = list(range(6))
            rng.shuffle(order)
            shuffled = merged_registry(order).histogram("t.hist")
            assert shuffled.count == baseline.count
            assert shuffled.total == baseline.total
            assert shuffled._reservoir == baseline._reservoir
            assert shuffled.percentile(95) == baseline.percentile(95)

    def test_histogram_state_roundtrip_merges_like_original(self):
        original = Histogram()
        for value in range(100):
            original.observe(float(value))
        rebuilt = Histogram.from_state(original.to_state())
        target_a, target_b = Histogram(), Histogram()
        for value in (1.0, 2.0, 3.0):
            target_a.observe(value)
            target_b.observe(value)
        target_a.merge(original)
        target_b.merge(rebuilt)
        assert target_a.count == target_b.count
        assert target_a.total == target_b.total
        assert target_a._reservoir == target_b._reservoir

    def test_empty_bundle_list_is_a_noop(self):
        remote.merge_bundles([])  # must not touch (or require) any surface

    def test_span_from_dict_fills_id_map(self):
        with remote.capture(shard_id=0, trace=True, record=True) as cap:
            with obs.span("child"):
                pass
        [payload] = cap.bundle.spans
        id_map = {}
        rebuilt = Span.from_dict(payload, id_map=id_map)
        assert set(id_map) == {payload["span_id"], payload["children"][0]["span_id"]}
        assert rebuilt.span_id == id_map[payload["span_id"]]
        assert rebuilt.children[0].name == "child"
