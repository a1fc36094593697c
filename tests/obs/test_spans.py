"""Unit tests for the zero-dependency span tracer."""

import threading
import time

import pytest

from repro import obs
from repro.obs import Span, Tracer, stage_timings, tracing


def _busy(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


class TestNoopPath:
    def test_span_without_tracer_is_noop(self):
        assert obs.get_tracer() is None
        with obs.span("anything", foo=1) as span:
            span.add("counter", 5)  # must not raise
        assert obs.get_tracer() is None
        assert obs.current_span() is None

    def test_noop_context_is_reused(self):
        first = obs.span("a")
        second = obs.span("b")
        assert first is second  # singleton: no allocation on the fast path


class TestTracing:
    def test_install_and_restore(self):
        assert obs.get_tracer() is None
        with tracing() as outer:
            assert obs.get_tracer() is outer
            with tracing() as inner:
                assert obs.get_tracer() is inner
            assert obs.get_tracer() is outer
        assert obs.get_tracer() is None

    def test_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with tracing():
                raise RuntimeError("boom")
        assert obs.get_tracer() is None

    def test_span_recorded_on_exception(self):
        with tracing() as tracer:
            with pytest.raises(ValueError):
                with obs.span("failing"):
                    raise ValueError("inner")
        assert tracer.find("failing") is not None
        assert tracer.find("failing").wall_s >= 0.0


class TestSpanTree:
    def test_nesting_structure(self):
        with tracing() as tracer:
            with obs.span("outer"):
                with obs.span("middle"):
                    with obs.span("inner"):
                        pass
                with obs.span("middle"):
                    pass
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["middle", "middle"]
        assert outer.find("inner") is not None

    def test_timing_monotonicity(self):
        """A parent's wall time bounds the sum of its children's."""
        with tracing() as tracer:
            with obs.span("parent"):
                with obs.span("child_a"):
                    _busy(0.01)
                with obs.span("child_b"):
                    _busy(0.01)
        parent = tracer.roots[0]
        child_sum = sum(c.wall_s for c in parent.children)
        assert parent.wall_s >= child_sum
        assert parent.wall_s >= 0.02
        assert parent.self_wall_s() == pytest.approx(parent.wall_s - child_sum)
        # CPU time is busy-wait here, so it is also non-trivial.
        assert parent.cpu_s > 0.0

    def test_meta_captured(self):
        with tracing() as tracer:
            with obs.span("stage", instances=42, kind="demo"):
                pass
        span = tracer.find("stage")
        assert span.meta == {"instances": 42, "kind": "demo"}

    def test_current_span(self):
        with tracing() as tracer:
            assert tracer.current() is None
            with obs.span("open") as span:
                assert obs.current_span() is span
            assert tracer.current() is None


class TestCounters:
    def test_span_counters(self):
        with tracing() as tracer:
            with obs.span("stage") as span:
                span.add("items", 3)
                span.add("items", 2)
        assert tracer.find("stage").counters == {"items": 5.0}

    def test_subtree_counter_aggregation(self):
        """Counters aggregate across stages of a subtree."""
        with tracing() as tracer:
            with obs.span("run"):
                with obs.span("stage_a") as a:
                    a.add("work", 2)
                with obs.span("stage_b") as b:
                    b.add("work", 3)
                    b.add("errors", 1)
        totals = tracer.roots[0].subtree_counters()
        assert totals == {"work": 5.0, "errors": 1.0}

    def test_tracer_add_targets_innermost(self):
        with tracing() as tracer:
            with obs.span("outer"):
                with obs.span("inner"):
                    tracer.add("hits")
        assert tracer.find("inner").counters == {"hits": 1.0}
        assert tracer.find("outer").counters == {}


class TestMergingAndRendering:
    def test_merged_children(self):
        with tracing() as tracer:
            with obs.span("parent"):
                for _ in range(3):
                    with obs.span("loop") as span:
                        span.add("n", 2)
        merged = tracer.roots[0].merged_children()
        assert len(merged) == 1
        assert merged[0].calls == 3
        assert merged[0].counters == {"n": 6.0}

    def test_merge_recurses_into_grandchildren(self):
        with tracing() as tracer:
            with obs.span("parent"):
                for _ in range(2):
                    with obs.span("loop"):
                        with obs.span("step") as step:
                            step.add("k")
        merged = tracer.roots[0].merged_children()
        assert merged[0].children[0].name == "step"
        assert merged[0].children[0].calls == 2
        assert merged[0].children[0].counters == {"k": 2.0}

    def test_render_mentions_stages_and_counts(self):
        with tracing() as tracer:
            with obs.span("place", instances=7):
                for _ in range(2):
                    with obs.span("cluster"):
                        pass
        text = tracer.render()
        assert "place" in text
        assert "cluster" in text
        assert "x2" in text
        assert "instances=7" in text

    def test_to_dict_round_trips_structure(self):
        with tracing() as tracer:
            with obs.span("a", size=1):
                with obs.span("b") as b:
                    b.add("c", 4)
        payload = tracer.to_dict()
        (root,) = payload["spans"]
        assert root["name"] == "a"
        assert root["meta"] == {"size": 1}
        assert root["children"][0]["counters"] == {"c": 4.0}
        assert root["wall_s"] >= root["children"][0]["wall_s"]


class TestThreadSafety:
    def test_independent_tracers_per_thread(self):
        """Two threads with their own tracing() contexts never interleave."""
        n_spans = 200
        barrier = threading.Barrier(2)
        results = {}
        errors = []

        def worker(name):
            try:
                with tracing() as tracer:
                    barrier.wait(timeout=10)
                    with obs.span(f"{name}.outer"):
                        for index in range(n_spans):
                            with obs.span(f"{name}.step") as span:
                                span.add("index", index)
                    results[name] = tracer
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(name,)) for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        # The main thread never saw either tracer installed.
        assert obs.get_tracer() is None
        for name, tracer in results.items():
            (root,) = tracer.roots
            assert root.name == f"{name}.outer"
            # Every child belongs to this thread's run; none leaked across.
            assert len(root.children) == n_spans
            assert {child.name for child in root.children} == {f"{name}.step"}

    def test_shared_tracer_stack_is_thread_local(self):
        """Spans opened on one thread are invisible to another's stack."""
        tracer = Tracer()
        observed = {}

        def worker():
            # This thread sees an empty stack even while the main thread
            # holds a span open on the same tracer.
            observed["current"] = tracer.current()
            with tracer.span("worker.root"):
                observed["depth"] = len(tracer.stack_names())

        with tracer.span("main.root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=10)
        assert observed["current"] is None
        assert observed["depth"] == 1
        # Both threads' top-level spans land in the shared roots list.
        assert sorted(root.name for root in tracer.roots) == [
            "main.root",
            "worker.root",
        ]


class TestStandaloneTracer:
    def test_direct_use_without_install(self):
        tracer = Tracer()
        with tracer.span("manual") as span:
            span.add("x")
        assert tracer.roots[0].name == "manual"
        # The global hook is untouched.
        assert obs.get_tracer() is None

    def test_span_repr_smoke(self):
        span = Span("demo")
        assert "demo" in repr(span)


class TestStageTimings:
    def test_merges_same_named_spans(self):
        with obs.tracing() as tracer:
            with obs.span("place"):
                for _ in range(3):
                    with obs.span("score") as span:
                        span.add("pairs", 10)
        rows = stage_timings(tracer)
        by_name = {row["stage"]: row for row in rows}
        assert set(by_name) == {"place", "score"}
        assert by_name["score"]["calls"] == 3
        assert by_name["score"]["counters"] == {"pairs": 30.0}
        assert by_name["place"]["wall_s"] >= by_name["score"]["wall_s"]

    def test_rows_in_execution_order(self):
        with obs.tracing() as tracer:
            with obs.span("synthesize"):
                pass
            with obs.span("place"):
                with obs.span("cluster"):
                    pass
        names = [row["stage"] for row in stage_timings(tracer)]
        assert names == ["synthesize", "place", "cluster"]
