"""Unit tests for tracing and the slow-query log (repro.obs.trace)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs.trace import (
    QueryTrace,
    SlowQueryLog,
    Span,
    TraceContext,
    Tracer,
    activated,
    active_trace,
    new_span_id,
    new_trace_id,
)


class TestQueryTrace:
    def test_add_records_spans(self):
        trace = QueryTrace({"tau_hat": 2})
        trace.add("decode", 0.001, depth=0, offset=0.0)
        trace.add("score", 0.004, depth=0, offset=0.001)
        trace.finish(0.005)
        assert [span.name for span in trace.spans] == ["decode", "score"]
        assert trace.total_seconds == pytest.approx(0.005)
        assert [span.seconds for span in trace.spans] == [
            pytest.approx(0.001),
            pytest.approx(0.004),
        ]

    def test_span_context_manager_times_the_block(self):
        trace = QueryTrace()
        with trace.span("work"):
            time.sleep(0.01)
        trace.finish()
        assert trace.spans[0].seconds >= 0.008
        assert trace.spans[0].offset >= 0.0

    def test_graft_shifts_depth(self):
        batch = QueryTrace()
        batch.add("bound_filter", 0.002, depth=0, offset=0.0)
        batch.add("verify", 0.003, depth=1, offset=0.002)
        batch.total_seconds = 0.005
        query = QueryTrace()
        query.graft(batch, depth_shift=2)
        assert [(span.name, span.depth) for span in query.spans] == [
            ("bound_filter", 2),
            ("verify", 3),
        ]

    def test_to_dict_and_render(self):
        trace = QueryTrace({"top_k": 5})
        trace.add("score", 0.002, depth=0, offset=0.0)
        trace.finish(0.002)
        doc = trace.to_dict()
        assert doc["total_ms"] == pytest.approx(2.0)
        assert doc["detail"] == {"top_k": 5}
        assert doc["spans"][0]["name"] == "score"
        rendered = trace.render()
        assert "score" in rendered and "ms" in rendered

    def test_span_repr_and_dict(self):
        span = Span("verify", 0.001, 0.002, depth=2)
        assert span.to_dict()["depth"] == 2
        assert "verify" in repr(span)


class TestTraceContext:
    def test_id_generators_shape(self):
        trace_id, span_id = new_trace_id(), new_span_id()
        assert len(trace_id) == 32 and int(trace_id, 16) >= 0
        assert len(span_id) == 16 and int(span_id, 16) >= 0
        assert new_trace_id() != trace_id  # 128-bit collisions don't happen

    def test_traceparent_round_trip(self):
        context = TraceContext(new_trace_id(), new_span_id(), sampled=True)
        parsed = TraceContext.parse(context.to_traceparent())
        assert parsed is not None
        assert parsed.trace_id == context.trace_id
        assert parsed.span_id == context.span_id
        assert parsed.sampled is True

    def test_unsampled_flag_round_trips(self):
        context = TraceContext(new_trace_id(), new_span_id(), sampled=False)
        assert context.to_traceparent().endswith("-00")
        assert TraceContext.parse(context.to_traceparent()).sampled is False

    @pytest.mark.parametrize(
        "value",
        [
            None,
            42,
            "",
            "not-a-traceparent",
            "00-abc-def-01",  # wrong lengths
            "00" + "-" + "g" * 32 + "-" + "0" * 15 + "1" + "-01",  # non-hex
            "ff-" + "a" * 32 + "-" + "b" * 16 + "-01",  # reserved version
            "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # all-zero trace id
            "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # all-zero span id
            "00-" + "a" * 32 + "-" + "b" * 16 + "-01-extra",
            # int(x, 16) takes a sign, underscores and surrounding spaces
            "00-+" + "a" * 31 + "-" + "b" * 16 + "-01",
            "00--" + "a" * 31 + "-" + "b" * 16 + "-01",
            "00-" + "a" * 15 + "_" + "a" * 16 + "-" + "b" * 16 + "-01",
            "00- " + "a" * 31 + "-" + "b" * 16 + "-01",
            "00-" + "a" * 32 + "-" + "b" * 15 + " -01",
            "00-" + "a" * 32 + "-+" + "b" * 15 + "-01",
            "00-" + "a" * 32 + "-" + "b" * 16 + "-+1",
            " 0-" + "a" * 32 + "-" + "b" * 16 + "-01",
            "00-" + "a" * 32 + "-" + "b" * 16 + "-01\n",
            "00-0x" + "a" * 30 + "-" + "b" * 16 + "-01",
            "00-" + "\u0663" * 32 + "-" + "b" * 16 + "-01",  # non-ASCII digits
        ],
    )
    def test_malformed_values_parse_to_none(self, value):
        assert TraceContext.parse(value) is None

    def test_unknown_future_version_is_accepted(self):
        parsed = TraceContext.parse("42-" + "a" * 32 + "-" + "b" * 16 + "-01")
        assert parsed is not None and parsed.sampled is True

    def test_root_trace_generates_ids(self):
        trace = QueryTrace()
        assert len(trace.trace_id) == 32
        assert len(trace.span_id) == 16
        assert trace.parent_span_id is None

    def test_joined_trace_inherits_trace_id_and_parent(self):
        root = QueryTrace()
        joined = QueryTrace(context=root.context())
        assert joined.trace_id == root.trace_id
        assert joined.parent_span_id == root.span_id
        assert joined.span_id != root.span_id
        doc = joined.to_dict()
        assert doc["trace_id"] == root.trace_id
        assert doc["parent_span_id"] == root.span_id

    def test_span_tags_survive_to_dict_and_graft(self):
        trace = QueryTrace()
        trace.add("attempt", 0.001, depth=1, offset=0.0, tags={"attempt": 2, "outcome": "won"})
        trace.add("plain", 0.001, depth=0, offset=0.0)
        docs = {span["name"]: span for span in trace.to_dict()["spans"]}
        assert docs["attempt"]["tags"] == {"attempt": 2, "outcome": "won"}
        assert "tags" not in docs["plain"]
        target = QueryTrace()
        target.graft(trace, depth_shift=1)
        tagged = [span for span in target.spans if span.name == "attempt"][0]
        assert tagged.tags == {"attempt": 2, "outcome": "won"}
        assert tagged.tags is not trace.spans[0].tags  # copied, not shared


class TestContextSampling:
    def test_sampled_context_always_joins(self):
        tracer = Tracer(sample_rate=0.0, seed=0)  # local rate would never sample
        context = TraceContext(new_trace_id(), new_span_id(), sampled=True)
        trace = tracer.sample(context=context)
        assert trace is not None
        assert trace.trace_id == context.trace_id
        assert tracer.joined == 1 and tracer.sampled == 1

    def test_unsampled_context_never_joins(self):
        tracer = Tracer(sample_rate=1.0, seed=0)  # local rate would always sample
        context = TraceContext(new_trace_id(), new_span_id(), sampled=False)
        assert tracer.sample(context=context) is None
        assert tracer.joined == 0 and tracer.sampled == 0

    def test_find_returns_matching_retained_traces(self):
        tracer = Tracer(sample_rate=1.0, seed=0)
        root = tracer.sample({"hop": "client"})
        root.finish(0.001)
        joined = tracer.sample({"hop": "server"}, context=root.context())
        joined.finish(0.001)
        other = tracer.sample({"hop": "unrelated"})
        other.finish(0.001)
        matches = tracer.find(root.trace_id)
        assert [doc["detail"]["hop"] for doc in matches] == ["client", "server"]
        assert tracer.find("f" * 32) == []

    def test_as_dict_reports_joined(self):
        tracer = Tracer(sample_rate=1.0, seed=0)
        tracer.sample()
        assert tracer.as_dict()["joined"] == 0


class TestTracer:
    def test_rate_one_samples_everything(self):
        tracer = Tracer(sample_rate=1.0, seed=0)
        assert all(tracer.sample() is not None for _ in range(50))
        assert tracer.seen == 50 and tracer.sampled == 50

    def test_rate_zero_samples_nothing(self):
        tracer = Tracer(sample_rate=0.0, seed=0)
        assert all(tracer.sample() is None for _ in range(50))
        assert tracer.sampled == 0

    def test_sampling_fraction_is_near_the_rate(self):
        tracer = Tracer(sample_rate=0.1, seed=123)
        for _ in range(5000):
            tracer.sample()
        # Binomial(5000, 0.1): mean 500, sd ~21 — 6 sigma bounds.
        assert 370 <= tracer.sampled <= 630

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)

    def test_finished_traces_land_in_the_bounded_ring(self):
        tracer = Tracer(sample_rate=1.0, keep=4, seed=0)
        for index in range(10):
            tracer.sample({"index": index}).finish(0.001)
        assert len(tracer.recent) == 4
        newest = tracer.recent_traces(limit=2)
        assert [doc["detail"]["index"] for doc in newest] == [9, 8]
        assert tracer.recent_traces(limit=0) == []
        assert tracer.as_dict()["retained"] == 4


class TestThreadActiveTrace:
    def test_activated_and_cleared(self):
        trace = QueryTrace()
        with activated(trace):
            assert active_trace() is trace
        assert active_trace() is None

    def test_activated_restores_previous(self):
        outer, inner = QueryTrace(), QueryTrace()
        with activated(outer):
            with activated(inner):
                assert active_trace() is inner
            assert active_trace() is outer
        assert active_trace() is None

    def test_active_trace_is_thread_local(self):
        trace = QueryTrace()
        seen_in_thread = []

        def worker():
            seen_in_thread.append(active_trace())

        with activated(trace):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen_in_thread == [None]


class TestSlowQueryLog:
    def test_threshold_filters(self):
        log = SlowQueryLog(threshold_ms=10.0, capacity=8)
        assert not log.record(0.005)
        assert log.record(0.02, {"tau_hat": 1})
        assert log.total_slow == 1
        assert len(log) == 1

    def test_ring_is_bounded_but_total_keeps_counting(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=3)
        for index in range(7):
            log.record(0.001 * (index + 1), {"index": index})
        assert len(log) == 3
        assert log.total_slow == 7
        entries = log.entries()
        assert [entry["detail"]["index"] for entry in entries] == [6, 5, 4]

    def test_entry_carries_the_trace_waterfall(self):
        log = SlowQueryLog(threshold_ms=0.0)
        trace = QueryTrace()
        trace.add("score", 0.5, depth=0, offset=0.0)
        trace.finish(0.5)
        log.record(0.5, {"gamma": 0.9}, trace)
        entry = log.entries(limit=1)[0]
        assert entry["trace"]["spans"][0]["name"] == "score"
        assert entry["latency_ms"] == pytest.approx(500.0)
        assert log.as_dict()["total_slow"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SlowQueryLog(threshold_ms=-1)
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)
