"""Unit tests for structured event logging (repro.obs.logging)."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.logging import EventLog, StructuredLogger, get_event_log, get_logger


class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestEventLog:
    def test_emit_stamps_timestamp_and_appends(self):
        clock = FakeClock(123.0)
        log = EventLog(capacity=8, clock=clock)
        record = log.emit({"level": "info", "logger": "t", "event": "hello"})
        assert record["ts"] == 123.0
        assert log.total_events == 1
        assert len(log) == 1

    def test_existing_timestamp_is_preserved(self):
        log = EventLog(clock=FakeClock())
        record = log.emit({"ts": 7.0, "event": "x"})
        assert record["ts"] == 7.0

    def test_ring_is_bounded_but_total_keeps_counting(self):
        log = EventLog(capacity=3, clock=FakeClock())
        for index in range(7):
            log.emit({"event": f"e{index}"})
        assert len(log) == 3
        assert log.total_events == 7
        assert [r["event"] for r in log.events()] == ["e6", "e5", "e4"]

    def test_stream_receives_json_lines(self):
        stream = io.StringIO()
        log = EventLog(stream=stream, clock=FakeClock(5.0))
        log.emit({"level": "info", "event": "a", "n": 1})
        line = stream.getvalue().strip()
        assert json.loads(line) == {"level": "info", "event": "a", "n": 1, "ts": 5.0}

    def test_broken_stream_never_breaks_emit(self):
        stream = io.StringIO()
        stream.close()
        log = EventLog(stream=stream, clock=FakeClock())
        log.emit({"event": "still-recorded"})
        assert log.total_events == 1

    def test_attach_stream_mirrors_later_events_only(self):
        log = EventLog(clock=FakeClock())
        log.emit({"event": "before"})
        stream = io.StringIO()
        log.attach_stream(stream)
        log.emit({"event": "after"})
        assert "before" not in stream.getvalue()
        assert "after" in stream.getvalue()

    def test_events_filters(self):
        log = EventLog(clock=FakeClock())
        log.emit({"logger": "a", "level": "info", "event": "one", "trace_id": "t1"})
        log.emit({"logger": "b", "level": "error", "event": "two", "trace_id": "t2"})
        log.emit({"logger": "a", "level": "error", "event": "three"})
        assert [r["event"] for r in log.events(logger="a")] == ["three", "one"]
        assert [r["event"] for r in log.events(level="error")] == ["three", "two"]
        assert [r["event"] for r in log.events(trace_id="t2")] == ["two"]
        assert [r["event"] for r in log.events(logger="a", level="error")] == ["three"]

    def test_as_dict_shape(self):
        log = EventLog(capacity=4, clock=FakeClock())
        log.emit({"event": "x"})
        log.count_dropped(3)
        doc = log.as_dict(limit=2)
        assert doc["capacity"] == 4
        assert doc["total_events"] == 1
        assert doc["total_dropped"] == 3
        assert len(doc["events"]) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)


class TestStructuredLogger:
    def test_event_record_shape(self):
        log = EventLog(clock=FakeClock())
        logger = StructuredLogger("svc", log, clock=FakeClock())
        record = logger.event(
            "engine_reloaded", trace_id="abc", request_key="k1", model_version=3
        )
        assert record["logger"] == "svc"
        assert record["level"] == "info"
        assert record["event"] == "engine_reloaded"
        assert record["trace_id"] == "abc"
        assert record["request_key"] == "k1"
        assert record["model_version"] == 3

    def test_level_helpers(self):
        log = EventLog(clock=FakeClock())
        logger = StructuredLogger("svc", log, clock=FakeClock())
        assert logger.event("d", level="debug")["level"] == "debug"
        assert logger.info("i")["level"] == "info"
        assert logger.warning("w")["level"] == "warning"
        assert logger.error("e")["level"] == "error"

    def test_unknown_level_rejected(self):
        logger = StructuredLogger("svc", EventLog(clock=FakeClock()), clock=FakeClock())
        with pytest.raises(ValueError):
            logger.event("x", level="fatal")

    def test_rate_limit_drops_are_counted_not_raised(self):
        clock = FakeClock()
        log = EventLog(clock=FakeClock())
        logger = StructuredLogger(
            "stormy", log, rate_limit_per_sec=10.0, burst=5, clock=clock
        )
        emitted = sum(1 for _ in range(20) if logger.event("boom") is not None)
        assert emitted == 5  # burst exhausted, clock never advanced
        assert logger.dropped == 15
        assert log.total_dropped == 15

    def test_tokens_refill_with_time(self):
        clock = FakeClock()
        log = EventLog(clock=FakeClock())
        logger = StructuredLogger(
            "stormy", log, rate_limit_per_sec=10.0, burst=2, clock=clock
        )
        assert logger.event("a") is not None
        assert logger.event("b") is not None
        assert logger.event("c") is None
        clock.advance(0.1)  # one token refilled
        assert logger.event("d") is not None
        assert logger.event("e") is None

    def test_zero_rate_disables_limiting(self):
        logger = StructuredLogger(
            "free", EventLog(clock=FakeClock()), rate_limit_per_sec=0.0, clock=FakeClock()
        )
        assert all(logger.event("x") is not None for _ in range(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            StructuredLogger("bad", rate_limit_per_sec=-1.0)


class TestModuleGlobals:
    def test_get_logger_is_cached_per_name(self):
        logger = get_logger("test-obs-logging-cached")
        assert get_logger("test-obs-logging-cached") is logger
        assert logger.log is get_event_log()

    def test_default_log_round_trip(self):
        logger = get_logger("test-obs-logging-roundtrip")
        logger.info("round_trip_marker", n=1)
        events = get_event_log().events(logger="test-obs-logging-roundtrip")
        assert events and events[0]["event"] == "round_trip_marker"
