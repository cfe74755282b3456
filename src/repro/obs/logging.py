"""Structured JSON-lines event logging with trace correlation.

The third leg of the observability stack (metrics say *how much*, traces
say *where the time went*): discrete events — reloads, chaos injections,
slow queries, SLO state changes — are emitted as structured records that
correlate with the other two legs through ``trace_id`` and
``request_key`` fields.

Design, mirroring :mod:`repro.obs.metrics`:

* **One process-wide :class:`EventLog`** holds a bounded in-memory ring
  (served by the service's ``logs`` admin command) and optionally mirrors
  every record to a stream as one JSON object per line — the format log
  shippers ingest directly.
* **:class:`StructuredLogger`** is the per-subsystem handle
  (:func:`get_logger`), carrying the logger name and a **token-bucket
  rate limit**: an event storm (a crash-looping reload, a chaos schedule
  gone wild) degrades into a counted drop instead of unbounded memory /
  I/O pressure.  Dropped counts are themselves observable
  (``repro_log_events_total{outcome="dropped"}`` and the ring summary).
* **Injectable clocks** everywhere (wall clock for timestamps, monotonic
  for the rate limiter) so tests exercise rate limiting deterministically.

Record shape (flat, JSON-able)::

    {"ts": <unix seconds>, "level": "info", "logger": "service",
     "event": "engine_reloaded", "trace_id"?, "request_key"?, ...fields}
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.obs.metrics import get_registry

__all__ = [
    "EventLog",
    "StructuredLogger",
    "get_event_log",
    "get_logger",
]

LEVELS = ("debug", "info", "warning", "error")

_LOG_EVENTS = get_registry().counter(
    "repro_log_events_total", "Structured log events by outcome", ("outcome",)
)
_LOG_EMITTED = _LOG_EVENTS.labels(outcome="emitted")
_LOG_DROPPED = _LOG_EVENTS.labels(outcome="dropped")


class EventLog:
    """Process-wide bounded ring of structured events + optional stream sink.

    Appends are O(1) under a lock; reads snapshot the ring so a ``logs``
    admin scrape racing live traffic sees a consistent list.  ``stream``
    (when attached) receives every record as one JSON line — failures to
    write the stream never break the emitting request path.
    """

    def __init__(
        self,
        capacity: int = 512,
        stream: Optional[Any] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be a positive integer")
        self.capacity = int(capacity)
        self.total_events = 0
        self.total_dropped = 0
        self._events: Deque[Dict[str, Any]] = deque(maxlen=self.capacity)
        self._stream = stream
        self._clock = clock
        self._lock = threading.Lock()

    def attach_stream(self, stream: Optional[Any]) -> None:
        """Mirror subsequent events to ``stream`` as JSON lines (None detaches)."""
        with self._lock:
            self._stream = stream

    def emit(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Append one record (stamping ``ts`` if absent); return it."""
        if "ts" not in record:
            record["ts"] = self._clock()
        with self._lock:
            self.total_events += 1
            self._events.append(record)
            stream = self._stream
        _LOG_EMITTED.inc()
        if stream is not None:
            try:
                stream.write(json.dumps(record, separators=(",", ":"), default=str) + "\n")
            except (OSError, ValueError):  # closed/broken sink: ring still has it
                pass
        return record

    def count_dropped(self, amount: int = 1) -> None:
        """Account events suppressed by a logger's rate limiter."""
        with self._lock:
            self.total_dropped += amount
        _LOG_DROPPED.inc(amount)

    def events(
        self,
        limit: Optional[int] = None,
        *,
        logger: Optional[str] = None,
        level: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Newest-first records, optionally filtered by logger/level/trace_id."""
        with self._lock:
            records = list(self._events)
        records.reverse()
        if logger is not None:
            records = [r for r in records if r.get("logger") == logger]
        if level is not None:
            records = [r for r in records if r.get("level") == level]
        if trace_id is not None:
            records = [r for r in records if r.get("trace_id") == trace_id]
        return records if limit is None else records[: int(limit)]

    def as_dict(self, limit: Optional[int] = 64, **filters: Optional[str]) -> Dict[str, Any]:
        """Summary + recent records (the ``logs`` admin command document)."""
        return {
            "capacity": self.capacity,
            "total_events": self.total_events,
            "total_dropped": self.total_dropped,
            "events": self.events(limit, **filters),
        }

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return (
            f"<EventLog kept={len(self._events)}/{self.capacity} "
            f"total={self.total_events} dropped={self.total_dropped}>"
        )


class StructuredLogger:
    """Named, rate-limited emitter into an :class:`EventLog`.

    The token bucket holds ``burst`` tokens refilled at
    ``rate_limit_per_sec``; each event spends one.  An empty bucket drops
    the event (counted, never blocking) — the correct failure mode for a
    log path sitting next to a serving hot path.  ``rate_limit_per_sec=0``
    disables limiting.
    """

    def __init__(
        self,
        name: str,
        log: Optional[EventLog] = None,
        *,
        rate_limit_per_sec: float = 50.0,
        burst: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate_limit_per_sec < 0:
            raise ValueError("rate_limit_per_sec must be non-negative")
        self.name = str(name)
        self.log = log if log is not None else get_event_log()
        self.rate_limit_per_sec = float(rate_limit_per_sec)
        self.burst = (
            int(burst)
            if burst is not None
            else max(int(self.rate_limit_per_sec) * 2, 10)
        )
        self.dropped = 0
        self._tokens = float(self.burst)
        self._clock = clock
        self._last_refill = clock()
        self._lock = threading.Lock()

    def _take_token(self) -> bool:
        if self.rate_limit_per_sec <= 0:
            return True
        with self._lock:
            now = self._clock()
            elapsed = max(now - self._last_refill, 0.0)
            self._last_refill = now
            self._tokens = min(
                self._tokens + elapsed * self.rate_limit_per_sec, float(self.burst)
            )
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False

    def event(
        self,
        event: str,
        *,
        level: str = "info",
        trace_id: Optional[str] = None,
        request_key: Optional[str] = None,
        **fields: Any,
    ) -> Optional[Dict[str, Any]]:
        """Emit one structured event; returns the record, or None if dropped."""
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r} (expected one of {LEVELS})")
        if not self._take_token():
            self.dropped += 1
            self.log.count_dropped()
            return None
        record: Dict[str, Any] = {"level": level, "logger": self.name, "event": event}
        if trace_id is not None:
            record["trace_id"] = trace_id
        if request_key is not None:
            record["request_key"] = request_key
        record.update(fields)
        return self.log.emit(record)

    def info(self, event: str, **fields: Any) -> Optional[Dict[str, Any]]:
        return self.event(event, level="info", **fields)

    def warning(self, event: str, **fields: Any) -> Optional[Dict[str, Any]]:
        return self.event(event, level="warning", **fields)

    def error(self, event: str, **fields: Any) -> Optional[Dict[str, Any]]:
        return self.event(event, level="error", **fields)

    def __repr__(self) -> str:
        return (
            f"<StructuredLogger {self.name!r} "
            f"rate={self.rate_limit_per_sec}/s dropped={self.dropped}>"
        )


#: The process-global default event log (mirrors the metrics REGISTRY).
EVENT_LOG = EventLog()

_LOGGERS: Dict[str, StructuredLogger] = {}
_LOGGERS_LOCK = threading.Lock()


def get_event_log() -> EventLog:
    """The process-global default :class:`EventLog`."""
    return EVENT_LOG


def get_logger(name: str, **kwargs: Any) -> StructuredLogger:
    """Get-or-create the named :class:`StructuredLogger` on the default log.

    The first call for a name fixes its configuration; later calls return
    the cached instance (``kwargs`` are then ignored, as with the stdlib's
    ``logging.getLogger``).
    """
    logger = _LOGGERS.get(name)
    if logger is None:
        with _LOGGERS_LOCK:
            logger = _LOGGERS.get(name)
            if logger is None:
                logger = StructuredLogger(name, EVENT_LOG, **kwargs)
                _LOGGERS[name] = logger
    return logger
