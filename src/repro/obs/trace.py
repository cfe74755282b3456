"""Per-query structured tracing: sampled stage waterfalls + slow-query log.

A :class:`QueryTrace` records the *stage waterfall* of one query's trip
through the stack — admission → decode → batcher (queue wait → score,
with the engine's cache-probe / bound-filter / verify sub-stages nested
below) → serialize — with monotonic-clock timings.  Traces are **sampled**
(:class:`Tracer`): the unsampled hot path costs one random draw and one
branch, so the default 1% rate is essentially free while still yielding a
steady stream of fully-timed exemplar queries.

Stage conventions:

* depth 0 — the handler-level stages whose durations partition the
  end-to-end latency (the acceptance criterion: depth-0 durations sum to
  within 10% of the recorded total);
* depth 1 — sub-stages nested inside a depth-0 stage (queue wait and
  scoring inside ``batcher``);
* depth 2+ — engine/core internals (bound filter, verification, LUT
  classification) copied in from the batch-level trace.

Deep layers (:mod:`repro.core.plan`, :class:`~repro.serving.engine.BatchQueryEngine`)
never receive a trace argument; they record into the **thread-active**
trace (:func:`activated` / :func:`active_trace`, one ``threading.local``
read when unsampled) installed by whoever owns the query — the engine's
batch path activates the batch trace inside the scoring thread, so core
instrumentation works unchanged for direct engine calls, callers' own
threads, and the service.

:class:`SlowQueryLog` is the tail-latency companion: queries whose
end-to-end latency exceeds a configurable threshold are appended to a
bounded ring together with their waterfall (when sampled), exposed by the
service's ``slow`` admin command.

Distributed traces (:class:`TraceContext`): every trace carries a 128-bit
``trace_id`` and a 64-bit ``span_id``; :meth:`QueryTrace.context` exports
them (plus the head-sampling decision) as a W3C-``traceparent``-style
string — ``00-<trace_id>-<span_id>-<flags>`` — that rides the wire in the
service protocol's optional ``trace`` field.  A server (or, later, a
router hop) joins the propagated context via
:meth:`Tracer.sample(..., context=...)`: the *head* sampling decision
wins, so a sampled client query is traced at every hop regardless of the
hop's own sample rate, and the per-process waterfalls correlate into one
end-to-end tree by shared ``trace_id``.
"""

from __future__ import annotations

import os
import random
import re
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, List, Optional

__all__ = [
    "Span",
    "QueryTrace",
    "TraceContext",
    "Tracer",
    "SlowQueryLog",
    "new_trace_id",
    "new_span_id",
    "active_trace",
    "activated",
]

#: ``version-trace_id-span_id-flags``, each field hex digits of its exact
#: length (``int(x, 16)`` alone would also take ``+``, ``_`` and spaces).
_TRACEPARENT = re.compile(
    r"([0-9a-fA-F]{2})-([0-9a-fA-F]{32})-([0-9a-fA-F]{16})-([0-9a-fA-F]{2})"
)


def new_trace_id() -> str:
    """A fresh 128-bit trace id as 32 lowercase hex chars (never all-zero)."""
    value = os.urandom(16).hex()
    return value if value != "0" * 32 else new_trace_id()


def new_span_id() -> str:
    """A fresh 64-bit span id as 16 lowercase hex chars (never all-zero)."""
    value = os.urandom(8).hex()
    return value if value != "0" * 16 else new_span_id()


class TraceContext:
    """The propagated identity of a distributed trace: ids + sampling flag.

    Serialized as a W3C-``traceparent``-style string —
    ``00-<trace_id:32hex>-<span_id:16hex>-<flags:2hex>`` with flag bit 0
    carrying the head sampling decision — so the service's ``trace`` frame
    field stays forward-compatible with the planned router→backend hop
    (each hop re-parents by substituting its own span id, keeping the
    trace id).
    """

    __slots__ = ("trace_id", "span_id", "sampled")

    VERSION = "00"

    def __init__(self, trace_id: str, span_id: str, sampled: bool = True) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = bool(sampled)

    def to_traceparent(self) -> str:
        """Render as ``00-<trace_id>-<span_id>-<flags>``."""
        return (
            f"{self.VERSION}-{self.trace_id}-{self.span_id}-"
            f"{'01' if self.sampled else '00'}"
        )

    @classmethod
    def parse(cls, value: Any) -> Optional["TraceContext"]:
        """Parse a traceparent string; ``None`` for anything malformed.

        Lenient by design: a bad ``trace`` field must never reject a query
        — the request is simply served untraced.  Unknown future versions
        are accepted (ids still correlate); ``ff`` is reserved-invalid.
        """
        if not isinstance(value, str):
            return None
        match = _TRACEPARENT.fullmatch(value)
        if match is None:
            return None
        version, trace_id, span_id, flags = match.groups()
        if version.lower() == "ff":
            return None
        if trace_id == "0" * 32 or span_id == "0" * 16:
            return None
        return cls(trace_id.lower(), span_id.lower(), sampled=bool(int(flags, 16) & 0x01))

    def to_dict(self) -> Dict[str, Any]:
        return {"trace_id": self.trace_id, "span_id": self.span_id, "sampled": self.sampled}

    def __repr__(self) -> str:
        return f"<TraceContext {self.to_traceparent()}>"


class Span:
    """One timed stage of a trace: name, offset from trace start, duration.

    ``tags`` (optional, usually absent) carries small structured
    annotations — the retry/hedge attempt number and outcome on client
    attempt spans — without growing the common four-field case.
    """

    __slots__ = ("name", "offset", "seconds", "depth", "tags")

    def __init__(
        self,
        name: str,
        offset: float,
        seconds: float,
        depth: int = 0,
        tags: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.offset = offset
        self.seconds = seconds
        self.depth = depth
        self.tags = tags

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "name": self.name,
            "offset_ms": self.offset * 1e3,
            "duration_ms": self.seconds * 1e3,
            "depth": self.depth,
        }
        if self.tags:
            out["tags"] = dict(self.tags)
        return out

    def __repr__(self) -> str:
        return f"<Span {self.name} +{self.offset * 1e3:.2f}ms {self.seconds * 1e3:.3f}ms d{self.depth}>"


class QueryTrace:
    """The recorded stage waterfall of one query.

    Spans are appended in completion order; :attr:`total_seconds` is
    stamped by :meth:`finish`.  ``detail`` carries query identity (τ̂, γ,
    top-k, connection) for the slow log and the admin ``traces`` command.

    Each trace owns a distributed identity: ``trace_id`` (shared by every
    process that handled the query) and ``span_id`` (this process's hop).
    A root trace generates both; a trace joined from a propagated
    :class:`TraceContext` inherits the trace id and records the sender's
    span id as ``parent_span_id``.
    """

    __slots__ = (
        "spans",
        "detail",
        "started_at",
        "total_seconds",
        "trace_id",
        "span_id",
        "parent_span_id",
        "_owner",
    )

    def __init__(
        self,
        detail: Optional[Dict[str, Any]] = None,
        owner: Optional["Tracer"] = None,
        *,
        context: Optional[TraceContext] = None,
    ):
        self.spans: List[Span] = []
        self.detail: Dict[str, Any] = detail or {}
        self.started_at = time.perf_counter()
        self.total_seconds: Optional[float] = None
        self.trace_id = context.trace_id if context is not None else new_trace_id()
        self.span_id = new_span_id()
        self.parent_span_id = context.span_id if context is not None else None
        self._owner = owner

    def context(self) -> TraceContext:
        """The propagation context for the next hop (this span as parent)."""
        return TraceContext(self.trace_id, self.span_id, sampled=True)

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def add(
        self,
        name: str,
        seconds: float,
        *,
        depth: int = 0,
        offset: Optional[float] = None,
        tags: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Record an externally-timed stage; offset defaults to 'now - duration'."""
        if offset is None:
            offset = max(time.perf_counter() - self.started_at - seconds, 0.0)
        span = Span(name, offset, seconds, depth, tags)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, depth: int = 0):
        """Context manager timing one stage with the monotonic clock."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            end = time.perf_counter()
            self.spans.append(Span(name, start - self.started_at, end - start, depth))

    def graft(self, other: "QueryTrace", *, depth_shift: int = 1) -> None:
        """Copy another trace's spans in, shifted one nesting level down.

        Used to embed the batch-level engine waterfall into each sampled
        query's trace: the batch stages become depth ``original + shift``
        children of the query's ``batcher`` stage.
        """
        base = max(time.perf_counter() - self.started_at - (other.elapsed_seconds()), 0.0)
        for span in other.spans:
            self.spans.append(
                Span(
                    span.name,
                    base + span.offset,
                    span.seconds,
                    span.depth + depth_shift,
                    None if span.tags is None else dict(span.tags),
                )
            )

    def finish(self, total_seconds: Optional[float] = None) -> "QueryTrace":
        """Stamp the end-to-end duration and publish to the owning tracer."""
        self.total_seconds = (
            total_seconds
            if total_seconds is not None
            else time.perf_counter() - self.started_at
        )
        if self._owner is not None:
            self._owner._record(self)
        return self

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def elapsed_seconds(self) -> float:
        """Total if finished, else the live monotonic elapsed time."""
        if self.total_seconds is not None:
            return self.total_seconds
        return time.perf_counter() - self.started_at

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (admin ``traces`` command / slow log entries)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "total_ms": None if self.total_seconds is None else self.total_seconds * 1e3,
            "detail": dict(self.detail),
            "spans": [span.to_dict() for span in sorted(self.spans, key=lambda s: s.offset)],
        }

    def render(self) -> str:
        """Human-readable waterfall (quickstart example / debugging)."""
        lines = []
        total = self.elapsed_seconds()
        lines.append(f"trace {self.detail or ''} total={total * 1e3:.3f}ms")
        for span in sorted(self.spans, key=lambda s: (s.offset, s.depth)):
            lines.append(
                f"  {'  ' * span.depth}{span.name:<24}"
                f" +{span.offset * 1e3:8.3f}ms  {span.seconds * 1e3:8.3f}ms"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<QueryTrace spans={len(self.spans)} total={self.total_seconds}>"


class Tracer:
    """Samples queries for tracing and keeps a bounded ring of finished traces.

    ``sample_rate`` ∈ [0, 1]; :meth:`sample` returns a live
    :class:`QueryTrace` for roughly that fraction of calls and ``None``
    for the rest — the caller's unsampled path is one branch.
    """

    def __init__(self, sample_rate: float = 0.01, *, keep: int = 64, seed: Optional[int] = None):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must lie in [0, 1]")
        self.sample_rate = float(sample_rate)
        self.seen = 0
        self.sampled = 0
        self.joined = 0
        self.recent: Deque[QueryTrace] = deque(maxlen=int(keep))
        self._random = random.Random(seed)
        self._lock = threading.Lock()

    def sample(
        self,
        detail: Optional[Dict[str, Any]] = None,
        *,
        context: Optional[TraceContext] = None,
    ) -> Optional[QueryTrace]:
        """Return a new trace for ~``sample_rate`` of calls, else ``None``.

        With a propagated ``context`` the *head* sampling decision wins:
        a sampled upstream context always yields a joined trace (sharing
        its trace id, recording its span id as parent) regardless of this
        tracer's own rate, and an unsampled one never does — so one
        decision at the client governs the whole distributed tree.
        """
        self.seen += 1
        if context is not None:
            if not context.sampled:
                return None
            self.sampled += 1
            self.joined += 1
            return QueryTrace(detail, owner=self, context=context)
        if self.sample_rate <= 0.0 or self._random.random() >= self.sample_rate:
            return None
        self.sampled += 1
        return QueryTrace(detail, owner=self)

    def _record(self, trace: QueryTrace) -> None:
        with self._lock:
            self.recent.append(trace)

    def recent_traces(self, limit: int = 16) -> List[Dict[str, Any]]:
        """The ``limit`` most recent finished traces, newest first, as dicts."""
        limit = int(limit)
        if limit <= 0:
            return []
        with self._lock:
            newest = list(self.recent)[-limit:]
        return [trace.to_dict() for trace in reversed(newest)]

    def find(self, trace_id: str) -> List[Dict[str, Any]]:
        """Every retained finished trace with this ``trace_id`` (oldest first).

        The cross-process correlation primitive: given the trace id of a
        client root span, the server's ``traces`` admin reply (or this
        method in-process) yields the hop's matching waterfalls.
        """
        with self._lock:
            matches = [trace for trace in self.recent if trace.trace_id == trace_id]
        return [trace.to_dict() for trace in matches]

    def as_dict(self) -> Dict[str, float]:
        return {
            "sample_rate": self.sample_rate,
            "seen": self.seen,
            "sampled": self.sampled,
            "joined": self.joined,
            "retained": len(self.recent),
        }

    def __repr__(self) -> str:
        return f"<Tracer rate={self.sample_rate} sampled={self.sampled}/{self.seen}>"


# ---------------------------------------------------------------------- #
# thread-active trace: how deep layers find the current query's trace
# ---------------------------------------------------------------------- #
_ACTIVE = threading.local()


def active_trace() -> Optional[QueryTrace]:
    """The calling thread's active trace, or ``None`` (the hot-path check)."""
    return getattr(_ACTIVE, "trace", None)


@contextmanager
def activated(trace: Optional[QueryTrace]):
    """Scope ``trace`` as the thread-active trace, restoring the previous one."""
    previous = active_trace()
    _ACTIVE.trace = trace
    try:
        yield trace
    finally:
        _ACTIVE.trace = previous


# ---------------------------------------------------------------------- #
# slow-query log
# ---------------------------------------------------------------------- #
class SlowQueryLog:
    """Bounded ring of queries slower than a configurable threshold.

    Entries carry the end-to-end latency, the query's identity detail, and
    — when the query happened to be trace-sampled — its full stage
    waterfall.  Appends are O(1) (``deque(maxlen=…)``), reads snapshot
    under a lock, so a scrape racing live traffic sees a consistent list.
    """

    def __init__(self, threshold_ms: float = 250.0, capacity: int = 128) -> None:
        if threshold_ms < 0:
            raise ValueError("threshold_ms must be non-negative")
        if capacity < 1:
            raise ValueError("capacity must be a positive integer")
        self.threshold_ms = float(threshold_ms)
        self.capacity = int(capacity)
        self.total_slow = 0
        self._entries: Deque[Dict[str, Any]] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()

    def record(
        self,
        latency_seconds: float,
        detail: Optional[Dict[str, Any]] = None,
        trace: Optional[QueryTrace] = None,
    ) -> bool:
        """Append one query if it crossed the threshold; return whether it did."""
        if latency_seconds * 1e3 < self.threshold_ms:
            return False
        entry = {
            "latency_ms": latency_seconds * 1e3,
            "recorded_at": time.time(),
            "detail": dict(detail or {}),
            "trace": None if trace is None else trace.to_dict(),
        }
        with self._lock:
            self.total_slow += 1
            self._entries.append(entry)
        return True

    def entries(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Slowest-recent entries, newest first."""
        with self._lock:
            newest = list(self._entries)
        newest.reverse()
        return newest if limit is None else newest[: int(limit)]

    def as_dict(self) -> Dict[str, Any]:
        """Summary + entries document for the ``slow`` admin command."""
        return {
            "threshold_ms": self.threshold_ms,
            "capacity": self.capacity,
            "total_slow": self.total_slow,
            "entries": self.entries(),
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"<SlowQueryLog >={self.threshold_ms}ms "
            f"kept={len(self._entries)}/{self.capacity} total={self.total_slow}>"
        )
