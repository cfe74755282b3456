"""Resilience primitives of the service layer: deadlines, retries, breakers.

The service's failure model is simple and explicit: **every query either
returns the correct answer or a typed error, in bounded time**.  The
primitives here are what make "bounded time" true on both ends of the
wire; the fault-injection harness in :mod:`repro.testing.faults` is the
correctness engine that proves it.

* :class:`Deadline` — an absolute monotonic-clock deadline derived from a
  request's relative ``deadline_ms`` budget.  Relative on the wire
  (client and server clocks are never compared), absolute in the process:
  admission, the micro-batcher, and the scoring offload all check the
  same remaining budget.
* :class:`RetryPolicy` — capped exponential backoff with deterministic
  seeded jitter.  Retries only *idempotent* work (similarity queries are
  pure reads) and only on errors that are known-safe to retry:
  ``OVERLOADED`` shedding, timeouts, and connection resets.  A
  ``BAD_REQUEST`` or a genuine server-side scoring error is never
  retried — the answer would not change.
* :class:`CircuitBreaker` — per-endpoint closed → open → half-open state
  machine.  Consecutive failures open the circuit; while open, attempts
  fail fast locally with :class:`~repro.exceptions.CircuitOpenError`
  (no retry storm against a struggling server); after ``reset_timeout``
  one half-open probe is allowed through, and its outcome decides
  between closing the circuit and re-opening it.
* :class:`HedgePolicy` — latency-percentile-driven request hedging: after
  the observed p-th percentile of recent latencies (or a fixed floor
  before enough samples exist), a second copy of the request is sent and
  the first response wins.  Hedges reuse the request's idempotency key so
  the server can serve the duplicate from its completed-request cache.
* :class:`IdempotencyCache` — the server-side half of idempotent request
  ids: a bounded LRU of completed ``request_key`` → wire-encoded answer,
  so a retried or hedged duplicate of an already-answered request is
  served bit-identically without re-scoring.

All knobs are plain constructor arguments; all randomness is seeded and
deterministic so chaos tests replay exactly.
"""

from __future__ import annotations

import random
import threading
import time
from collections import OrderedDict, deque
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.obs.metrics import get_registry

__all__ = [
    "Deadline",
    "RetryPolicy",
    "CircuitBreaker",
    "HedgePolicy",
    "IdempotencyCache",
    "RETRYABLE_ERRORS",
]

_RETRIES = get_registry().counter(
    "repro_client_retries_total", "Client query retries by trigger", ("reason",)
)
_HEDGES = get_registry().counter(
    "repro_client_hedges_total", "Hedged duplicate requests by outcome", ("outcome",)
)
_HEDGES_SENT = _HEDGES.labels(outcome="sent")
_HEDGES_WON = _HEDGES.labels(outcome="won")
_HEDGES_CANCELLED = _HEDGES.labels(outcome="cancelled")
_BREAKER_TRANSITIONS = get_registry().counter(
    "repro_breaker_transitions_total", "Circuit-breaker state transitions", ("to",)
)
_BREAKER_FAST_FAILS = get_registry().counter(
    "repro_breaker_fast_fails_total", "Requests failed locally by an open breaker"
)
_IDEMPOTENT_HITS = get_registry().counter(
    "repro_idempotent_hits_total",
    "Duplicate requests served from the idempotency cache",
)

#: Exception types a :class:`RetryPolicy` treats as safe to retry for
#: idempotent queries: the server shed the request before scoring it
#: (``OVERLOADED``), the deadline/read timeout fired, or the connection
#: reset mid-flight.  ``TimeoutError`` covers ``socket.timeout`` and
#: ``asyncio.TimeoutError`` on all supported Pythons.
RETRYABLE_ERRORS: Tuple[type, ...] = (
    ServiceOverloadedError,
    DeadlineExceededError,
    TimeoutError,
    ConnectionError,
    OSError,
)


# ---------------------------------------------------------------------- #
# deadlines
# ---------------------------------------------------------------------- #
class Deadline:
    """An absolute point on the monotonic clock by which work must finish.

    Built from a *relative* millisecond budget (what travels on the wire —
    client and server wall clocks are never compared), checked as an
    absolute instant everywhere inside one process so repeated checks
    cannot drift.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        self.expires_at = float(expires_at)

    @classmethod
    def after_ms(cls, budget_ms: float, *, clock: Optional[float] = None) -> "Deadline":
        """Deadline ``budget_ms`` milliseconds from now (or from ``clock``)."""
        budget = float(budget_ms)
        if budget <= 0:
            raise ServiceError("deadline_ms must be a positive number of milliseconds")
        now = time.monotonic() if clock is None else clock
        return cls(now + budget / 1000.0)

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self.expires_at - time.monotonic()

    def remaining_ms(self) -> float:
        """Milliseconds left before expiry (negative once expired)."""
        return self.remaining() * 1000.0

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def __repr__(self) -> str:
        return f"<Deadline remaining={self.remaining_ms():.1f}ms>"


# ---------------------------------------------------------------------- #
# retries
# ---------------------------------------------------------------------- #
class RetryPolicy:
    """Capped exponential backoff with deterministic, seeded jitter.

    Parameters
    ----------
    max_attempts:
        Total tries including the first (>= 1; 1 disables retries).
    base_delay_ms:
        Backoff before the first retry; doubles per retry.
    max_delay_ms:
        Cap on any single backoff.
    jitter:
        Fraction of each delay randomised away (``0.5`` → the delay is
        drawn uniformly from ``[0.5·d, d]``).  Seeded, so a chaos run's
        retry timing replays exactly.
    seed:
        Seed of the jitter stream (``None`` → nondeterministic).
    retry_on:
        Exception types that are safe to retry (defaults to
        :data:`RETRYABLE_ERRORS`).  Anything else propagates immediately.
    """

    def __init__(
        self,
        *,
        max_attempts: int = 3,
        base_delay_ms: float = 10.0,
        max_delay_ms: float = 1000.0,
        jitter: float = 0.5,
        seed: Optional[int] = None,
        retry_on: Tuple[type, ...] = RETRYABLE_ERRORS,
    ) -> None:
        if max_attempts < 1:
            raise ServiceError("max_attempts must be >= 1")
        if base_delay_ms < 0 or max_delay_ms < 0:
            raise ServiceError("backoff delays must be non-negative")
        if not 0.0 <= jitter <= 1.0:
            raise ServiceError("jitter must be within [0, 1]")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay_ms) / 1000.0
        self.max_delay = float(max_delay_ms) / 1000.0
        self.jitter = float(jitter)
        self.retry_on = tuple(retry_on)
        self._rng = random.Random(seed)
        #: Lifetime counter surfaced in client stats.
        self.retries = 0

    def is_retryable(self, error: BaseException) -> bool:
        """True when ``error`` is transient for an idempotent query.

        :class:`CircuitOpenError` is deliberately *not* retryable even
        though it subclasses :class:`ServiceError`: the breaker exists to
        stop exactly this retry traffic.
        """
        if isinstance(error, CircuitOpenError):
            return False
        return isinstance(error, self.retry_on)

    def delay_for(self, attempt: int) -> float:
        """Backoff (seconds) after failed attempt number ``attempt`` (1-based)."""
        delay = min(self.base_delay * (2.0 ** (attempt - 1)), self.max_delay)
        if self.jitter and delay > 0:
            low = delay * (1.0 - self.jitter)
            delay = self._rng.uniform(low, delay)
        return delay

    def attempts(self) -> Iterator[int]:
        """Yield attempt numbers ``1..max_attempts``."""
        return iter(range(1, self.max_attempts + 1))

    def record_retry(self, error: BaseException) -> None:
        """Count one retry (labelled with the triggering error class)."""
        self.retries += 1
        _RETRIES.labels(reason=type(error).__name__).inc()

    def __repr__(self) -> str:
        return (
            f"<RetryPolicy attempts={self.max_attempts} "
            f"base={self.base_delay * 1000:.0f}ms cap={self.max_delay * 1000:.0f}ms>"
        )


# ---------------------------------------------------------------------- #
# circuit breaker
# ---------------------------------------------------------------------- #
class CircuitBreaker:
    """Per-endpoint closed → open → half-open breaker.

    Thread-safe: the sync client calls it from arbitrary threads and the
    async client from the event loop; one lock covers the tiny state
    machine.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that open the circuit.
    reset_timeout_ms:
        How long an open circuit rejects before allowing one half-open
        probe.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self, *, failure_threshold: int = 5, reset_timeout_ms: float = 1000.0
    ) -> None:
        if failure_threshold < 1:
            raise ServiceError("failure_threshold must be >= 1")
        if reset_timeout_ms <= 0:
            raise ServiceError("reset_timeout_ms must be positive")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout_ms) / 1000.0
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        self._probes = 0  # half-open probes claimed so far: the latest is the claim
        #: Lifetime counters surfaced in client stats.
        self.opened = 0
        self.fast_failures = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        if self._state == self.OPEN and (
            time.monotonic() - self._opened_at >= self.reset_timeout
        ):
            self._transition(self.HALF_OPEN)
        return self._state

    def _transition(self, state: str) -> None:
        if state != self._state:
            self._state = state
            _BREAKER_TRANSITIONS.labels(to=state).inc()
            if state == self.HALF_OPEN:
                self._probe_inflight = False

    def _admit(self) -> Tuple[bool, int]:
        """``(may send now, probe claim)``, decided under the one lock: the
        claim is 0 unless this very call took the half-open probe."""
        with self._lock:
            state = self._effective_state()
            if state == self.CLOSED:
                return True, 0
            if state == self.HALF_OPEN and not self._probe_inflight:
                self._probe_inflight = True
                self._probes += 1
                return True, self._probes
            self.fast_failures += 1
            _BREAKER_FAST_FAILS.inc()
            return False, 0

    def allow(self) -> bool:
        """True when a request may be sent now (claims the half-open probe)."""
        return self._admit()[0]

    def check(self) -> int:
        """Raise :class:`CircuitOpenError` unless a request may be sent now.

        Returns the half-open probe claim this call took (0: none, the circuit
        is closed) — what :meth:`release_probe` takes if the request is
        abandoned.
        """
        allowed, claim = self._admit()
        if not allowed:
            raise CircuitOpenError(
                f"circuit breaker is {self._state} "
                f"(after {self._failures} consecutive failures)"
            )
        return claim

    def release_probe(self, claim: int) -> None:
        """The half-open probe ``claim`` was abandoned before it could succeed or fail.

        Nothing was learnt about the endpoint, so the state stays half-open
        and the next request is the probe — without this a probe whose
        caller was cancelled would shut the circuit for good.  A claim that
        is not the latest one (its probe settled and another was taken
        since) releases nothing.
        """
        with self._lock:
            if claim and claim == self._probes:
                self._probe_inflight = False

    def record_success(self) -> None:
        """A request completed: close the circuit and reset the count."""
        with self._lock:
            self._failures = 0
            self._probe_inflight = False
            self._transition(self.CLOSED)

    def record_failure(self) -> None:
        """A request failed: count it, open at the threshold, re-open a probe."""
        with self._lock:
            self._failures += 1
            state = self._effective_state()
            if state == self.HALF_OPEN or self._failures >= self.failure_threshold:
                if self._state != self.OPEN:
                    self.opened += 1
                self._opened_at = time.monotonic()
                self._transition(self.OPEN)

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "state": self._effective_state(),
                "consecutive_failures": self._failures,
                "failure_threshold": self.failure_threshold,
                "reset_timeout_ms": self.reset_timeout * 1000.0,
                "opened": self.opened,
                "fast_failures": self.fast_failures,
            }

    def __repr__(self) -> str:
        return f"<CircuitBreaker {self.state} failures={self._failures}>"


# ---------------------------------------------------------------------- #
# hedging
# ---------------------------------------------------------------------- #
class HedgePolicy:
    """Latency-percentile-driven request hedging (first response wins).

    Tracks a bounded window of observed request latencies; a request still
    unanswered after the ``percentile``-th of that window (or
    ``min_delay_ms`` until enough samples exist) gets a duplicate send.
    The duplicate carries the same idempotency key, so the server answers
    it from the completed-request cache when the primary already finished.

    Parameters
    ----------
    percentile:
        Latency percentile after which to hedge (e.g. ``95.0``).
    min_delay_ms:
        Hedge delay floor, and the delay used before ``min_samples``
        observations have been recorded.
    min_samples:
        Observations required before the percentile is trusted.
    window:
        Size of the latency ring.
    max_hedges:
        Duplicate sends per request (>= 1).
    """

    def __init__(
        self,
        *,
        percentile: float = 95.0,
        min_delay_ms: float = 10.0,
        min_samples: int = 16,
        window: int = 256,
        max_hedges: int = 1,
    ) -> None:
        if not 0.0 < percentile < 100.0:
            raise ServiceError("percentile must be within (0, 100)")
        if min_delay_ms < 0:
            raise ServiceError("min_delay_ms must be non-negative")
        if max_hedges < 1:
            raise ServiceError("max_hedges must be >= 1")
        self.percentile = float(percentile)
        self.min_delay = float(min_delay_ms) / 1000.0
        self.min_samples = int(min_samples)
        self.max_hedges = int(max_hedges)
        self._latencies: deque = deque(maxlen=int(window))
        self._lock = threading.Lock()
        #: Lifetime counters surfaced in client stats.
        self.hedges_sent = 0
        self.hedges_won = 0
        self.hedges_cancelled = 0

    def observe(self, latency_seconds: float) -> None:
        """Record one completed request's latency."""
        with self._lock:
            self._latencies.append(float(latency_seconds))

    def hedge_delay(self) -> float:
        """Seconds to wait for the primary before sending the duplicate."""
        with self._lock:
            samples = sorted(self._latencies)
        if len(samples) < self.min_samples:
            return self.min_delay
        rank = min(
            len(samples) - 1, int(len(samples) * self.percentile / 100.0)
        )
        return max(samples[rank], self.min_delay)

    def record_sent(self) -> None:
        self.hedges_sent += 1
        _HEDGES_SENT.inc()

    def record_won(self) -> None:
        """The hedged duplicate's response arrived before the primary's."""
        self.hedges_won += 1
        _HEDGES_WON.inc()

    def record_cancelled(self) -> None:
        """The primary answered first; the duplicate's response is discarded."""
        self.hedges_cancelled += 1
        _HEDGES_CANCELLED.inc()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "percentile": self.percentile,
            "min_delay_ms": self.min_delay * 1000.0,
            "current_delay_ms": self.hedge_delay() * 1000.0,
            "hedges_sent": self.hedges_sent,
            "hedges_won": self.hedges_won,
            "hedges_cancelled": self.hedges_cancelled,
        }

    def __repr__(self) -> str:
        return (
            f"<HedgePolicy p{self.percentile:g} sent={self.hedges_sent} "
            f"won={self.hedges_won}>"
        )


# ---------------------------------------------------------------------- #
# idempotent request ids (server side)
# ---------------------------------------------------------------------- #
class IdempotencyCache:
    """Bounded LRU of completed ``request_key`` → wire-encoded answer.

    Retried and hedged requests reuse their logical request key; when the
    original already completed, the duplicate is answered bit-identically
    from here without touching the engine.  Only *successful* answers are
    cached — errors are transient by definition and must re-execute.

    Event-loop confined (like the admission controller): the server calls
    it only from the asyncio loop thread.
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 0:
            raise ServiceError("capacity must be >= 0 (0 disables the cache)")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Optional[str]) -> Optional[bytes]:
        """The cached answer section (``encode_answer`` bytes) for ``key``, or ``None``."""
        if not key or not self.capacity:
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        _IDEMPOTENT_HITS.inc()
        return entry

    def put(self, key: Optional[str], answer_payload: bytes) -> None:
        """Remember the wire-encoded answer of a completed request."""
        if not key or not self.capacity:
            return
        self._entries[key] = answer_payload
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Forget every answer (the hit/miss counters keep counting)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
        }
