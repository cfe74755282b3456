"""Asyncio similarity-search server: micro-batching, admission, hot swap.

:class:`SimilarityService` exposes a :class:`~repro.serving.engine.BatchQueryEngine`
to concurrent remote clients over the length-prefixed JSON protocol of
:mod:`repro.service.protocol`:

* every connection may *pipeline* requests — each message is handled in
  its own task, so queries from many connections (and many in-flight
  requests of one connection) coalesce in the :class:`~repro.service.batcher.MicroBatcher`
  into single ``query_batch`` calls;
* the :class:`~repro.service.admission.AdmissionController` sheds load
  with a typed ``OVERLOADED`` response instead of queueing without bound;
* the numpy scoring runs in a worker thread
  (``loop.run_in_executor``), keeping the event loop free to accept and
  frame traffic;
* ``SIGHUP`` (or the ``reload`` admin command) *hot-swaps* the engine: a
  fresh engine is loaded from the snapshot off-loop, then the serving
  reference is swapped atomically between batches — in-flight queries
  finish on the old engine, later ones score on the new one, and no
  answer ever mixes the two;
* the ``stats`` admin command is the metrics endpoint: serving stats
  (bounded-window latency percentiles), engine prune counters, result
  cache hit rate, batcher occupancy/coalescing, and admission counters as
  one JSON document — a *pure read* that can be scraped at any frequency
  without perturbing the numbers it reports;
* observability is built in: a :class:`~repro.obs.trace.Tracer` samples a
  configurable fraction of queries into stage waterfalls (decode →
  batcher queue wait → engine scoring → core stages → serialize), a
  :class:`~repro.obs.trace.SlowQueryLog` keeps the worst offenders with
  their waterfalls (``slow`` admin command), and the process-wide metrics
  registry is exported as Prometheus text — over the ``prometheus`` admin
  command, or scraped by real Prometheus from the optional plain-HTTP
  ``/metrics`` listener (``metrics_port=``).

Shutdown (:meth:`SimilarityService.stop`) is graceful by construction:
new queries are refused with ``SHUTTING_DOWN``, the batcher drains every
admitted query, all pending responses are written, and only then are the
connections closed — zero in-flight queries are dropped.

:func:`start_service_thread` runs a service on a dedicated thread with its
own event loop — the one-call harness used by the tests, the benchmark,
and the quickstart example (production deployments would run
:meth:`serve_forever` in the process' main loop instead).
"""

from __future__ import annotations

import asyncio
import math
import signal
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Optional, Sequence

from repro.db.query import SimilarityQuery
from repro.exceptions import (
    DeadlineExceededError,
    ProtocolError,
    QueryError,
    ReproError,
    ServiceError,
)
from repro.obs.export import PROMETHEUS_CONTENT_TYPE, prometheus_text
from repro.obs.logging import get_event_log, get_logger
from repro.obs.metrics import get_registry
from repro.obs.profile import SamplingProfiler
from repro.obs.slo import SLOEngine, error_rate_slo, latency_slo
from repro.obs.trace import SlowQueryLog, TraceContext, Tracer
from repro.serving.engine import BatchQueryEngine
from repro.serving.snapshot import load_engine
from repro.service.admission import AdmissionController
from repro.service.batcher import MicroBatcher
from repro.service.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_DEADLINE_EXCEEDED,
    ERROR_OVERLOADED,
    ERROR_SERVER_ERROR,
    ERROR_SHUTTING_DOWN,
    encode_answer,
    encode_frame,
    decode_query,
    error_response,
    read_frame,
)
from repro.service.resilience import Deadline, IdempotencyCache

__all__ = ["SimilarityService", "ServiceHandle", "start_service_thread"]

_REQUESTS = get_registry().counter(
    "repro_service_requests_total", "Query requests by outcome", ("outcome",)
)
_REQ_ANSWERED = _REQUESTS.labels(outcome="answered")
_REQ_REJECTED = _REQUESTS.labels(outcome="rejected")
_REQ_SHUTTING_DOWN = _REQUESTS.labels(outcome="shutting_down")
_REQ_BAD_REQUEST = _REQUESTS.labels(outcome="bad_request")
_REQ_ERROR = _REQUESTS.labels(outcome="error")
_REQUEST_SECONDS = get_registry().histogram(
    "repro_service_request_seconds",
    "End-to-end request latency from admission to serialized response",
)
_REQ_DEADLINE = _REQUESTS.labels(outcome="deadline_exceeded")
_RELOADS = get_registry().counter(
    "repro_service_reloads_total", "Engine hot-swaps completed"
)
_RELOAD_FAILURES = get_registry().counter(
    "repro_reload_failures_total",
    "Engine hot-swap attempts that failed (old engine kept serving)",
)
_CONNECTIONS = get_registry().gauge(
    "repro_service_connections", "Open client connections"
)

#: Capacity of the recent-latency window the ``serving`` percentiles read:
#: large enough that p99 over it means something, small enough that the
#: window stays O(100 KiB) and its sort per scrape cheap, however long the
#: process serves.
LATENCY_WINDOW = 8192


def _tau_error(query: SimilarityQuery, engine: BatchQueryEngine) -> QueryError:
    """The error of a query whose τ̂ the serving engine's priors do not reach."""
    return QueryError(f"τ̂={query.tau_hat} exceeds the served model's maximum {engine.max_tau}")


def _admin_limit(message: Dict[str, Any], default: int) -> int:
    """An admin command's ``limit``: a non-negative ``int`` (not a bool), or ``ProtocolError``."""
    limit = message.get("limit", default)
    if type(limit) is not int or limit < 0:
        raise ProtocolError(f"limit must be a non-negative integer, got {limit!r}")
    return limit


def _nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of sorted samples, nearest-rank rule (0.0 if none)."""
    if not ordered:
        return 0.0
    return ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1]


def _requests_grand_total() -> float:
    """Cumulative requests across every outcome (availability SLO total)."""
    return sum(child.value for _labels, child in _REQUESTS.series())


def _requests_failed() -> float:
    """Cumulative server-fault requests (availability SLO bad count)."""
    return _REQ_ERROR.value


def _repro_build_info() -> Dict[str, str]:
    """Build/runtime identity labels (lazy import avoids a package cycle)."""
    from repro.obs import build_info

    return build_info()


def _default_slo_engine(on_transition) -> SLOEngine:
    """The service's stock objectives over the request metrics.

    * ``latency``: 99% of answered requests within 250 ms (the largest
      request-seconds bucket at or under the classic interactive budget);
    * ``availability``: 99.9% of requests not ending in ``SERVER_ERROR``
      (shed load and client mistakes are not availability failures).
    """
    engine = SLOEngine(on_transition=on_transition)
    engine.add(
        latency_slo("latency", _REQUEST_SECONDS, 0.25, objective=0.99)
    )
    engine.add(
        error_rate_slo(
            "availability",
            _requests_grand_total,
            _requests_failed,
            objective=0.999,
            description="99.90% of requests complete without a server error",
        )
    )
    return engine


class SimilarityService:
    """Serve similarity queries over TCP with dynamic micro-batching.

    Parameters
    ----------
    engine:
        The serving engine.  May be omitted when ``snapshot_path`` is
        given — the engine is then loaded from the snapshot at
        :meth:`start` (and re-loaded from the same path on ``SIGHUP`` /
        a path-less ``reload`` admin command).
    snapshot_path:
        Default snapshot for engine (re)loads.
    host, port:
        Listen address; port 0 picks a free port (see :attr:`port`).
    max_batch:
        Largest micro-batch (see :class:`~repro.service.batcher.MicroBatcher`;
        smaller batches flush as soon as the event loop has no more queries
        to deliver — there is no batching delay to set).
    max_pending, max_per_connection:
        Admission budgets (see :class:`~repro.service.admission.AdmissionController`).
    trace_sample_rate:
        Fraction of queries traced into stage waterfalls (default 1%;
        0 disables tracing entirely).
    slow_query_ms:
        Latency threshold of the slow-query log (a ring of the newest 128).
    metrics_port:
        When given, a plain-HTTP listener on this port (same host) serves
        Prometheus text exposition at ``/metrics`` — port 0 picks a free
        port (see :attr:`metrics_http_port`).  ``None`` (default) starts
        no listener; the ``prometheus`` admin command always works.
    profiler_interval_ms:
        Sampling interval of the on-demand continuous profiler (started
        and stopped through the ``profile`` admin command; never running
        unless asked).
    """

    def __init__(
        self,
        engine: Optional[BatchQueryEngine] = None,
        *,
        snapshot_path=None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 32,
        max_pending: int = 1024,
        max_per_connection: int = 0,
        trace_sample_rate: float = 0.01,
        slow_query_ms: float = 250.0,
        metrics_port: Optional[int] = None,
        profiler_interval_ms: float = 10.0,
    ) -> None:
        if engine is None and snapshot_path is None:
            raise ServiceError("a SimilarityService needs an engine or a snapshot_path")
        self._engine = engine
        self.snapshot_path = snapshot_path
        self.host = host
        self._requested_port = int(port)
        self.admission = AdmissionController(
            max_pending=max_pending, max_per_connection=max_per_connection
        )
        self.batcher = MicroBatcher(self._run_batch, max_batch=max_batch)
        #: Queries answered since construction, and the latencies of the
        #: most recent :data:`LATENCY_WINDOW` of them (admission to
        #: serialized answer, seconds): what the ``serving`` section reads.
        self.queries_answered = 0
        self.latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        #: Completed requests by ``request_key`` (the newest 2 048): client
        #: retries and hedges are answered from it bit-identically.
        self.idempotency = IdempotencyCache()
        self.tracer = Tracer(sample_rate=trace_sample_rate)
        self.slow_log = SlowQueryLog(threshold_ms=slow_query_ms)
        self.log = get_logger("service")
        # The per-query slow_query warnings get their own logger (and thus
        # their own rate-limit bucket): a chatty slow patch must never
        # starve rare lifecycle events (reloads, SLO transitions) of
        # tokens on the shared "service" logger.
        self.slow_query_logger = get_logger("service.slow")
        #: The stock objectives, evaluated by the ``slo`` admin command and
        #: on every ``stats`` scrape into ``repro_slo_*`` gauges.
        self.slo = _default_slo_engine(self._on_slo_transition)
        self.profiler = SamplingProfiler(interval_ms=profiler_interval_ms)
        self.metrics_port = None if metrics_port is None else int(metrics_port)
        self._metrics_server: Optional[asyncio.base_events.Server] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped: Optional[asyncio.Event] = None
        self._reload_lock: Optional[asyncio.Lock] = None
        self._closing = False
        self._started_at = 0.0
        self._next_connection_id = 0
        self._connections = 0
        self._reloads = 0
        self._reload_failures = 0
        self._inflight: set = set()
        self._writers: set = set()
        #: Strong refs to fire-and-forget tasks (SIGHUP reloads): the event
        #: loop only holds weak refs, so an unreferenced task can be
        #: garbage-collected mid-execution.
        self._background: set = set()
        self._signal_registered = False

    def _on_slo_transition(self, name, old_state, new_state, burns) -> None:
        """Alert state changes are structured-log events (page-worthy loudest)."""
        emit = self.log.error if new_state == "page" else self.log.warning
        emit(
            "slo_state_change",
            slo=name,
            from_state=old_state,
            to_state=new_state,
            burn_rates={window: round(burn, 3) for window, burn in burns.items()},
        )

    # ------------------------------------------------------------------ #
    # engine access / hot swap
    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> BatchQueryEngine:
        """The engine currently serving (swapped atomically on reload)."""
        if self._engine is None:
            raise ServiceError("the service has no engine yet (not started?)")
        return self._engine

    async def reload_engine(self, snapshot_path=None) -> Dict[str, Any]:
        """Hot-swap the serving engine from a snapshot; return a summary.

        The snapshot is loaded off-loop (serving continues meanwhile), then
        the engine reference is swapped in one assignment.  The micro-batcher
        resolves the engine per flush, so the swap lands exactly on a batch
        boundary: queries batched before it finish on the old engine,
        queries batched after it score on the new one — zero downtime and
        no torn answers.

        The idempotency cache is cleared with the swap: its answers are the
        old model's, and a query still in flight across the swap is not
        cached at all (it may have been scored on either side of it).

        Failure is *non-fatal by construction*: a missing, truncated, or
        checksum-failing snapshot raises before the swap assignment, so the
        last-good engine (and its answer cache) keeps serving; the attempt
        is counted in ``repro_reload_failures_total`` and the metrics
        document.

        The swap serializes with :meth:`stop` through ``_reload_lock``:
        once shutdown has begun a reload is refused, and :meth:`stop` waits
        for any in-flight swap before tearing the service down.
        """
        path = snapshot_path or self.snapshot_path
        if path is None:
            raise ServiceError("no snapshot path configured for engine reload")
        assert self._reload_lock is not None
        async with self._reload_lock:
            if self._closing:
                raise ServiceError("service is shutting down; reload refused")
            loop = asyncio.get_running_loop()
            try:
                engine = await loop.run_in_executor(None, load_engine, path)
            except BaseException as exc:
                self._reload_failures += 1
                _RELOAD_FAILURES.inc()
                self.log.error(
                    "engine_reload_failed", path=str(path), error=f"{type(exc).__name__}: {exc}"
                )
                raise
            previous = self._engine
            self._engine = engine
            # An answer cache belongs to the model that produced it: a retry
            # or hedge landing after the swap is re-scored on the new engine,
            # never answered ``cached`` with the old model's result.  (A
            # failed load raised above and kept engine and cache.)
            self.idempotency.clear()
            self._reloads += 1
            _RELOADS.inc()
        # The tracer ring and slow log intentionally survive the swap (their
        # history is still real); every entry is stamped with the
        # model_version that served it, so post-reload scrapes attribute old
        # waterfalls to the old model instead of silently implying the new one.
        self.log.info(
            "engine_reloaded",
            path=str(path),
            model_version=engine.model_version,
            previous_model_version=None if previous is None else previous.model_version,
            reload_count=self._reloads,
        )
        return {
            "reloaded_from": str(path),
            "model_version": engine.model_version,
            "previous_model_version": None if previous is None else previous.model_version,
            "database_size": len(engine.database),
            "reload_count": self._reloads,
        }

    def _schedule_reload(self) -> None:
        """SIGHUP entry point: run a reload in the background, log failures."""
        assert self._loop is not None

        async def _reload() -> None:
            try:
                await self.reload_engine()
            except (ReproError, OSError, KeyError, TypeError, ValueError):
                # A broken snapshot must never take down a serving process;
                # the old engine simply keeps serving.
                pass

        task = self._loop.create_task(_reload())
        self._background.add(task)
        task.add_done_callback(self._background.discard)

    async def _run_batch(self, queries, trace=None):
        """Batch runner handed to the micro-batcher (thread-offloaded numpy).

        ``trace`` is the batch-level :class:`~repro.obs.trace.QueryTrace`
        the batcher creates when a sampled query rides in the flush; the
        engine activates it in the scoring thread so the cache-probe /
        score / core-stage spans land in it.  Returns an answer per query,
        or, for a query whose τ̂ the flush's engine does not reach, the
        :class:`~repro.exceptions.QueryError` it fails with.
        """
        engine = self.engine  # resolved per flush: the hot-swap boundary
        loop = asyncio.get_running_loop()
        queries = list(queries)
        # τ̂ was checked at admission against the engine of that moment; a
        # reload since then may have lowered max_tau.  Such a query fails
        # alone, with the QueryError admission would have raised (answered
        # BAD_REQUEST), and its batch-mates are scored.
        refused = {
            position: _tau_error(query, engine)
            for position, query in enumerate(queries)
            if query.tau_hat > engine.max_tau
        }
        scored = [query for position, query in enumerate(queries) if position not in refused]
        answers = []
        if scored:
            answers = await loop.run_in_executor(
                None, lambda: engine.query_batch(scored, trace=trace)
            )
        if not refused:
            return answers
        answers = iter(answers)
        return [
            refused[position] if position in refused else next(answers)
            for position in range(len(queries))
        ]

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listening socket and start the batcher (idempotent)."""
        if self._server is not None:
            return
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stopped = asyncio.Event()
        self._reload_lock = asyncio.Lock()
        if self._engine is None:
            self._engine = await loop.run_in_executor(None, load_engine, self.snapshot_path)
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self._requested_port
        )
        if self.metrics_port is not None and self._metrics_server is None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_http, host=self.host, port=self.metrics_port
            )
        self._started_at = time.monotonic()
        if self.snapshot_path is not None and not self._signal_registered:
            try:
                loop.add_signal_handler(signal.SIGHUP, self._schedule_reload)
                self._signal_registered = True
            except (NotImplementedError, RuntimeError, ValueError, AttributeError):
                # Non-main thread, non-unix platform, or no SIGHUP: the
                # admin "reload" command remains available.
                pass

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("the service is not listening")
        return self._server.sockets[0].getsockname()[1]

    @property
    def metrics_http_port(self) -> int:
        """The bound ``/metrics`` HTTP port (resolves port 0 after :meth:`start`)."""
        if self._metrics_server is None or not self._metrics_server.sockets:
            raise ServiceError("the service has no /metrics listener")
        return self._metrics_server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until :meth:`stop` is called."""
        await self.start()
        assert self._stopped is not None
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful shutdown: drain in-flight queries, then close connections.

        Order matters: (1) flip the closing flag so newly read requests are
        refused with ``SHUTTING_DOWN``; (2) close the listening socket;
        (3) drain the micro-batcher — every admitted query is scored;
        (4) wait for every handler task to finish writing its response;
        (5) only then tear down the connections.
        """
        if self._server is None or self._closing:
            return
        self._closing = True
        # Serialize with an in-flight hot swap: the closing flag above makes
        # any *new* reload fail fast inside the lock, and acquiring the lock
        # here blocks until a swap already past that check has fully landed —
        # teardown can never interleave with an engine swap (regression:
        # stop() racing reload_engine()).
        if self._reload_lock is not None:
            async with self._reload_lock:
                pass
        self._server.close()
        await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        await self.batcher.stop()
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        # Every admitted query has been answered and written; now it is safe
        # to hang up on the (idle) connections so their read loops exit.
        for writer in list(self._writers):
            writer.close()
        if self._signal_registered and self._loop is not None:
            try:
                self._loop.remove_signal_handler(signal.SIGHUP)
            except (NotImplementedError, RuntimeError, ValueError, AttributeError):
                pass
            self._signal_registered = False
        self.profiler.stop()
        assert self._stopped is not None
        self._stopped.set()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        self._next_connection_id += 1
        connection_id = self._next_connection_id
        self._connections += 1
        _CONNECTIONS.set(self._connections)
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        tasks: set = set()
        try:
            while True:
                try:
                    message = await read_frame(reader)
                except (ProtocolError, ConnectionError, OSError):
                    # Unframeable input or an abrupt peer reset: nothing
                    # sane can be replied to — drop the connection (pending
                    # tasks still complete).
                    break
                if message is None:
                    break
                task = asyncio.get_running_loop().create_task(
                    self._handle_message(message, connection_id, writer, write_lock)
                )
                tasks.add(task)
                self._inflight.add(task)
                task.add_done_callback(tasks.discard)
                task.add_done_callback(self._inflight.discard)
        finally:
            if tasks:
                await asyncio.gather(*list(tasks), return_exceptions=True)
            self.admission.forget_connection(connection_id)
            self._connections -= 1
            _CONNECTIONS.set(self._connections)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - platform noise
                pass

    async def _respond(self, writer, write_lock, message: Dict[str, Any]) -> None:
        try:
            frame = encode_frame(message)
        except ProtocolError as exc:
            # The response itself is unencodable (e.g. an answer larger than
            # the frame cap).  The client still must hear back on this id —
            # a silent drop would hang its pipelined read loop.
            frame = encode_frame(
                error_response(message.get("id"), ERROR_SERVER_ERROR, str(exc))
            )
        async with write_lock:
            writer.write(frame)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                # Peer went away before reading its answer; the query was
                # still served (and cached) — nothing else to unwind.
                pass

    async def _handle_message(self, message, connection_id, writer, write_lock) -> None:
        message_id = message.get("id")
        kind = message.get("kind")
        if kind == "query":
            await self._handle_query(message_id, message, connection_id, writer, write_lock)
        elif kind == "admin":
            await self._handle_admin(message_id, message, writer, write_lock)
        else:
            await self._respond(
                writer,
                write_lock,
                error_response(
                    message_id, ERROR_BAD_REQUEST, f"unknown message kind {kind!r}"
                ),
            )

    async def _handle_query(
        self, message_id, message, connection_id, writer, write_lock
    ) -> None:
        if self._closing:
            _REQ_SHUTTING_DOWN.inc()
            await self._respond(
                writer,
                write_lock,
                error_response(
                    message_id, ERROR_SHUTTING_DOWN, "server is draining; retry elsewhere"
                ),
            )
            return
        arrival = time.perf_counter()
        # Distributed trace join: a sampled propagated context forces a trace
        # (head sampling wins) sharing the client's trace id; no context
        # falls back to this server's own sample rate.  Sampling before
        # admission lets the waterfall's depth-0 "admission" span cover
        # everything between frame receipt and queue entry.
        trace = self.tracer.sample(
            {"connection": connection_id},
            context=TraceContext.parse(message.get("trace")),
        )
        # Resilience fields ride next to the query payload: a relative
        # latency budget (converted to an absolute monotonic deadline at
        # receipt) and an opaque idempotency key for retried/hedged sends.
        deadline: Optional[Deadline] = None
        raw_deadline = message.get("deadline_ms")
        if raw_deadline is not None:
            try:
                deadline = Deadline.after_ms(raw_deadline)
            except (ServiceError, TypeError, ValueError):
                _REQ_BAD_REQUEST.inc()
                await self._respond(
                    writer,
                    write_lock,
                    error_response(
                        message_id,
                        ERROR_BAD_REQUEST,
                        f"invalid deadline_ms {raw_deadline!r}",
                    ),
                )
                return
        request_key = message.get("request_key")
        if request_key is not None:
            cached = self.idempotency.get(str(request_key))
            if cached is not None:
                # A duplicate of an already-answered request (client retry
                # or hedge): answer bit-identically without re-scoring.  The
                # "cached" marker lets the client tag this attempt's span as
                # an idempotency-cache hit.
                _REQ_ANSWERED.inc()
                if trace is not None:
                    trace.add("idempotency_hit", time.perf_counter() - arrival, depth=0)
                    trace.detail.update(
                        {"request_key": str(request_key), "model_version": self._model_version()}
                    )
                    trace.finish()
                await self._respond(
                    writer,
                    write_lock,
                    {"id": message_id, "kind": "answer", "answer": cached, "cached": True},
                )
                return
        if self.admission.deadline_expired_on_arrival(deadline):
            _REQ_DEADLINE.inc()
            await self._respond(
                writer,
                write_lock,
                error_response(
                    message_id,
                    ERROR_DEADLINE_EXCEEDED,
                    "deadline expired before admission; query refused unscored",
                ),
            )
            return
        if not self.admission.try_admit(connection_id):
            _REQ_REJECTED.inc()
            await self._respond(
                writer,
                write_lock,
                error_response(
                    message_id,
                    ERROR_OVERLOADED,
                    f"admission rejected the query "
                    f"(pending={self.admission.pending}/{self.admission.max_pending})",
                ),
            )
            return
        start = time.perf_counter()
        # Sampled stage waterfall: the depth-0 spans recorded here
        # (admission, decode, batcher, serialize) partition the end-to-end
        # latency; everything below them is grafted in by the micro-batcher.
        if trace is not None:
            trace.add("admission", start - arrival, depth=0)
        try:
            query: SimilarityQuery = decode_query(message.get("query"))
            # Refused here, per query, before it waits for a batch; _run_batch
            # checks again against the engine that scores the flush.
            if query.tau_hat > self._engine.max_tau:
                raise _tau_error(query, self._engine)
            if trace is not None:
                trace.add("decode", time.perf_counter() - start, depth=0)
            batcher_started = time.perf_counter()
            swaps_before = self._reloads
            answer = await self.batcher.submit(query, trace, deadline)
            if trace is not None:
                trace.add("batcher", time.perf_counter() - batcher_started, depth=0)
        except DeadlineExceededError as exc:
            _REQ_DEADLINE.inc()
            await self._respond(
                writer,
                write_lock,
                error_response(message_id, ERROR_DEADLINE_EXCEEDED, str(exc)),
            )
            return
        except (ProtocolError, QueryError, KeyError, TypeError) as exc:
            _REQ_BAD_REQUEST.inc()
            await self._respond(
                writer, write_lock, error_response(message_id, ERROR_BAD_REQUEST, str(exc))
            )
            return
        except ServiceError as exc:
            if self._closing:
                code = ERROR_SHUTTING_DOWN
                _REQ_SHUTTING_DOWN.inc()
            else:
                code = ERROR_SERVER_ERROR
                _REQ_ERROR.inc()
            await self._respond(
                writer, write_lock, error_response(message_id, code, str(exc))
            )
            return
        except Exception as exc:  # engine/scoring failure — keep serving
            _REQ_ERROR.inc()
            await self._respond(
                writer, write_lock, error_response(message_id, ERROR_SERVER_ERROR, str(exc))
            )
            return
        finally:
            self.admission.release(connection_id)
        serialize_started = time.perf_counter()
        encoded = encode_answer(answer)
        if request_key is not None and self._reloads == swaps_before:
            self.idempotency.put(str(request_key), encoded)
        payload = {"id": message_id, "kind": "answer", "answer": encoded}
        latency = time.perf_counter() - start
        self.queries_answered += 1
        self.latencies.append(latency)
        _REQ_ANSWERED.inc()
        # Exemplar: a sampled query's trace id rides on its latency bucket,
        # linking a bad bucket straight to a concrete waterfall.
        _REQUEST_SECONDS.observe(
            latency, trace_id=None if trace is None else trace.trace_id
        )
        detail = {
            "connection": connection_id,
            "tau_hat": query.tau_hat,
            "gamma": query.gamma,
            "top_k": query.top_k,
            # Stamped per entry (not per ring): the tracer ring and slow log
            # survive hot swaps, so old entries must say which model served
            # them (regression: post-reload scrapes implied the new version).
            "model_version": self._model_version(),
        }
        if trace is not None:
            trace.add("serialize", latency - (serialize_started - start), depth=0)
            trace.detail.update(detail)
            trace.finish(latency + (start - arrival))
        if self.slow_log.record(latency, detail, trace):
            self.slow_query_logger.warning(
                "slow_query",
                trace_id=None if trace is None else trace.trace_id,
                latency_ms=latency * 1e3,
                connection=connection_id,
                model_version=detail["model_version"],
            )
        await self._respond(writer, write_lock, payload)

    def _model_version(self):
        """The serving engine's model version, or None before start()."""
        engine = self._engine
        return None if engine is None else engine.model_version

    async def _handle_admin(self, message_id, message, writer, write_lock) -> None:
        command = message.get("command")
        try:
            if command == "ping":
                result: Dict[str, Any] = {"pong": True, "closing": self._closing}
            elif command in ("stats", "metrics"):
                result = self.metrics()
            elif command == "slow":
                result = self.slow_log.as_dict()
            elif command == "traces":
                result = {
                    "tracer": self.tracer.as_dict(),
                    "recent": self.tracer.recent_traces(_admin_limit(message, 16)),
                }
            elif command == "prometheus":
                result = {
                    "content_type": PROMETHEUS_CONTENT_TYPE,
                    "text": prometheus_text(),
                }
            elif command == "logs":
                filters = {
                    key: str(message[key])
                    for key in ("logger", "level", "trace_id")
                    if message.get(key) is not None
                }
                result = get_event_log().as_dict(limit=_admin_limit(message, 64), **filters)
            elif command == "slo":
                result = self.slo.evaluate()
            elif command == "profile":
                result = self._profile_admin(str(message.get("action", "status")))
            elif command == "reload":
                result = await self.reload_engine(message.get("path"))
            else:
                await self._respond(
                    writer,
                    write_lock,
                    error_response(
                        message_id, ERROR_BAD_REQUEST, f"unknown admin command {command!r}"
                    ),
                )
                return
        except ProtocolError as exc:
            # A malformed argument (a limit that is no count, an unknown
            # profile action) is the caller's mistake, not the server's.
            await self._respond(
                writer, write_lock, error_response(message_id, ERROR_BAD_REQUEST, str(exc))
            )
            return
        except (ReproError, OSError, KeyError, TypeError, ValueError) as exc:
            # Same breadth as the SIGHUP path: a snapshot that passes the
            # header checks can still blow up while its body is rebuilt
            # (KeyError/ValueError from a malformed payload) — the admin
            # client must get its SERVER_ERROR frame, never a hang.
            await self._respond(
                writer, write_lock, error_response(message_id, ERROR_SERVER_ERROR, str(exc))
            )
            return
        await self._respond(
            writer, write_lock, {"id": message_id, "kind": "admin", "result": result}
        )

    def _profile_admin(self, action: str) -> Dict[str, Any]:
        """The ``profile`` admin command: start/stop/status/dump/reset."""
        profiler = self.profiler
        if action == "start":
            started = profiler.start()
            if started:
                self.log.info("profiler_started", interval_ms=profiler.interval * 1e3)
            return {"started": started, **profiler.as_dict()}
        if action == "stop":
            stopped = profiler.stop()
            if stopped:
                self.log.info("profiler_stopped", samples=profiler.samples)
            return {"stopped": stopped, **profiler.as_dict()}
        if action == "dump":
            return {"collapsed": profiler.collapsed(), **profiler.as_dict()}
        if action == "reset":
            profiler.reset()
            return profiler.as_dict()
        if action == "status":
            return profiler.as_dict()
        raise ProtocolError(
            f"unknown profile action {action!r} "
            "(expected start/stop/status/dump/reset)"
        )

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def metrics(self) -> Dict[str, Any]:
        """One JSON document of everything an operator scrapes.

        ``serving`` carries the query count, the latency percentiles
        (nearest rank) and mean over the recent-latency window, the
        batcher's flush count, and the engine's cache and prune counters
        (cache figures 0 when the engine has no cache); ``engine`` the
        hot-swappable engine's identity; ``batcher`` the coalescing
        occupancy; ``admission`` the load-shedding counters;
        ``observability`` the tracer/slow-log summaries.

        This is a **pure read**: every figure is read from the counter that
        owns it, so scraping at any frequency never perturbs the numbers
        being reported.  Uptime is on the monotonic clock: a wall-clock
        step never makes it negative.
        """
        engine = self.engine
        uptime = time.monotonic() - self._started_at if self._started_at else 0.0
        recent = list(self.latencies)
        window = sorted(recent)
        cache_stats = None if engine.cache is None else engine.cache.stats()
        hits = int(cache_stats["hits"]) if cache_stats is not None else 0
        misses = int(cache_stats["misses"]) if cache_stats is not None else 0
        prune = engine.prune_counters
        generated = int(prune["candidates_generated"])
        pruned = int(prune["candidates_pruned"])
        serving = {
            "num_queries": self.queries_answered,
            "num_batches": self.batcher.batches_flushed,
            "elapsed_seconds": uptime,
            "queries_per_second": self.queries_answered / uptime if uptime > 0 else 0.0,
            "mean_latency": sum(recent) / len(recent) if recent else 0.0,
            "p50_latency": _nearest_rank(window, 50.0),
            "p95_latency": _nearest_rank(window, 95.0),
            "p99_latency": _nearest_rank(window, 99.0),
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "candidates_generated": generated,
            "candidates_pruned": pruned,
            "candidates_verified": int(prune["candidates_verified"]),
            "prune_rate": pruned / generated if generated > 0 else 0.0,
            "latency_samples": len(window),
            "latency_window": self.latencies.maxlen,
        }
        return {
            "server": {
                "uptime_seconds": uptime,
                "connections": self._connections,
                "inflight_requests": len(self._inflight),
                "closing": self._closing,
                "reload_count": self._reloads,
                "reload_failures": self._reload_failures,
            },
            "resilience": {
                "idempotency": self.idempotency.as_dict(),
                "deadline_dropped_admission": self.admission.deadline_expired,
                "deadline_dropped_batcher": self.batcher.deadline_dropped,
            },
            "serving": serving,
            "engine": {
                "model_version": engine.model_version,
                "database_size": len(engine.database),
                "database_revision": engine.database.revision,
                "max_tau": engine.max_tau,
                "kernel_backend": engine.active_kernel_backend,
                "prune_counters": prune,
                "cache": cache_stats,
            },
            "batcher": self.batcher.as_dict(),
            "admission": self.admission.as_dict(),
            "build": _repro_build_info(),
            "observability": {
                "tracer": self.tracer.as_dict(),
                "slow_queries": {
                    "threshold_ms": self.slow_log.threshold_ms,
                    "total_slow": self.slow_log.total_slow,
                },
                "slo": {
                    objective["name"]: {
                        "state": objective["state"],
                        "burn_rates": objective["burn_rates"],
                    }
                    for objective in self.slo.evaluate()["objectives"]
                },
                "logs": {
                    "total_events": get_event_log().total_events,
                    "total_dropped": get_event_log().total_dropped,
                },
                "profiler": {
                    "running": self.profiler.running,
                    "samples": self.profiler.samples,
                },
            },
        }

    async def _handle_metrics_http(self, reader, writer) -> None:
        """Minimal plain-HTTP ``/metrics`` endpoint (Prometheus text).

        One request per connection, ``Connection: close`` — exactly what a
        scraper needs, with no HTTP framework dependency.  Anything other
        than ``GET /metrics`` (or ``/``) gets a 404.
        """
        try:
            request_line = await reader.readline()
            while True:  # drain the request headers up to the blank line
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1].split("?")[0] if len(parts) >= 2 else ""
            if path in ("/metrics", "/"):
                body = prometheus_text().encode("utf-8")
                status, content_type = "200 OK", PROMETHEUS_CONTENT_TYPE
            else:
                body = b"not found\n"
                status, content_type = "404 Not Found", "text/plain; charset=utf-8"
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n"
                    "\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - peer reset
            pass
        finally:
            writer.close()

    def __repr__(self) -> str:
        state = "closing" if self._closing else ("up" if self._server else "idle")
        return (
            f"<SimilarityService {state} served={self.queries_answered} "
            f"batches={self.batcher.batches_flushed} reloads={self._reloads}>"
        )


# ---------------------------------------------------------------------- #
# threaded harness
# ---------------------------------------------------------------------- #
class ServiceHandle:
    """Handle on a service running on its own thread (see :func:`start_service_thread`)."""

    def __init__(self, service: SimilarityService, loop, thread: threading.Thread, port: int):
        self.service = service
        self._loop = loop
        self._thread = thread
        self.host = service.host
        self.port = port

    @property
    def address(self):
        """``(host, port)`` tuple for a :class:`~repro.service.client.ServiceClient`."""
        return (self.host, self.port)

    def call(self, coroutine, timeout: float = 30.0):
        """Run a coroutine on the service loop and return its result."""
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout)

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully stop the service and join its thread (idempotent)."""
        if self._thread.is_alive():
            try:
                self.call(self.service.stop(), timeout)
            except RuntimeError:  # loop already gone
                pass
        self._thread.join(timeout)

    def kill(self, timeout: float = 30.0) -> None:
        """Abrupt, *non-graceful* stop: simulate a service crash.

        Stops the event loop from outside without draining — in-flight
        queries are abandoned and every connection resets, exactly what
        clients observe when a serving process dies.  Built for the
        fault-injection harness (:mod:`repro.testing.faults`); production
        shutdown is :meth:`stop`.
        """

        def _crash() -> None:
            # A real crash closes every fd: abort client transports (no
            # flush — peers see a reset, not a clean EOF) and close the
            # listening socket so the port is immediately rebindable.
            service = self.service
            for writer in list(service._writers):
                transport = getattr(writer, "transport", None)
                if transport is not None:
                    try:
                        transport.abort()
                    except Exception:
                        pass
            for server in (service._server, service._metrics_server):
                if server is not None:
                    try:
                        server.close()
                    except Exception:
                        pass
            self._loop.stop()

        if self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(_crash)
            except RuntimeError:  # loop already gone
                pass
        self._thread.join(timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_service_thread(
    engine: Optional[BatchQueryEngine] = None, *, timeout: float = 30.0, **kwargs
) -> ServiceHandle:
    """Run a :class:`SimilarityService` on a dedicated daemon thread.

    Builds the service with ``kwargs``, starts it inside a fresh event loop
    on a new thread, and returns once the listening socket is bound.  The
    returned :class:`ServiceHandle` is a context manager whose ``stop()``
    performs the graceful drain.
    """
    service = SimilarityService(engine, **kwargs)
    started = threading.Event()
    holder: Dict[str, Any] = {}

    async def _main() -> None:
        try:
            await service.start()
            holder["port"] = service.port
            holder["loop"] = asyncio.get_running_loop()
        except BaseException as exc:  # surface bind/load failures to the caller
            holder["error"] = exc
            started.set()
            raise
        started.set()
        await service.serve_forever()

    def _runner() -> None:
        try:
            asyncio.run(_main())
        except Exception:
            if not started.is_set():  # pragma: no cover - defensive
                started.set()

    thread = threading.Thread(target=_runner, name="repro-service", daemon=True)
    thread.start()
    if not started.wait(timeout):
        raise ServiceError("service failed to start within the timeout")
    if "error" in holder:
        raise ServiceError(f"service failed to start: {holder['error']}") from holder["error"]
    return ServiceHandle(service, holder["loop"], thread, holder["port"])
