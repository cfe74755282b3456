"""Clients of the similarity-search service: one request state machine, two drivers.

Both clients speak the wire protocol of :mod:`repro.service.protocol`
(binary query and answer frames, JSON for admin and error messages) and
*pipeline*: requests carry client-assigned ids, so many queries can be on
the wire at once — one connection can fill the server's micro-batches —
and the replies, which the server may complete out of order, batch by
batch, are matched back by id.

Everything a client *decides* lives in :class:`_Requests`, which performs
no I/O: request ids and idempotency keys, the query encoded once per
logical request and reused by every attempt and hedge, the table of sends
awaiting a reply, what a reply or a dead stream means for them, whether a
failed attempt is retried and after how long, what the circuit breaker is
told, and the trace spans.  The two public classes only move bytes:

* :class:`ServiceClient` — a blocking socket, no thread and no event loop;
  the right tool for scripts, tests and benchmark drivers.  Per round it
  writes every frame, then reads until each has its reply.
* :class:`AsyncServiceClient` — a background reader task feeds replies to
  the machine and each attempt waits on one future bounded by a timer, so
  concurrent ``await client.query(...)`` calls pipeline naturally.

Fault tolerance (primitives in :mod:`repro.service.resilience`):

* **Timeouts always.**  Connect and every wait for a reply are bounded
  (``connect_timeout`` / ``read_timeout``, default 30 s); a stalled server
  is a plain :class:`TimeoutError`, never a forever-block.
* **Deadlines.**  ``query(..., deadline_ms=...)`` ships the budget to the
  server, which refuses or sheds expired work unscored
  (``DEADLINE_EXCEEDED``).  The local wait differs per driver: the async
  client also bounds its own wait by the budget (``TimeoutError`` if that
  runs out first); the sync client waits up to ``read_timeout`` for the
  server's typed refusal.
* **Retries.**  A :class:`~repro.service.resilience.RetryPolicy` retries
  transient failures — ``OVERLOADED`` shedding, missed deadlines, timeouts,
  lost or corrupt streams — with capped, jittered exponential backoff.
  Only queries retry (idempotent reads), and every attempt reuses the
  request's ``request_key``, so the server answers duplicates from its
  idempotency cache instead of re-scoring.
* **Hedging** (async client).  With a
  :class:`~repro.service.resilience.HedgePolicy` a query still unanswered
  after the observed latency percentile gets a duplicate send; the first
  reply wins and the loser's is dropped.
* **Circuit breaking.**  A :class:`~repro.service.resilience.CircuitBreaker`
  (shareable between clients of one endpoint) hears about the transport
  only: an attempt that ends without a reply — timeout, reset, lost or
  corrupt stream, refused dial; every ``OSError`` — counts against the
  endpoint, while any reply, a typed refusal included, shows it alive.
  While open, queries fail fast with
  :class:`~repro.exceptions.CircuitOpenError`; admin commands are not
  gated, so ``ping`` still reaches an endpoint the breaker has written off.
  A half-open probe whose caller leaves before it settles (a cancelled
  task, an interrupt) is handed back, so the next query probes instead.
* **Dead connections.**  A connection that timed out mid-stream (sync),
  reset, closed or carried a corrupt frame is never written to again: the
  next request dials a fresh one — one dial however many callers wait — or
  raises :class:`~repro.exceptions.ConnectionLostError` at once when the
  client was built around caller-supplied streams and has no endpoint.  A
  reply that arrives after its request was given up on is dropped, never
  matched to a later request.

Typed errors: an error reply raises what
:func:`~repro.service.protocol.exception_for_error` maps its code to
(``OVERLOADED`` → :class:`~repro.exceptions.ServiceOverloadedError`, ...),
a dead or poisoned connection :class:`~repro.exceptions.ConnectionLostError`.

Distributed tracing: each *logical* query sampled by the client's
:class:`~repro.obs.trace.Tracer` is the **root span** of an end-to-end
trace — the context travels in the ``trace`` frame field, the server joins
it, and every retry / hedge attempt is a child span tagged with its number
and outcome (``answered``, ``idempotency-cache-hit``, ``won``,
``cancelled``, or the failure's exception name).
"""

from __future__ import annotations

import asyncio
import os
import socket
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.db.query import QueryAnswer, SimilarityQuery
from repro.exceptions import ConnectionLostError, ProtocolError, ServiceError
from repro.obs.trace import QueryTrace, Tracer
from repro.service.protocol import (
    decode_answer,
    encode_frame,
    exception_for_error,
    query_request,
    read_frame,
    recv_frame,
)
from repro.service.resilience import CircuitBreaker, HedgePolicy, RetryPolicy

__all__ = ["ServiceClient", "AsyncServiceClient"]


# ---------------------------------------------------------------------- #
# the request state machine (no I/O)
# ---------------------------------------------------------------------- #
class _Call:
    """One logical request — a query or an admin command — and its current attempt.

    An admin command has no idempotency ``key``: it is never retried,
    hedged or traced, and the breaker does not gate it.
    """

    __slots__ = (
        "message", "key", "field", "trace", "attempt", "ids", "started", "sent_at",
        "hedged_at", "result", "done", "probe", "waiter",
    )

    def __init__(self, message: Dict[str, Any], key=None, field=None, trace=None) -> None:
        self.message = message  #: handed to ``encode_frame`` with a fresh ``id`` per send
        self.key = key
        self.field = field  #: the one entry of an admin result the caller asked for
        self.trace: Optional[QueryTrace] = trace
        self.attempt = 0
        self.ids: List[int] = []  #: sends of this attempt awaiting a reply, the primary first
        self.started = self.sent_at = self.hedged_at = 0.0
        self.result: Any = None
        self.done = False
        self.probe = 0  #: the half-open probe claim this attempt holds (0: none)
        self.waiter: Any = None  #: the async driver's future for this attempt

    def value(self):
        """The answer or admin result; raises the error the last attempt ended with."""
        if isinstance(self.result, Exception):
            raise self.result
        return self.result if self.field is None else self.result[self.field]


class _Requests:
    """What a client decides, with no I/O: a driver writes the frames it is
    handed and reports what it read, what timed out and what broke.

    One attempt of a call runs ``admit`` → ``send`` → ``sent`` and ends,
    exactly once, in ``reply`` or ``fail``; ``retry_delay`` then says
    whether another follows, and ``finish`` closes the call however its
    driver was left.  The policies are those of the public constructors.
    """

    def __init__(self, retry=None, hedge=None, breaker=None, tracer=None, endpoint=None) -> None:
        self.retry: Optional[RetryPolicy] = retry
        self.hedge: Optional[HedgePolicy] = hedge
        self.breaker: Optional[CircuitBreaker] = breaker
        self.tracer: Optional[Tracer] = tracer
        self.endpoint: Optional[str] = endpoint
        #: id of every send awaiting a reply → its call
        self.pending: Dict[int, _Call] = {}
        # Globally unique per client instance, so two clients of one server
        # never collide in its idempotency cache.
        self._key_prefix = os.urandom(8).hex()
        self._next_key = 0
        self._next_id = 0

    # -- logical requests ------------------------------------------------ #
    def query(self, query: SimilarityQuery, deadline_ms: Optional[float] = None) -> _Call:
        """A new logical query: one key, one (sampled) root trace, encoded once."""
        self._next_key += 1
        key = f"{self._key_prefix}-{self._next_key}"
        trace = None
        if self.tracer is not None:
            trace = self.tracer.sample({"endpoint": self.endpoint, "request_key": key})
        message = query_request(
            None,
            query,
            deadline_ms=deadline_ms,
            request_key=key,
            trace=None if trace is None else trace.context().to_traceparent(),
        )
        return _Call(message, key, trace=trace)

    def admin(self, command: str, field: Optional[str] = None, **extra) -> _Call:
        """A new admin command (``field``: return that entry of its result only)."""
        return _Call({"kind": "admin", "command": command, **extra}, field=field)

    # -- one attempt ----------------------------------------------------- #
    def admit(self, calls: Sequence[_Call]) -> None:
        """Start the next attempt of ``calls``: a pipelined round, or one call.

        One breaker check (``CircuitOpenError`` while it refuses) covers the
        round: a half-open breaker lets one probe through, and this is it.
        """
        probe = 0
        if self.breaker is not None and calls[0].key is not None:
            probe = self.breaker.check()
        now = time.perf_counter()
        for call in calls:
            call.attempt += 1
            call.done = False
            call.probe = probe
            call.started = call.sent_at = now
            call.hedged_at = 0.0

    def send(self, call: _Call, hedge: bool = False) -> bytes:
        """Issue the next id to ``call`` and return the frame to write.

        ``hedge``: the duplicate of a slow primary — same key, so the server
        can answer it from its idempotency cache; the first reply wins.
        """
        self._next_id += 1
        call.message["id"] = self._next_id
        # Encoded before it is registered: a message that cannot be framed
        # raises here and leaves nothing waiting for a reply.
        frame = encode_frame(call.message)
        if hedge:
            self.hedge.record_sent()
            call.hedged_at = time.perf_counter()
        call.ids.append(self._next_id)
        self.pending[self._next_id] = call
        return frame

    def sent(self, call: _Call) -> None:
        """The primary frame of this attempt has been written."""
        trace, call.sent_at = call.trace, time.perf_counter()
        if trace is not None and call.attempt == 1:
            trace.add("send", call.sent_at - call.started, offset=call.started - trace.started_at)

    def reply(self, message: Dict[str, Any]) -> List[_Call]:
        """Match one reply frame to its send; returns the call it completed, if any.

        A reply to an id the client gave up on (a timed-out attempt, a
        hedge's loser) is dropped; one to an id it never issued means the
        stream cannot be trusted: :class:`ProtocolError`.
        """
        message_id = message.get("id")
        if type(message_id) is not int or not 0 < message_id <= self._next_id:
            raise ProtocolError(f"response for unknown request id {message_id!r}")
        call = self.pending.get(message_id)
        if call is None:
            return []
        kind = message.get("kind")
        if kind == "answer":
            result = decode_answer(message["answer"])
        elif kind == "admin":
            result = message.get("result", {})
        elif kind == "error":
            result = exception_for_error(message)
        else:
            result = ProtocolError(f"unexpected response kind {kind!r}")
        self._settle(call, result, message_id, bool(message.get("cached")))
        return [call]

    def fail(self, calls: Iterable[_Call], error: Exception) -> List[_Call]:
        """End, with no reply, the attempt of every call in ``calls`` still waiting
        (returned).  Anything but a timeout, a corrupt frame included, surfaces
        as a (retryable) :class:`ConnectionLostError`."""
        if not isinstance(error, (TimeoutError, ConnectionLostError)):
            error = ConnectionLostError(f"service connection lost: {error}")
        failed = [call for call in calls if not call.done]
        for call in failed:
            self._settle(call, error)
        return failed

    def stream_failed(self, error: Exception) -> List[_Call]:
        """The connection died: every pending send is lost, once, and the table is empty."""
        return self.fail(list(dict.fromkeys(self.pending.values())), error)

    def _settle(self, call: _Call, result, reply_id: Optional[int] = None, cached=False) -> None:
        """The one place an attempt ends: table, breaker, hedge counters, spans."""
        now = time.perf_counter()
        hedge_won = reply_id is not None and reply_id != call.ids[0]
        self._forget(call)
        call.result, call.done = result, True
        failed = isinstance(result, Exception)
        if self.breaker is not None:
            # Only the transport counts against the endpoint: a reply, a
            # typed refusal included, shows it alive.
            if isinstance(result, OSError):
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
        if self.hedge is not None and not failed:
            self.hedge.observe(now - call.started)
        if call.hedged_at and reply_id is not None:
            if hedge_won:
                self.hedge.record_won()
            else:
                self.hedge.record_cancelled()
        trace = call.trace
        if trace is None:
            return
        if failed:
            outcome = type(result).__name__
        else:
            outcome = "idempotency-cache-hit" if cached else "answered"
        # The send whose reply ended the attempt carries the outcome and the
        # other one is "cancelled"; with no reply both failed alike.
        primary = duplicate = outcome
        if hedge_won:
            primary, duplicate = "cancelled", "won" if outcome == "answered" else outcome
        elif reply_id is not None:
            duplicate = "cancelled"
        spans = [("attempt", call.started, primary)]
        if call.hedged_at:
            spans.append(("hedge", call.hedged_at, duplicate))
        for name, began, tag in spans:
            trace.add(
                name,
                now - began,
                depth=1,
                offset=began - trace.started_at,
                tags={"attempt": call.attempt, "outcome": tag},
            )
        if not failed:
            trace.add("reply", now - call.sent_at, offset=call.sent_at - trace.started_at)

    def _forget(self, call: _Call) -> None:
        """Replies still owed to ``call`` will be dropped."""
        for send_id in call.ids:
            self.pending.pop(send_id, None)
        del call.ids[:]

    # -- between and after attempts ------------------------------------- #
    def retry_delay(self, call: _Call) -> Optional[float]:
        """Seconds to back off before another attempt; ``None``: the result stands."""
        retry, error = self.retry, call.result
        if retry is None or call.key is None or not isinstance(error, Exception):
            return None  # nothing that could be retried
        if call.attempt >= retry.max_attempts or not retry.is_retryable(error):
            return None  # the policy says no
        retry.record_retry(error)
        return retry.delay_for(call.attempt)

    def finish(self, call: _Call) -> None:
        """The caller is done with ``call``, however its driver was left: one
        root trace per logical query, whatever the attempts — never an orphan —
        and a breaker probe that was abandoned (cancelled, interrupted) before it
        settled is handed back, or every later query would fail fast for good."""
        self._forget(call)
        if call.probe and not call.done:
            self.breaker.release_probe(call.probe)
        if call.trace is not None:
            call.trace.detail["attempts"] = call.attempt
            call.trace.finish()


class _AdminCommands:
    """The admin commands, once for both drivers: ``_admin`` returns the
    result on the sync client and an awaitable of it on the async one."""

    def ping(self):
        """Liveness probe."""
        return self._admin("ping")

    def stats(self):
        """Scrape the metrics endpoint (serving/engine/batcher/admission)."""
        return self._admin("stats")

    def slow(self):
        """Fetch the slow-query log (threshold, totals, entries + waterfalls)."""
        return self._admin("slow")

    def traces(self, limit: int = 16):
        """Fetch the tracer summary and the most recent sampled waterfalls."""
        return self._admin("traces", limit=int(limit))

    def prometheus(self):
        """Fetch the Prometheus text exposition of the server's metrics registry."""
        return self._admin("prometheus", "text")

    def logs(self, limit: int = 64, **filters: str):
        """Fetch the structured event log (filters: logger=, level=, trace_id=)."""
        return self._admin("logs", limit=int(limit), **filters)

    def slo(self):
        """Evaluate the server's SLOs: burn rates and ok/warn/page states."""
        return self._admin("slo")

    def profile(self, action: str = "status"):
        """Drive the server's sampling profiler (start/stop/dump/reset/status)."""
        return self._admin("profile", action=str(action))

    def reload(self, path=None):
        """Hot-swap the server's engine from a snapshot (its default path if None).

        Never retried: reload mutates server state and is not idempotent
        from the client's point of view.
        """
        return self._admin("reload", **({} if path is None else {"path": str(path)}))


# ---------------------------------------------------------------------- #
# the blocking-socket driver
# ---------------------------------------------------------------------- #
class ServiceClient(_AdminCommands):
    """Blocking-socket client with pipelined requests and optional retries.

    Parameters
    ----------
    host, port:
        The service address (``ServiceHandle.address`` unpacks into both).
    connect_timeout:
        Seconds allowed for the TCP connect (a blackholed server fails fast).
    read_timeout:
        Seconds allowed for each frame read; a stalled server surfaces as
        a ``TimeoutError`` (retryable) instead of a forever-block.
    retry:
        Optional :class:`RetryPolicy` applied to queries (idempotent
        reads): transient failures resend the unanswered ones with their
        original ``request_key``, on a fresh connection when the old died.
    breaker:
        Optional :class:`CircuitBreaker` for this endpoint.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`: queries it samples
        become client-side root traces, propagated to the server, with
        every retry attempt a tagged child span.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        connect_timeout: float = 30.0,
        read_timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        tracer: Optional[Tracer] = None,
    ):
        self._address = (host, port)
        self.connect_timeout = float(connect_timeout)
        self.read_timeout = float(read_timeout)
        self._requests = _Requests(retry, None, breaker, tracer, f"{host}:{port}")
        self._closed = False
        self._lost = False
        self._sock = self._connect()

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self._address, timeout=self.connect_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # ``create_connection``'s timeout sticks to the socket; pin the
        # steady-state one explicitly so every frame read is bounded.
        sock.settimeout(self.read_timeout)
        return sock

    def _reconnect(self) -> None:
        """Replace the connection (it timed out, reset, or carried a corrupt frame)."""
        self._lost = True  # until the dial succeeds
        try:
            self._sock.close()
        except OSError:
            pass
        self._sock = self._connect()
        self._lost = False

    def _round(self, calls: List[_Call]) -> None:
        """One pipelined pass: write every frame, then read until each has its reply."""
        requests = self._requests
        frames = [requests.send(call) for call in calls]  # unframeable: raises as it is
        try:
            if self._lost:
                self._reconnect()
            for call, frame in zip(calls, frames):
                self._sock.sendall(frame)
                requests.sent(call)
            while requests.pending:
                message = recv_frame(self._sock)
                if message is None:
                    raise ConnectionLostError("server closed the connection")
                requests.reply(message)
            return
        except socket.timeout as exc:  # the builtin ``TimeoutError`` only from 3.10 on
            error: Exception = TimeoutError(str(exc))
        except (OSError, ProtocolError) as exc:
            error = exc
        # Replies can no longer be matched on this stream, and late ones may
        # still be in it: it is never written to again.
        self._lost = True
        requests.fail(calls, error)

    def _run(self, calls: List[_Call]) -> List[_Call]:
        """Rounds over ``calls`` until every result stands (the machine decides)."""
        requests, outstanding = self._requests, calls
        try:
            while outstanding:
                if self._closed:
                    raise ServiceError("client is closed")
                requests.admit(outstanding)
                self._round(outstanding)
                backoff, again = 0.0, []
                for call in outstanding:
                    delay = requests.retry_delay(call)
                    if delay is not None:
                        again.append(call)
                        backoff = max(backoff, delay)
                if again:
                    time.sleep(backoff)
                outstanding = again
        finally:
            for call in calls:
                requests.finish(call)
        return calls

    def _admin(self, command: str, field: Optional[str] = None, **extra):
        return self._run([self._requests.admin(command, field, **extra)])[0].value()

    def query(
        self, query: SimilarityQuery, *, deadline_ms: Optional[float] = None
    ) -> QueryAnswer:
        """Answer one query (raises the typed error on rejection)."""
        return self._run([self._requests.query(query, deadline_ms)])[0].value()

    def query_many(
        self,
        queries: Iterable[SimilarityQuery],
        *,
        return_errors: bool = False,
        deadline_ms: Optional[float] = None,
    ) -> List[Union[QueryAnswer, ServiceError]]:
        """Answer a stream of queries, pipelined, in input order.

        All requests are written before the first response is read, so the
        server sees them concurrently and can micro-batch them.  With
        ``return_errors=True`` per-query failures (e.g. ``OVERLOADED``)
        come back as exception objects in their slots; otherwise the first
        failure is raised after every response has been drained (the
        connection stays usable).

        A :class:`RetryPolicy` retries transient failures: typed errors
        (``OVERLOADED``, a missed deadline) back off and resend just the
        failed slots, a poisoned stream (timeout, reset, corrupt frame)
        resends what was still unanswered on a fresh connection.  Each slot
        keeps its ``request_key``, so the server never re-scores a query it
        already answered.
        """
        calls = self._run([self._requests.query(query, deadline_ms) for query in queries])
        results = [call.result for call in calls]
        if not return_errors:
            for result in results:
                if isinstance(result, Exception):
                    raise result
        return results

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# the asyncio driver
# ---------------------------------------------------------------------- #
async def _open(host, port, timeout: float):
    """Dial within ``timeout`` seconds.  Before Python 3.11 a dial that times
    out is not the builtin ``TimeoutError`` retry policies and callers expect."""
    try:
        return await asyncio.wait_for(asyncio.open_connection(host, port), timeout)
    except asyncio.TimeoutError:
        raise TimeoutError(f"no connection within {timeout:.3f}s") from None


class AsyncServiceClient(_AdminCommands):
    """Asyncio client: concurrent ``query`` awaits pipeline on one connection.

    Build with :meth:`connect`; a background reader task hands replies to
    the request machine, so any number of coroutines can have queries in
    flight simultaneously — exactly the traffic shape the server's
    micro-batcher coalesces.

    Every wait for a reply is bounded by ``read_timeout`` (or the query's
    ``deadline_ms``, whichever is tighter); ``retry``, ``hedge``,
    ``breaker`` and ``tracer`` are the policies of the module docstring.
    A dead connection is re-dialled by the next request when the client
    was built by :meth:`connect`; built from bare streams it has no
    endpoint and raises :class:`~repro.exceptions.ConnectionLostError`.
    """

    def __init__(
        self,
        reader,
        writer,
        *,
        read_timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        hedge: Optional[HedgePolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.read_timeout = float(read_timeout)
        self._requests = _Requests(retry, hedge, breaker, tracer)
        self._dial: Optional[tuple] = None  #: ``connect``'s (host, port, connect_timeout)
        self._closed = False
        self._dialling = asyncio.Lock()
        self._attach(reader, writer)

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        connect_timeout: float = 30.0,
        read_timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        hedge: Optional[HedgePolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        tracer: Optional[Tracer] = None,
    ) -> "AsyncServiceClient":
        reader, writer = await _open(host, port, connect_timeout)
        client = cls(
            reader,
            writer,
            read_timeout=read_timeout,
            retry=retry,
            hedge=hedge,
            breaker=breaker,
            tracer=tracer,
        )
        client._dial = (host, port, float(connect_timeout))  # to replace a dead connection
        client._requests.endpoint = f"{host}:{port}"
        return client

    def _attach(self, reader, writer) -> None:
        self._writer = writer
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop(reader))

    async def _read_loop(self, reader) -> None:
        requests = self._requests
        error: Exception = ConnectionLostError("server closed the connection")
        try:
            while True:
                message = await read_frame(reader)
                if message is None:
                    break
                self._wake(requests.reply(message))
        except Exception as exc:  # connection torn down mid-frame, corrupt frame
            error = exc
        finally:
            # Whatever killed the read loop, the connection is unusable:
            # surface it as a (retryable) connection loss to every waiter.
            self._wake(requests.stream_failed(error))

    @staticmethod
    def _wake(calls: List[_Call]) -> None:
        for call in calls:
            if not call.waiter.done():
                call.waiter.set_result(None)

    @property
    def connection_lost(self) -> bool:
        """True when the background reader has exited (connection unusable)."""
        return self._reader_task.done()

    async def _redial(self) -> None:
        """Replace a dead connection: one dial, however many callers wait."""
        async with self._dialling:
            if not self.connection_lost:
                return  # a caller ahead of this one dialled
            if self._dial is None:
                raise ConnectionLostError("service connection lost (no endpoint to re-dial)")
            self._writer.close()
            self._attach(*await _open(*self._dial))

    def _timed_out(self, call: _Call, wait: float) -> None:
        self._wake(self._requests.fail([call], TimeoutError(f"no response within {wait:.3f}s")))

    def _hedge(self, call: _Call) -> None:
        if not call.done and not self.connection_lost:
            # Not drained: a timer callback cannot wait, and one duplicate
            # per slow attempt is bounded by the attempts themselves.
            self._writer.write(self._requests.send(call, hedge=True))

    async def _run(self, call: _Call, wait: float):
        """Attempts of ``call`` until its result stands (the machine decides); each
        waits on one future, shared by the primary send and its hedge duplicate:
        one timer bounds the wait, a second sends the hedge."""
        requests, loop = self._requests, asyncio.get_running_loop()
        timers: list = []
        try:
            while True:
                if self._closed:
                    raise ServiceError("client is closed")
                requests.admit([call])
                try:
                    if self.connection_lost:
                        await self._redial()
                    call.waiter = loop.create_future()
                    self._writer.write(requests.send(call))
                    timers.append(loop.call_later(wait, self._timed_out, call, wait))
                    if requests.hedge is not None and call.key is not None:
                        after = min(requests.hedge.hedge_delay(), wait)
                        timers.append(loop.call_later(after, self._hedge, call))
                    await self._writer.drain()
                    requests.sent(call)
                    await call.waiter
                except OSError as exc:  # the dial failed, or the transport died under the write
                    requests.fail([call], exc)
                finally:
                    while timers:
                        timers.pop().cancel()
                delay = requests.retry_delay(call)
                if delay is None:
                    return call.value()
                await asyncio.sleep(delay)
        finally:
            requests.finish(call)

    def _admin(self, command: str, field: Optional[str] = None, **extra):
        return self._run(self._requests.admin(command, field, **extra), self.read_timeout)

    async def query(
        self, query: SimilarityQuery, *, deadline_ms: Optional[float] = None
    ) -> QueryAnswer:
        """Answer one query (concurrent callers share the connection): per
        attempt circuit breaker → hedging, between attempts the retry policy;
        traced, it is one root span with a tagged child per attempt and hedge."""
        wait = self.read_timeout
        if deadline_ms is not None:
            wait = min(wait, float(deadline_ms) / 1000.0)
        return await self._run(self._requests.query(query, deadline_ms), wait)

    async def query_many(
        self,
        queries: Iterable[SimilarityQuery],
        *,
        return_errors: bool = False,
        deadline_ms: Optional[float] = None,
    ) -> List[Union[QueryAnswer, ServiceError]]:
        """Pipeline a stream of queries; answers return in input order."""
        results = await asyncio.gather(
            *(self.query(query, deadline_ms=deadline_ms) for query in queries),
            return_exceptions=True,
        )
        if not return_errors:
            for result in results:
                if isinstance(result, BaseException):
                    raise result
        return list(results)

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await asyncio.gather(self._reader_task, return_exceptions=True)

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
