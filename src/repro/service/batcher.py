"""Dynamic micro-batching: coalesce concurrent queries into one batch call.

One :meth:`~repro.serving.engine.BatchQueryEngine.query_batch` call per
flush means one thread hand-over (the server offloads scoring to a thread),
one cache-probe pass (a repeated query is scored once), one store call for
every row of the flush and one trace for everything that arrived together,
where a server naively answering each request as it arrives pays each of
them per request.
:class:`MicroBatcher` gets that without making anybody wait on a clock: it
is *work-conserving*.

The rule: a single worker task takes the first waiting query, drains
whatever else is queued, and while the batch is not full (``max_batch``)
yields to the event loop one turn at a time for as long as each turn
delivers company.  One turn is what a request whose frame has been read
needs to reach :meth:`MicroBatcher.submit` (its handler task is already
scheduled), so requests that arrived together — a pipelined burst, the
replies-then-requests lockstep of a closed loop — ride in one batch.  The
worker flushes on the first turn that delivers nothing, or at
``max_batch``.  No timer is ever armed: a lone query is scored two loop
turns after it was submitted, and since every lingering turn must add a
query the linger is bounded by ``max_batch`` turns — there is nothing to
tune.

What is further back than one turn (bytes still in a socket buffer) is not
waited for, and does not need to be: while a batch is executing, new
arrivals simply accumulate in the queue and form the next batch on their
own, so batch size adapts to instantaneous load.  At saturation a timer
adds nothing; below it, pure delay.

The batch runner is an ``async`` callable supplied by the server (which
offloads the numpy scoring to a thread so the event loop keeps accepting
traffic).  Because the runner resolves the engine *per flush*, an engine
hot-swap between batches is atomic: every answer comes entirely from one
engine, never from a torn mixture.

Shutdown is graceful: :meth:`stop` refuses new submissions, then the
worker drains every query already queued before exiting — in-flight
queries are answered, not dropped.

Deadlines: a submission may carry a
:class:`~repro.service.resilience.Deadline`; entries whose deadline passed
while queueing are shed at flush-assembly time — before the runner's
thread-offload — with a typed
:class:`~repro.exceptions.DeadlineExceededError`, so expired work never
costs a scoring cycle.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.db.query import QueryAnswer, SimilarityQuery
from repro.exceptions import DeadlineExceededError, ServiceError
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS, get_registry
from repro.obs.trace import QueryTrace
from repro.service.resilience import Deadline

__all__ = ["MicroBatcher"]

#: Queue sentinel marking the end of the stream (posted once by stop()).
_SHUTDOWN = object()

#: ``run_batch(queries, trace=...)``: ``trace`` is the flush's batch-level
#: :class:`QueryTrace` when a query of it was sampled, else ``None``.
BatchRunner = Callable[..., Awaitable[List[QueryAnswer]]]

_BATCH_SIZE = get_registry().histogram(
    "repro_batcher_batch_size",
    "Coalesced queries per micro-batch flush",
    buckets=DEFAULT_SIZE_BUCKETS,
)
_QUEUE_DEPTH = get_registry().gauge(
    "repro_batcher_queue_depth", "Queries waiting for the next micro-batch flush"
)
_FLUSHES = get_registry().counter(
    "repro_batcher_flushes_total", "Micro-batch flushes by trigger", ("kind",)
)
_FLUSHES_FULL = _FLUSHES.labels(kind="full")
_FLUSHES_DRAINED = _FLUSHES.labels(kind="drained")
_DEADLINE_DROPPED_BATCHER = get_registry().counter(
    "repro_deadline_drops_total",
    "Queries dropped because their deadline expired, by pipeline stage",
    ("stage",),
).labels(stage="batcher")


class MicroBatcher:
    """Coalesce concurrently-submitted queries into batched engine calls.

    Parameters
    ----------
    run_batch:
        Async callable scoring one list of queries into the same-length,
        same-order list of answers (typically an executor offload of
        ``engine.query_batch``), called as ``run_batch(queries,
        trace=batch_trace)`` — the flush's batch-level trace, or ``None``.
        An exception in place of an answer fails that query alone; one
        raised fails the whole flush.
    max_batch:
        Flush as soon as this many queries are waiting (>= 1).  A smaller
        batch is flushed on the first event-loop turn that adds no query
        to it (see the module docstring); there is no delay to configure.
    """

    def __init__(self, run_batch: BatchRunner, *, max_batch: int = 32) -> None:
        if max_batch < 1:
            raise ServiceError("max_batch must be a positive integer")
        self._run_batch = run_batch
        self.max_batch = int(max_batch)
        self._queue: "asyncio.Queue" = asyncio.Queue()
        self._worker: "asyncio.Task | None" = None
        self._closed = False
        # Occupancy / coalescing counters for the metrics endpoint.
        self.batches_flushed = 0
        self.queries_batched = 0
        self.full_flushes = 0
        self.largest_batch = 0
        self.deadline_dropped = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Spawn the worker task (idempotent; requires a running loop)."""
        if self._worker is None:
            self._worker = asyncio.get_running_loop().create_task(self._work())

    async def stop(self) -> None:
        """Refuse new queries, drain everything queued, and stop the worker."""
        if self._closed:
            if self._worker is not None:
                await self._worker
            return
        self._closed = True
        self._queue.put_nowait(_SHUTDOWN)
        if self._worker is not None:
            await self._worker

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        query: SimilarityQuery,
        trace: Optional[QueryTrace] = None,
        deadline: Optional[Deadline] = None,
    ) -> "asyncio.Future[QueryAnswer]":
        """Enqueue one query; the returned future resolves to its answer.

        Must be called from the event loop.  Raises
        :class:`~repro.exceptions.ServiceError` once :meth:`stop` began —
        the server maps that to a typed ``SHUTTING_DOWN`` response.

        ``trace`` optionally attaches a sampled :class:`QueryTrace`: the
        flush records the query's queue wait and scoring time into it and
        grafts the batch-level engine waterfall below them.

        ``deadline`` optionally bounds the query's time in the queue: an
        entry whose deadline has passed when its batch is assembled is
        dropped with :class:`~repro.exceptions.DeadlineExceededError`
        instead of being scored (see :meth:`_flush`).
        """
        if self._closed:
            raise ServiceError("micro-batcher is shutting down; query not accepted")
        if self._worker is None:
            raise ServiceError("micro-batcher is not started")
        future: "asyncio.Future[QueryAnswer]" = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((query, future, trace, time.perf_counter(), deadline))
        _QUEUE_DEPTH.set(self._queue.qsize())
        return future

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def queue_depth(self) -> int:
        """Queries waiting for the next flush (excludes the executing batch)."""
        depth = self._queue.qsize()
        return depth - 1 if self._closed and depth else depth

    @property
    def mean_batch_size(self) -> float:
        """Average coalesced batch size over the batcher's lifetime."""
        if not self.batches_flushed:
            return 0.0
        return self.queries_batched / self.batches_flushed

    def as_dict(self) -> Dict[str, float]:
        """Flat summary for the metrics endpoint."""
        return {
            "max_batch": self.max_batch,
            "queue_depth": self.queue_depth,
            "batches_flushed": self.batches_flushed,
            "queries_batched": self.queries_batched,
            "full_flushes": self.full_flushes,
            "largest_batch": self.largest_batch,
            "mean_batch_size": self.mean_batch_size,
            "deadline_dropped": self.deadline_dropped,
        }

    # ------------------------------------------------------------------ #
    # worker
    # ------------------------------------------------------------------ #
    async def _work(self) -> None:
        queue = self._queue
        stopping = False
        while not stopping:
            item = await queue.get()
            if item is _SHUTDOWN:
                break
            batch: List[Tuple[SimilarityQuery, Any]] = [item]
            while len(batch) < self.max_batch:
                if queue.empty():
                    # Linger in loop turns, not milliseconds: one bare yield
                    # lets every handler task that is already scheduled reach
                    # submit(); a turn that adds nothing ends the batch.
                    await asyncio.sleep(0)
                    if queue.empty():
                        break
                nxt = queue.get_nowait()
                if nxt is _SHUTDOWN:
                    stopping = True
                    break
                batch.append(nxt)
            await self._flush(batch)

    def _drop_expired(self, batch: List[Tuple]) -> List[Tuple]:
        """Shed entries whose deadline passed while they waited in the queue.

        Runs at flush-assembly time, immediately before the runner call —
        i.e. *before the thread-offload to the scoring engine* — so an
        expired query never occupies a scoring thread.  Each dropped entry
        resolves to a typed :class:`DeadlineExceededError`.
        """
        live: List[Tuple] = []
        for item in batch:
            deadline: Optional[Deadline] = item[4]
            if deadline is not None and deadline.expired:
                self.deadline_dropped += 1
                _DEADLINE_DROPPED_BATCHER.inc()
                future = item[1]
                if not future.done():
                    future.set_exception(
                        DeadlineExceededError(
                            "deadline expired while the query waited for its batch "
                            f"(by {-deadline.remaining_ms():.1f}ms)"
                        )
                    )
            else:
                live.append(item)
        return live

    async def _flush(self, batch: List[Tuple[SimilarityQuery, Any, Any, float, Any]]) -> None:
        # Classified as assembled: a full batch stays "full" even when
        # expired entries are shed from it below.
        full = len(batch) >= self.max_batch
        batch = self._drop_expired(batch)
        if not batch:
            _QUEUE_DEPTH.set(self._queue.qsize())
            return
        queries = [item[0] for item in batch]
        # One batch-level trace serves every sampled query of the flush: the
        # engine activates it in the scoring thread (cache probe + core
        # stages land in it), and each sampled query grafts a copy below its
        # own queue_wait/score spans.
        sampled_ids = [item[2].trace_id for item in batch if item[2] is not None]
        batch_trace = (
            QueryTrace(detail={"batch_size": len(batch), "trace_ids": sampled_ids})
            if sampled_ids
            else None
        )
        flush_started = time.perf_counter()
        try:
            answers = await self._run_batch(queries, trace=batch_trace)
            if len(answers) != len(batch):
                raise ServiceError(
                    f"batch runner returned {len(answers)} answers for {len(batch)} queries"
                )
        except Exception as exc:
            for item in batch:
                future = item[1]
                if not future.done():
                    future.set_exception(exc)
            return
        finally:
            score_seconds = time.perf_counter() - flush_started
            self.batches_flushed += 1
            self.queries_batched += len(batch)
            self.largest_batch = max(self.largest_batch, len(batch))
            if full:
                self.full_flushes += 1
                _FLUSHES_FULL.inc()
            else:
                _FLUSHES_DRAINED.inc()
            _BATCH_SIZE.observe(len(batch))
            _QUEUE_DEPTH.set(self._queue.qsize())
        if batch_trace is not None:
            batch_trace.total_seconds = score_seconds
        for (_query, future, trace, enqueued_at, _deadline), answer in zip(batch, answers):
            if isinstance(answer, Exception):
                if not future.done():
                    future.set_exception(answer)
                continue
            if trace is not None:
                trace.add("queue_wait", max(flush_started - enqueued_at, 0.0), depth=1)
                trace.add("score", score_seconds, depth=1)
                if batch_trace is not None:
                    trace.graft(batch_trace, depth_shift=2)
            if not future.done():
                future.set_result(answer)
