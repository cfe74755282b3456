"""repro.service — the network serving layer of the reproduction.

The fifth layer of the stack: an asyncio TCP server that exposes a
:class:`~repro.serving.engine.BatchQueryEngine` to concurrent remote
clients and serves concurrent load by *dynamic micro-batching* —
independent in-flight requests are coalesced into single ``query_batch``
calls, so a flush pays one thread hand-over, one cache-probe pass and one
trace instead of one per request.

* :mod:`~repro.service.protocol` — length-prefixed wire protocol: one
  fixed binary layout for queries (including the graph) and answers
  (including top-k rankings), JSON for admin and error messages only;
  scores travel as their eight bytes, so answers received over the wire
  are bit-identical to direct engine calls, and every defect of a frame
  is a typed ``BAD_REQUEST``.
* :class:`~repro.service.batcher.MicroBatcher` — work-conserving
  coalescing of concurrently-arriving queries: a batch is flushed when it
  is full or on the first event-loop turn that adds no query to it (at
  most ``max_batch`` turns, never a timer), so a lone query is not held
  back and arrivals during a running batch form the next one.
* :class:`~repro.service.admission.AdmissionController` — bounded queue
  depth + per-connection backpressure; sheds load with a typed
  ``OVERLOADED`` response instead of stalling.
* :class:`~repro.service.server.SimilarityService` — the server: pipelined
  connections, thread-offloaded scoring, zero-downtime snapshot hot swap
  (``SIGHUP`` / ``reload`` admin command), graceful drain on shutdown, and
  a ``stats`` metrics endpoint.
* :class:`~repro.service.client.ServiceClient` /
  :class:`~repro.service.client.AsyncServiceClient` — pipelined sync and
  asyncio clients: two byte movers over one request state machine that
  holds every decision (ids, idempotency keys, retries, hedging, what the
  circuit breaker is told, trace spans), with typed error mapping, bounded
  waits, and a dead connection replaced by the next request.
* :mod:`~repro.service.resilience` — the fault-tolerance primitives:
  :class:`~repro.service.resilience.Deadline` (end-to-end budgets),
  :class:`~repro.service.resilience.RetryPolicy` (capped exponential
  backoff + jitter for idempotent queries),
  :class:`~repro.service.resilience.CircuitBreaker`,
  :class:`~repro.service.resilience.HedgePolicy` (tail-latency hedged
  sends), and :class:`~repro.service.resilience.IdempotencyCache`
  (server-side duplicate suppression).

Quickstart
----------
>>> from repro.service import start_service_thread, ServiceClient
>>> handle = start_service_thread(engine, max_batch=32)     # doctest: +SKIP
>>> with ServiceClient(*handle.address) as client:          # doctest: +SKIP
...     answer = client.query(SimilarityQuery(graph, 1, 0.9))
...     metrics = client.stats()
>>> handle.stop()                                           # doctest: +SKIP
"""

from repro.service.admission import AdmissionController
from repro.service.batcher import MicroBatcher
from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    decode_answer,
    decode_query,
    encode_answer,
    encode_query,
)
from repro.service.resilience import (
    Deadline,
    CircuitBreaker,
    HedgePolicy,
    IdempotencyCache,
    RetryPolicy,
)
from repro.service.server import ServiceHandle, SimilarityService, start_service_thread

__all__ = [
    "AdmissionController",
    "AsyncServiceClient",
    "CircuitBreaker",
    "Deadline",
    "HedgePolicy",
    "IdempotencyCache",
    "MicroBatcher",
    "MAX_FRAME_BYTES",
    "RetryPolicy",
    "ServiceClient",
    "ServiceHandle",
    "SimilarityService",
    "start_service_thread",
    "encode_query",
    "decode_query",
    "encode_answer",
    "decode_answer",
]
