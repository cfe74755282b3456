"""Service-layer latency and throughput: a lone caller, then concurrency.

Starts a real :class:`~repro.service.server.SimilarityService` (asyncio TCP,
length-prefixed frames: binary queries and answers, JSON for admin commands
and errors) over a fitted engine and drives it two ways:

* **lone caller** — one connection, the next query sent when the answer
  arrived: every request pays the full round-trip and scores as a batch of
  one.  Its p50/p90 latency (``LONE_PASSES`` passes of the query stream
  after a warm-up pass) is the headline: it is what one remote user
  observes, and the micro-batcher must add nothing to it;
* **concurrent** — N client threads with pipelined requests: the server's
  :class:`~repro.service.batcher.MicroBatcher` coalesces the in-flight
  queries into single ``query_batch`` calls: one thread hand-over, one
  cache-probe pass and one trace per flush instead of per request (the
  engine scores a batch row by row, no faster per row than one query).

Assertions: answers received over the wire are bit-identical to direct
engine calls on every path, and (full mode) the concurrent clients were
coalesced past one query per connection (``MIN_MEAN_BATCH``) — a count of
flushes, which is what catches broken coalescing.  The concurrent/lone QPS
ratio is printed and recorded but not asserted: the lone caller is bound by
the round-trip and the concurrent clients by the CPU, so the ratio moves
with the box and with every change that makes a lone round-trip cheaper,
and a wall-clock bar on it turned tier-1 red on unchanged code.  The run
emits the machine-readable
``results/BENCH_service.json`` (lone-caller latency, QPS, speedup, batch
occupancy) uploaded by CI next to the other BENCH files.
``benchmarks/check_regression.py`` compares higher-is-better figures only:
``qps.serial_single_connection`` is the reciprocal of the lone caller's
mean latency and is how that latency is tracked; ``lone_caller.p50_ms`` /
``p90_ms`` are there to be read.  ``REPRO_SMOKE=1`` shrinks the workload
and keeps only the parity assertions.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time

import numpy as np
import pytest

from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.query import SimilarityQuery
from repro.graphs.generators import random_labeled_graph
from repro.serving import BatchQueryEngine
from repro.service import ServiceClient, start_service_thread

SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")

DATABASE_SIZE = 300 if SMOKE else 2000
NUM_QUERIES = 48 if SMOKE else 240          # total queries per measured pass
NUM_CLIENTS = 8                              # concurrent connections
LONE_PASSES = 2 if SMOKE else 3              # timed passes of the lone caller (>= 512 queries)
MIN_MEAN_BATCH = 2 * NUM_CLIENTS             # pipelined requests rode together, not one per connection


@pytest.fixture(scope="module")
def service_workload():
    """Fitted engine + distinct query stream, shared by the benchmark cases."""
    rng = random.Random(11)
    graphs = [
        random_labeled_graph(rng.randint(8, 12), rng.randint(9, 18), seed=rng)
        for _ in range(DATABASE_SIZE)
    ]
    database = GraphDatabase(graphs, name=f"Service-{DATABASE_SIZE}")
    search = GBDASearch(database, max_tau=3, num_prior_pairs=400, seed=3).fit()
    qrng = random.Random(13)
    queries = [
        SimilarityQuery(
            random_labeled_graph(qrng.randint(8, 12), qrng.randint(9, 18), seed=qrng),
            qrng.randint(1, 3),
            0.5,
        )
        for _ in range(NUM_QUERIES)
    ]
    # No result cache: every served query must really score the database,
    # otherwise the serial pass would be answered from the LRU.
    engine = BatchQueryEngine.from_search(search, cache_size=None)
    return engine, queries


def test_micro_batched_concurrency_beats_serial_connection(service_workload, results_dir):
    engine, queries = service_workload
    direct = [engine.query(query) for query in queries]  # also warms the tables

    handle = start_service_thread(engine, max_batch=64)
    try:
        # --- lone caller: one connection, strict request/response lockstep #
        lone_latencies = []
        with ServiceClient(*handle.address, read_timeout=120.0) as client:
            serial_answers = [client.query(query) for query in queries]  # warm pass
            for _ in range(LONE_PASSES):
                for position, query in enumerate(queries):
                    start = time.perf_counter()
                    serial_answers[position] = client.query(query)
                    lone_latencies.append(time.perf_counter() - start)
        serial_seconds = sum(lone_latencies)
        serial_qps = len(lone_latencies) / serial_seconds
        lone_p50_ms, lone_p90_ms = (
            float(np.percentile(lone_latencies, q)) * 1e3 for q in (50, 90)
        )

        for received, expected in zip(serial_answers, direct):
            assert received.accepted_ids == expected.accepted_ids
            assert received.scores == expected.scores

        batches_before = handle.service.batcher.batches_flushed
        queries_before = handle.service.batcher.queries_batched

        # --- concurrent: N clients, pipelined, coalesced by the server ---- #
        shards = [queries[worker::NUM_CLIENTS] for worker in range(NUM_CLIENTS)]
        expected_shards = [direct[worker::NUM_CLIENTS] for worker in range(NUM_CLIENTS)]
        failures = []
        barrier = threading.Barrier(NUM_CLIENTS + 1)

        def run_client(worker: int) -> None:
            try:
                with ServiceClient(*handle.address, read_timeout=120.0) as client:
                    barrier.wait()
                    answers = client.query_many(shards[worker])
                    for received, expected in zip(answers, expected_shards[worker]):
                        assert received.accepted_ids == expected.accepted_ids
                        assert received.scores == expected.scores
            except Exception as exc:
                failures.append((worker, exc))

        threads = [
            threading.Thread(target=run_client, args=(worker,))
            for worker in range(NUM_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join(timeout=600)
        concurrent_seconds = time.perf_counter() - start
        assert not failures, failures
        concurrent_qps = len(queries) / concurrent_seconds

        batches = handle.service.batcher.batches_flushed - batches_before
        batched_queries = handle.service.batcher.queries_batched - queries_before
        mean_batch = batched_queries / batches if batches else 0.0
        metrics = handle.service.metrics()
    finally:
        handle.stop()

    speedup = concurrent_qps / serial_qps
    payload = {
        "benchmark": "service",
        "mode": "smoke" if SMOKE else "full",
        "database_size": DATABASE_SIZE,
        "num_queries": len(queries),
        "num_clients": NUM_CLIENTS,
        "lone_caller": {
            "queries": len(lone_latencies),
            "p50_ms": lone_p50_ms,
            "p90_ms": lone_p90_ms,
        },
        "qps": {
            "serial_single_connection": serial_qps,
            "concurrent_micro_batched": concurrent_qps,
            "speedup": speedup,
        },
        "batcher": {
            "batches_flushed": batches,
            "mean_batch_size": mean_batch,
            "largest_batch": metrics["batcher"]["largest_batch"],
        },
        "latency_seconds": {
            "mean": metrics["serving"]["mean_latency"],
            "p50": metrics["serving"]["p50_latency"],
            "p95": metrics["serving"]["p95_latency"],
            "p99": metrics["serving"]["p99_latency"],
        },
        "admission": {
            "admitted": metrics["admission"]["admitted"],
            "rejected": metrics["admission"]["rejected"],
        },
    }
    (results_dir / "BENCH_service.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"Service throughput on |D|={DATABASE_SIZE}, {len(queries)} queries "
        f"(tau in 1..3, gamma=0.5), {NUM_CLIENTS} concurrent clients",
        "",
        f"{'path':<34}{'queries':>8}{'seconds':>10}{'QPS':>10}{'p50 ms':>9}{'p90 ms':>9}",
        f"{'lone caller, one connection':<34}{len(lone_latencies):>8}{serial_seconds:>10.3f}"
        f"{serial_qps:>10.1f}{lone_p50_ms:>9.2f}{lone_p90_ms:>9.2f}",
        f"{'concurrent micro-batched':<34}{len(queries):>8}{concurrent_seconds:>10.3f}"
        f"{concurrent_qps:>10.1f}",
        "",
        f"concurrent speedup: {speedup:.1f}x (not asserted)",
        f"coalescing: {batches} batches, mean size {mean_batch:.1f}, "
        f"largest {metrics['batcher']['largest_batch']}",
        "server-side latency p50/p95/p99, all phases: "
        f"{metrics['serving']['p50_latency'] * 1e3:.2f} / "
        f"{metrics['serving']['p95_latency'] * 1e3:.2f} / "
        f"{metrics['serving']['p99_latency'] * 1e3:.2f} ms",
    ]
    rendered = "\n".join(lines)
    (results_dir / "service_throughput.txt").write_text(rendered + "\n", encoding="utf-8")
    print()
    print(rendered)

    assert mean_batch > 1.0, "concurrent clients should have been coalesced"
    if not SMOKE:
        assert mean_batch >= MIN_MEAN_BATCH, (
            f"mean batch {mean_batch:.1f} of {NUM_CLIENTS} pipelining clients: "
            "requests that arrived together were not flushed together"
        )
