"""Service-layer quickstart: serve GBDA similarity search over TCP.

Walks the full operational loop of :mod:`repro.service`:

1. fit the offline stage and save an engine snapshot;
2. start the asyncio server (here on a background thread; a production
   deployment would run ``SimilarityService.serve_forever()`` as the
   process' main loop);
3. answer queries from the blocking :class:`ServiceClient` — pipelined
   requests coalesce in the server's micro-batcher;
4. scrape the metrics endpoint (QPS, latency percentiles, batch
   occupancy, cache hit rate, admission counters);
5. inspect observability: print a sampled query trace's stage waterfall,
   the slow-query log, and the first lines of the Prometheus exposition;
6. hot-swap the engine from a new snapshot with zero downtime;
7. query through a *resilient* client — per-request deadlines, retry with
   capped exponential backoff, and a circuit breaker — and ride through a
   simulated crash + restart of the service.

Run with:  PYTHONPATH=src python examples/service_quickstart.py
"""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

from repro import BatchQueryEngine, GBDASearch, GraphDatabase, SimilarityQuery
from repro.graphs.generators import random_labeled_graph
from repro.exceptions import DeadlineExceededError
from repro.serving import save_engine
from repro.service import (
    CircuitBreaker,
    RetryPolicy,
    ServiceClient,
    start_service_thread,
)


def build_snapshot(path: Path, num_graphs: int = 120, seed: int = 0) -> None:
    """Offline stage: fit a search on a synthetic database, snapshot the engine."""
    rng = random.Random(seed)
    graphs = [
        random_labeled_graph(rng.randint(6, 10), rng.randint(6, 14), seed=rng)
        for _ in range(num_graphs)
    ]
    database = GraphDatabase(graphs, name=f"quickstart-{num_graphs}")
    search = GBDASearch(database, max_tau=3, num_prior_pairs=150, seed=seed + 1).fit()
    engine = BatchQueryEngine.from_search(search)
    engine.model_version = seed  # stamp so reloads are visible in metrics
    save_engine(engine, path)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-service-"))
    snapshot_v0 = workdir / "engine-v0.snapshot"
    snapshot_v1 = workdir / "engine-v1.snapshot"
    print("fitting the offline stage and writing snapshots ...")
    build_snapshot(snapshot_v0, seed=0)
    build_snapshot(snapshot_v1, num_graphs=160, seed=1)

    # -- start the server (loads the engine from the snapshot) ----------- #
    handle = start_service_thread(
        snapshot_path=snapshot_v0,
        max_batch=32,          # flush at 32 queries, or as soon as the event
                               # loop has no more to deliver (never a timer)
        max_pending=256,       # shed load beyond 256 in-flight queries
        trace_sample_rate=1.0,  # demo: trace everything (production: ~0.01)
        slow_query_ms=0.0,      # demo: every query lands in the slow log
    )
    print(f"serving on {handle.host}:{handle.port}")

    try:
        with ServiceClient(*handle.address) as client:
            print("ping:", client.ping())

            # -- pipelined queries: one round-trip, one coalesced batch -- #
            rng = random.Random(42)
            queries = [
                SimilarityQuery(
                    random_labeled_graph(rng.randint(6, 10), rng.randint(6, 14), seed=rng),
                    tau_hat=rng.randint(1, 3),
                    gamma=0.5,
                )
                for _ in range(24)
            ]
            answers = client.query_many(queries)
            for query, answer in list(zip(queries, answers))[:5]:
                print(
                    f"  tau={query.tau_hat} gamma={query.gamma}: "
                    f"{answer.size} similar graphs"
                )

            # Top-k works over the wire too (the ranking is preserved).
            top = client.query(SimilarityQuery(queries[0].query_graph, 2, 0.5, top_k=3))
            print("  top-3:", [(gid, round(score, 4)) for gid, score in top.ranking])

            # -- scrape the metrics endpoint ----------------------------- #
            metrics = client.stats()
            print("metrics snapshot:")
            print(json.dumps(
                {
                    "qps_window": metrics["serving"]["num_queries"],
                    "p50_ms": round(metrics["serving"]["p50_latency"] * 1e3, 3),
                    "p99_ms": round(metrics["serving"]["p99_latency"] * 1e3, 3),
                    "mean_batch_size": metrics["batcher"]["mean_batch_size"],
                    "cache_hit_rate": (metrics["engine"]["cache"] or {}).get("hit_rate"),
                    "admission": metrics["admission"]["rejected"],
                    "model_version": metrics["engine"]["model_version"],
                },
                indent=2,
            ))

            # -- observability: trace waterfall, slow log, Prometheus ---- #
            trace = handle.service.tracer.recent[-1]
            print("sampled query trace (stage waterfall):")
            print("  " + trace.render().replace("\n", "\n  "))
            slow = client.slow()
            print(
                f"slow-query log: {slow['total_slow']} above "
                f"{slow['threshold_ms']}ms, worst recent "
                f"{max(e['latency_ms'] for e in slow['entries']):.3f}ms"
            )
            exposition = client.prometheus()
            print("prometheus exposition (first lines):")
            for line in exposition.splitlines()[:6]:
                print("  " + line)

            # -- zero-downtime hot swap ---------------------------------- #
            # (On unix, `kill -HUP <pid>` re-loads the configured snapshot
            # path; the admin command can point at any snapshot.)
            print("hot-swapping to engine v1 ...")
            result = client.reload(snapshot_v1)
            print("  reloaded:", result)
            answer = client.query(queries[0])
            print(f"  first query on v1: {answer.size} similar graphs")

        # -- resilience: deadlines, retries, breaker ---------------------- #
        # Production clients should always bound their waits and retry
        # transient failures (queries are idempotent reads; each logical
        # request keeps its idempotency key across attempts, so the server
        # never re-scores work it already answered).
        retry = RetryPolicy(max_attempts=5, base_delay_ms=25, max_delay_ms=500)
        breaker = CircuitBreaker(failure_threshold=5, reset_timeout_ms=1000)
        with ServiceClient(
            *handle.address,
            connect_timeout=5.0,
            read_timeout=10.0,
            retry=retry,
            breaker=breaker,
        ) as client:
            answer = client.query(queries[0], deadline_ms=5_000)
            print(
                f"resilient client: {answer.size} similar graphs "
                f"(deadline 5s, breaker {breaker.state})"
            )
            try:
                client.query(queries[1], deadline_ms=0.001)
            except DeadlineExceededError as exc:
                print(f"  1µs deadline refused unscored, as designed: {exc}")
            print(f"  retries so far: {retry.retries}")
    finally:
        handle.stop()
        print("server drained and stopped.")


if __name__ == "__main__":
    main()
