"""Serving quickstart: fit → snapshot → load → batch-serve.

Walks the full lifecycle of the serving subsystem:

1. build a synthetic graph database and run the GBDA offline stage once,
2. wrap the fitted search in a :class:`BatchQueryEngine` and warm its
   posterior lookup tables,
3. persist the engine to a versioned snapshot on disk,
4. reload it in a "fresh server process" (no ``fit()``!) and serve a query
   stream through the concurrent :class:`ServingExecutor`, printing
   throughput, latency percentiles, and cache statistics.

Run with:  python examples/serving_quickstart.py
"""

from __future__ import annotations

import random
import tempfile
import time
from pathlib import Path

from repro import (
    BatchQueryEngine,
    GBDASearch,
    GraphDatabase,
    ServingExecutor,
    SimilarityQuery,
)
from repro.graphs.generators import random_labeled_graph


def build_database(num_graphs: int = 500, seed: int = 0) -> GraphDatabase:
    rng = random.Random(seed)
    graphs = [
        random_labeled_graph(rng.randint(8, 12), rng.randint(9, 18), seed=rng)
        for _ in range(num_graphs)
    ]
    return GraphDatabase(graphs, name="serving-demo")


def build_query_stream(num_queries: int = 60, seed: int = 1):
    """A skewed stream: a few hot queries repeated plus a random tail."""
    rng = random.Random(seed)
    hot = [
        SimilarityQuery(
            random_labeled_graph(rng.randint(8, 12), rng.randint(9, 18), seed=rng),
            tau_hat=2,
            gamma=0.5,
        )
        for _ in range(5)
    ]
    stream = []
    for _ in range(num_queries):
        if rng.random() < 0.5:
            stream.append(rng.choice(hot))
        else:
            stream.append(
                SimilarityQuery(
                    random_labeled_graph(rng.randint(8, 12), rng.randint(9, 18), seed=rng),
                    tau_hat=rng.randint(1, 3),
                    gamma=0.5,
                )
            )
    return stream


def main() -> None:
    # -- offline stage (paid once) ------------------------------------- #
    database = build_database()
    start = time.perf_counter()
    search = GBDASearch(database, max_tau=3, num_prior_pairs=400, seed=1).fit()
    print(f"offline fit over |D|={len(database)}: {time.perf_counter() - start:.2f}s")

    # -- build + warm + snapshot the engine ----------------------------- #
    engine = BatchQueryEngine.from_search(search)
    engine.warm(tau_hats=[1, 2, 3])
    snapshot_path = Path(tempfile.mkdtemp()) / "gbda-engine.snapshot"
    start = time.perf_counter()
    engine.save(snapshot_path)
    print(
        f"snapshot written to {snapshot_path} "
        f"({snapshot_path.stat().st_size / 1024:.0f} KiB, {time.perf_counter() - start:.3f}s)"
    )

    # -- "new server process": load without fitting --------------------- #
    start = time.perf_counter()
    served_engine = BatchQueryEngine.load(snapshot_path)
    print(f"engine restored in {time.perf_counter() - start:.3f}s (no fit!)")

    # -- batch-serve a skewed stream ------------------------------------ #
    stream = build_query_stream()
    executor = ServingExecutor(served_engine, num_workers=4)
    answers = executor.map(stream)
    stats = executor.last_stats
    print(f"served {stats.num_queries} queries in {stats.elapsed_seconds:.3f}s")
    print(f"  throughput: {stats.queries_per_second:.0f} QPS")
    print(f"  latency: p50={stats.p50_latency * 1e3:.2f}ms p95={stats.p95_latency * 1e3:.2f}ms")
    print(f"  cache: {stats.cache_hits} hits / {stats.cache_misses} misses "
          f"({stats.cache_hit_rate:.0%} hit rate)")
    sizes = [answer.size for answer in answers]
    print(f"  answer sizes: min={min(sizes)} mean={sum(sizes) / len(sizes):.1f} max={max(sizes)}")


if __name__ == "__main__":
    main()
