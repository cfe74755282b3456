"""Shard-parallel (data-parallel) serving walkthrough.

Builds a synthetic database, fits the GBDA offline stage, and serves one
query stream three ways:

1. one ``query_batch`` call on the full database,
2. in-process shard decomposition (``shard_engines`` + ``merge_answers``),
3. the ``"data-parallel"`` ServingExecutor mode — the database is
   partitioned into id-preserving shards, every process worker scores the
   whole stream against its shard with one ``query_batch`` call, and the
   per-shard answers are merged by union.

All three produce identical answers; data-parallel is the mode to reach
databases too large (or too slow) to score inside one process.

Run with:  PYTHONPATH=src python examples/sharded_serving.py
"""

from __future__ import annotations

import random
import time

from repro import BatchQueryEngine, GBDASearch, GraphDatabase, ServingExecutor, SimilarityQuery
from repro.graphs.generators import random_labeled_graph

DATABASE_SIZE = 600
NUM_QUERIES = 24
NUM_SHARDS = 3


def main() -> None:
    rng = random.Random(0)
    graphs = [
        random_labeled_graph(rng.randint(7, 11), rng.randint(8, 16), seed=rng)
        for _ in range(DATABASE_SIZE)
    ]
    database = GraphDatabase(graphs, name="sharded-demo")
    print(f"database: {database}")

    search = GBDASearch(database, max_tau=3, num_prior_pairs=300, seed=1).fit()
    print(f"offline stage done in {search.offline_seconds:.2f}s")

    qrng = random.Random(1)
    queries = [
        SimilarityQuery(
            random_labeled_graph(qrng.randint(7, 11), qrng.randint(8, 16), seed=qrng),
            qrng.randint(1, 3),
            0.5,
        )
        for _ in range(NUM_QUERIES)
    ]

    # 1. one query_batch call on the full database
    engine = BatchQueryEngine.from_search(search, cache_size=None)
    start = time.perf_counter()
    batched = engine.query_batch(queries)
    print(f"query_batch: {NUM_QUERIES / (time.perf_counter() - start):.0f} QPS")

    # 2. in-process shard decomposition (parity check for the merge)
    shard_engines = engine.shard_engines(NUM_SHARDS)
    print(f"shards: {[len(e.database) for e in shard_engines]} graphs each")
    merged = [
        BatchQueryEngine.merge_answers([e.query(query) for e in shard_engines])
        for query in queries
    ]

    # 3. data-parallel executor: shards across process workers
    executor = ServingExecutor(engine, num_workers=NUM_SHARDS, mode="data-parallel")
    start = time.perf_counter()
    parallel = executor.map(queries)
    elapsed = time.perf_counter() - start
    print(f"data-parallel ({NUM_SHARDS} workers): {NUM_QUERIES / elapsed:.0f} QPS")
    print(f"executor stats: {executor.last_stats}")

    for batch_answer, merge_answer, parallel_answer in zip(batched, merged, parallel):
        assert merge_answer.accepted_ids == batch_answer.accepted_ids
        assert parallel_answer.accepted_ids == batch_answer.accepted_ids
        assert parallel_answer.scores == batch_answer.scores
    sizes = [answer.size for answer in batched]
    print(f"all three paths identical; answer sizes: min={min(sizes)} max={max(sizes)}")


if __name__ == "__main__":
    main()
