"""Concurrent serving driver: spread a query stream over worker threads.

:class:`ServingExecutor` round-robins a stream of similarity queries over
``num_workers`` threads sharing one engine and returns the
:class:`~repro.db.query.QueryAnswer` list in input order.  The result cache
and posterior tables are shared; the numpy scoring kernels release little of
the GIL, so the threads mostly overlap the Python-side bookkeeping.
``num_workers=1`` answers everything inline.

Every run produces a :class:`~repro.serving.stats.ServingStats` with
wall-clock throughput, per-query latency percentiles, and cache counters.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.db.query import QueryAnswer, SimilarityQuery
from repro.exceptions import ServingError
from repro.serving.engine import BatchQueryEngine
from repro.serving.stats import ServingStats

__all__ = ["ServingExecutor"]


class ServingExecutor:
    """Shard query streams across a thread pool sharing one engine.

    Parameters
    ----------
    engine:
        The serving engine answering the queries.
    num_workers:
        Number of shards/threads (>= 1).  ``1`` answers inline.
    """

    def __init__(self, engine: BatchQueryEngine, *, num_workers: int = 4) -> None:
        if num_workers < 1:
            raise ServingError("num_workers must be at least 1")
        self.engine = engine
        self.num_workers = int(num_workers)
        self.last_stats: Optional[ServingStats] = None
        self.total_stats = ServingStats()

    def map(self, queries: Iterable[SimilarityQuery]) -> List[QueryAnswer]:
        """Answer ``queries`` and return their answers in input order.

        The run's measurements are exposed as :attr:`last_stats` and folded
        into the lifetime :attr:`total_stats`.
        """
        stream = list(queries)
        shards = self._shard(stream)
        cache = self.engine.cache
        hits_before = cache.hits if cache is not None else 0
        misses_before = cache.misses if cache is not None else 0
        # Filter-effectiveness counters live in the shared execution core.
        prune_before = self.engine.prune_counters

        start = time.perf_counter()
        if len(shards) <= 1:
            indexed = [
                (position, self.engine.query(query))
                for shard in shards
                for position, query in shard
            ]
        else:
            indexed = self._run_threads(shards)
        elapsed = time.perf_counter() - start

        answers: List[Optional[QueryAnswer]] = [None] * len(stream)
        for position, answer in indexed:
            answers[position] = answer

        stats = ServingStats(
            num_queries=len(stream),
            num_batches=len(shards),
            elapsed_seconds=elapsed,
            latencies=[answer.elapsed_seconds for answer in answers if answer is not None],
        )
        if cache is not None:
            stats.cache_hits = cache.hits - hits_before
            stats.cache_misses = cache.misses - misses_before
        prune_after = self.engine.prune_counters
        for counter in ("candidates_generated", "candidates_pruned", "candidates_verified"):
            setattr(stats, counter, int(prune_after[counter] - prune_before[counter]))
        self.last_stats = stats
        self.total_stats.merge(stats)
        return answers  # type: ignore[return-value]

    def _shard(
        self, stream: Sequence[SimilarityQuery]
    ) -> List[List[Tuple[int, SimilarityQuery]]]:
        """Round-robin the stream into at most ``num_workers`` non-empty shards."""
        num_shards = min(self.num_workers, len(stream))
        shards: List[List[Tuple[int, SimilarityQuery]]] = [[] for _ in range(num_shards)]
        for position, query in enumerate(stream):
            shards[position % num_shards].append((position, query))
        return shards

    def _run_threads(self, shards) -> List[Tuple[int, QueryAnswer]]:
        engine = self.engine

        def serve(shard):
            return [(position, engine.query(query)) for position, query in shard]

        merged: List[Tuple[int, QueryAnswer]] = []
        with ThreadPoolExecutor(max_workers=len(shards)) as pool:
            for result in pool.map(serve, shards):
                merged.extend(result)
        return merged

    def __repr__(self) -> str:
        return (
            f"<ServingExecutor workers={self.num_workers} "
            f"served={self.total_stats.num_queries}>"
        )
