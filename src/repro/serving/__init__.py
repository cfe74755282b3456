"""repro.serving — batched, vectorized, persistent query serving for GBDA.

This subpackage turns a fitted :class:`~repro.core.search.GBDASearch` into a
deployable serving artifact:

* :class:`~repro.serving.engine.BatchQueryEngine` — answers batches of
  similarity queries with vectorized posterior-table lookups instead of the
  per-graph Python loop of ``GBDASearch.query`` (identical answers, several
  times the throughput);
* :mod:`~repro.serving.snapshot` — versioned ``save``/``load`` of a fitted
  engine (graphs + branch multisets + Λ2 GMM + Λ3 grid), so a server starts
  without re-running the offline stage;
* :class:`~repro.serving.cache.QueryResultCache` — an LRU for repeated/hot
  queries with hit/miss accounting;
* :class:`~repro.serving.executor.ServingExecutor` — shards a query stream
  across threads sharing one engine and reports
  :class:`~repro.serving.stats.ServingStats` (QPS, latency percentiles).

Quickstart
----------
>>> from repro import GBDASearch, GraphDatabase, SimilarityQuery
>>> from repro.serving import BatchQueryEngine, ServingExecutor
>>> search = GBDASearch(database, max_tau=4).fit()          # doctest: +SKIP
>>> engine = BatchQueryEngine.from_search(search)           # doctest: +SKIP
>>> engine.save("engine.snapshot")                          # doctest: +SKIP
>>> engine = BatchQueryEngine.load("engine.snapshot")       # doctest: +SKIP
>>> answers = ServingExecutor(engine).map(queries)          # doctest: +SKIP
"""

from repro.serving.cache import QueryResultCache, query_cache_key
from repro.serving.engine import BatchQueryEngine
from repro.serving.executor import ServingExecutor
from repro.serving.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    load_engine,
    save_engine,
)
from repro.serving.stats import ServingStats

__all__ = [
    "BatchQueryEngine",
    "ServingExecutor",
    "ServingStats",
    "QueryResultCache",
    "query_cache_key",
    "save_engine",
    "load_engine",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
]
