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
  queries with hit/miss accounting.

A stream of queries is served by ``query_batch``: the service's
micro-batcher (:mod:`repro.service`) calls it once per flush.

Quickstart
----------
>>> from repro import GBDASearch, GraphDatabase, SimilarityQuery
>>> from repro.serving import BatchQueryEngine
>>> search = GBDASearch(database, max_tau=4).fit()          # doctest: +SKIP
>>> engine = BatchQueryEngine.from_search(search)           # doctest: +SKIP
>>> engine.save("engine.snapshot")                          # doctest: +SKIP
>>> engine = BatchQueryEngine.load("engine.snapshot")       # doctest: +SKIP
>>> answers = engine.query_batch(queries)                   # doctest: +SKIP
"""

from repro.serving.cache import QueryResultCache, query_cache_key
from repro.serving.engine import BatchQueryEngine
from repro.serving.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    load_engine,
    save_engine,
)

__all__ = [
    "BatchQueryEngine",
    "QueryResultCache",
    "query_cache_key",
    "save_engine",
    "load_engine",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
]
