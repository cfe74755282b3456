"""Batched, vectorized GBDA query engine.

:class:`BatchQueryEngine` answers batches of
:class:`~repro.db.query.SimilarityQuery` against a fitted GBDA model.  It
is a vectorized caller of the shared
:class:`~repro.core.plan.ExecutionCore` — the single implementation of
Algorithm 1's online steps also behind :meth:`GBDASearch.query` — and
exploits the key structural fact of the posterior: ``Φ = Pr[GED <= τ̂ |
GBD = ϕ]`` depends only on the integer triple ``(ϕ, τ̂, |V'1|)``.  So the
Step-4 rule ``Φ >= γ`` inverts into a max-acceptable GBD per graph order,
and answering a query is one plan
(:meth:`~repro.core.plan.ExecutionCore.execute_pruned`):

1. an O(1) GBD lower bound per distinct ``|V_G|`` drops every order that
   cannot reach γ before any postings are read,
2. one pass over the query's branches through the columnar branch store
   (:class:`~repro.db.columnar.ColumnarBranchStore` — CSR postings) gives
   the surviving graphs' exact GBDs, and
3. the posterior table compares them with γ; the accepted graphs and their
   posteriors are the answer.

:meth:`query_batch` answers a batch in input order, each query exactly as
:meth:`query` would: Steps 2–4 are decided per (query, graph) pair, so the
queries of a batch share no scoring result.  They share the work around it:
one cache-probe pass that also scores a repeated query once, then one pass
of the execution core for the rest
(:meth:`~repro.core.plan.ExecutionCore.execute_batch`: one store snapshot,
one store call — on the native backend one C call for every row, thresholded
and top-k alike — and one fold of the filter counters), and for the service
one thread hand-over and one trace per flush.  A top-k row of a flush rides
that call: its k-best reducer runs beside the thresholded rows' γ reducer,
and its cache key canonicalises γ, so top-k rows that differ only in γ are
scored once.  :meth:`query` and :meth:`query_topk` are the same pass over a
batch of one.

Accepted sets, rankings and their scores are bit-identical to
:meth:`GBDASearch.query` / :meth:`GBDASearch.query_topk` (and to the scalar
per-pair loop, :func:`repro.testing.oracles.query_reference`) because the
tables are filled by the very same :meth:`GBDAEstimator.posterior`
evaluations; every graph's posterior, accepted or not, is
:meth:`GBDASearch.query`'s to report.

Repeated queries are served from an optional LRU result cache
(:class:`~repro.serving.cache.QueryResultCache`).  The engine stays
consistent with incremental database additions without being told of them:
it reads the database's own store, and cache keys carry the database
revision, so an answer cached before an addition simply stops matching.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.estimator import GBDAEstimator
from repro.core.plan import ExecutionCore
from repro.db.database import GraphDatabase
from repro.db.query import QueryAnswer, SimilarityQuery, validate_top_k
from repro.exceptions import ServingError
from repro.obs.metrics import get_registry
from repro.obs.trace import activated
from repro.serving.cache import QueryResultCache, query_cache_key

__all__ = ["BatchQueryEngine"]

# Children bound once at import time; never stored on engine instances,
# which stay picklable.
_ENGINE_QUERIES = get_registry().counter(
    "repro_engine_queries_total", "Queries answered by the serving engine", ("path",)
)
_ENGINE_SECONDS = get_registry().histogram(
    "repro_engine_query_seconds", "Engine-side serve time in seconds", ("path",)
)
_CACHE_EVENTS = get_registry().counter(
    "repro_engine_cache_events_total", "Result-cache probe outcomes", ("outcome",)
)
_QUERIES_SINGLE = _ENGINE_QUERIES.labels(path="single")
_QUERIES_TOPK = _ENGINE_QUERIES.labels(path="topk")
_QUERIES_BATCH = _ENGINE_QUERIES.labels(path="batch")
_SECONDS_SINGLE = _ENGINE_SECONDS.labels(path="single")
_SECONDS_TOPK = _ENGINE_SECONDS.labels(path="topk")
_SECONDS_BATCH = _ENGINE_SECONDS.labels(path="batch")
_CACHE_HITS = _CACHE_EVENTS.labels(outcome="hit")
_CACHE_MISSES = _CACHE_EVENTS.labels(outcome="miss")


class BatchQueryEngine:
    """Serve batches of similarity queries against a fitted GBDA model.

    Parameters
    ----------
    database:
        The graph database ``D`` to serve (non-empty).
    estimator:
        A :class:`GBDAEstimator` built from fitted Λ2/Λ3 priors.
    max_tau:
        Largest similarity threshold supported by the priors.
    cache_size:
        Capacity of the LRU result cache; ``None`` or ``0`` disables caching.

    An answer holds the accepted graphs and their posteriors only: the engine
    runs one plan, the filter-and-verify path of
    :meth:`~repro.core.plan.ExecutionCore.execute_pruned`, where the ``(τ̂,
    γ)`` acceptance rule is inverted into a max-acceptable-GBD threshold and
    candidates are eliminated by O(1) GBD-lower-bound arithmetic before any
    postings traversal.  Every graph's posterior is
    :meth:`GBDASearch.query <repro.core.search.GBDASearch.query>`'s.

    The kernel backend is the database's
    (:class:`~repro.db.database.GraphDatabase` ``kernel_backend``): one
    store, one backend.
    """

    method_name = "GBDA"

    def __init__(
        self,
        database: GraphDatabase,
        estimator: GBDAEstimator,
        *,
        max_tau: int,
        cache_size: Optional[int] = 256,
    ) -> None:
        if len(database) == 0:
            raise ServingError("cannot serve queries over an empty database")
        if max_tau < 0:
            raise ServingError("max_tau must be non-negative")
        self.database = database
        self.estimator = estimator
        self.max_tau = int(max_tau)
        self.cache_size = int(cache_size) if cache_size else 0
        self.cache: Optional[QueryResultCache] = (
            QueryResultCache(self.cache_size) if self.cache_size else None
        )
        # The shared execution core: it reads the database's branch store and
        # holds the (τ̂, |V'1|) posterior tables.
        self._core = ExecutionCore(
            database, estimator, max_tau=self.max_tau, error_class=ServingError
        )
        #: Version of the offline model serving the answers.  0 for an
        #: engine built directly from a search; the incremental
        #: OfflineFitter bumps it on every refit so snapshots are ordered.
        self.model_version: int = 0

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_search(cls, search, **kwargs) -> "BatchQueryEngine":
        """Build an engine from a fitted :class:`~repro.core.search.GBDASearch`.

        A search with ``use_index_pruning`` (the branch-bound ablation) is
        refused: its accepted sets are not the engine's.
        """
        if not getattr(search, "is_fitted", False):
            raise ServingError("the search must be fitted before building a serving engine")
        if getattr(search, "use_index_pruning", False):
            raise ServingError(
                "cannot serve a search with use_index_pruning: the engine runs "
                "Algorithm 1 without the branch-bound filter, so its answers would differ"
            )
        return cls(
            search.database,
            search.estimator,
            max_tau=search.max_tau,
            **kwargs,
        )

    @property
    def active_kernel_backend(self) -> str:
        """The *resolved* kernel backend name (``"numpy"`` or ``"native"``).

        May differ from the database's configured ``kernel_backend`` when that
        is ``"auto"``, or when a snapshot configured for the native backend is
        restored on a machine that cannot build it.
        """
        return self.database.store.backend

    # ------------------------------------------------------------------ #
    # posterior lookup tables (delegated to the execution core)
    # ------------------------------------------------------------------ #
    def posterior_vector(self, tau_hat: int, extended_order: int) -> np.ndarray:
        """Return the dense posterior vector for one ``(τ̂, |V'1|)`` pair.

        ``vector[ϕ] = Pr[GED <= τ̂ | GBD = ϕ]`` for ``ϕ in 0..|V'1|``;
        computed on first use via :meth:`GBDAEstimator.posterior_row` and
        cached in the shared execution core for the lifetime of the engine.
        """
        return self._core.posterior_vector(tau_hat, extended_order)

    def warm(self, tau_hats: Iterable[int], extended_orders: Optional[Iterable[int]] = None) -> int:
        """Pre-compute posterior vectors ahead of traffic; return the table count.

        ``extended_orders`` defaults to the distinct vertex counts present in
        the database — the exact orders hit by queries no larger than the
        largest stored graph; larger queries extend the tables lazily.
        """
        return self._core.warm(tau_hats, extended_orders)

    @property
    def num_cached_tables(self) -> int:
        """Number of ``(τ̂, |V'1|)`` posterior rows currently filled."""
        return self._core.num_cached_tables

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def _validate_tau(self, tau_hat: int) -> None:
        # Single source of truth: the core raises ServingError (its
        # configured error_class) with the canonical message.
        self._core.validate_tau(tau_hat)

    def _cache_key(self, query_branches, query: SimilarityQuery, top_k: Optional[int] = None):
        """Cache key scoped to the current database revision and model version.

        Rankings are γ-independent, so a top-k key canonicalises γ to 0.0 —
        queries differing only in γ share one entry.
        """
        return query_cache_key(
            query_branches,
            query.tau_hat,
            query.gamma if top_k is None else 0.0,
            revision=self.database.revision,
            model_version=self.model_version,
            top_k=top_k,
        )

    @staticmethod
    def _copy_answer(answer: QueryAnswer, elapsed: float) -> QueryAnswer:
        """Private copy of a cached answer (fresh latency, unshared containers)."""
        return dataclasses.replace(
            answer,
            scores=dict(answer.scores),
            ranking=None if answer.ranking is None else list(answer.ranking),
            elapsed_seconds=elapsed,
        )

    def query(self, query: SimilarityQuery) -> QueryAnswer:
        """Answer one similarity query (cache-backed, vectorized scoring).

        Queries carrying ``top_k`` are routed to :meth:`query_topk`; the
        rest run through the filter-and-verify path, which returns the
        accepted graphs and their posteriors.
        """
        if query.top_k is not None:
            return self.query_topk(query)
        self._validate_tau(query.tau_hat)
        _QUERIES_SINGLE.inc()
        return self._serve_one(query, None, _SECONDS_SINGLE)

    def query_topk(self, query: SimilarityQuery, k: Optional[int] = None) -> QueryAnswer:
        """Answer a top-k query: the ``k`` best graphs ranked by posterior.

        ``k`` defaults to ``query.top_k``.  The returned answer's
        :attr:`~repro.db.query.QueryAnswer.ranking` lists ``(graph id,
        posterior)`` pairs by descending posterior (ascending id under ties
        — deterministic), ``accepted_ids``/``scores`` cover the same graphs.
        Ranking uses bound-based early termination
        (:meth:`~repro.core.plan.ExecutionCore.execute_topk`) and is exactly
        the first ``k`` of the full γ=0 scoring.
        """
        if k is None:
            k = query.top_k
        if k is None:
            raise ServingError(
                "query_topk needs top_k on the query or an explicit k argument"
            )
        k = validate_top_k(k, ServingError)
        self._validate_tau(query.tau_hat)
        _QUERIES_TOPK.inc()
        return self._serve_one(query, k, _SECONDS_TOPK)

    def _serve_one(self, query: SimilarityQuery, k: Optional[int], seconds) -> QueryAnswer:
        """One query through the cache and the core: its hits, or its top ``k``."""
        start = time.perf_counter()
        query_branches = query.branches()
        cache_key = None
        if self.cache is not None:
            cache_key = self._cache_key(query_branches, query, k)
            cached = self.cache.get(cache_key)
            if cached is not None:
                # Hand out a copy: the serve time of *this* lookup replaces
                # the cold-path latency, and the containers are duplicated so
                # a caller mutating its answer cannot corrupt the cache.
                _CACHE_HITS.inc()
                return self._copy_answer(cached, time.perf_counter() - start)
            _CACHE_MISSES.inc()
        if k is None:
            found = self._core.execute_pruned(query, query_branches=query_branches)
        else:
            found = self._core.execute_topk(query, k, query_branches=query_branches)
        answer = self._answer(found, k, time.perf_counter() - start)
        seconds.observe(answer.elapsed_seconds)
        if self.cache is not None:
            # Cache a private copy for the same reason.
            self.cache.put(cache_key, self._copy_answer(answer, answer.elapsed_seconds))
        return answer

    def query_batch(
        self, queries: Iterable[SimilarityQuery], *, trace=None
    ) -> List[QueryAnswer]:
        """Answer a batch of queries in input order.

        Cached queries are served from the LRU in one probe pass; the
        remainder go through the execution core as one batch — one store
        call for all of them, thresholded and top-k rows alike, each row
        answered as :meth:`query` answers it, reusing the lazily built
        ``(τ̂, |V'1|)`` tables across rows and batches.  A query that occurs
        several times in the batch is scored once and its answer copied to
        the repeats (the cache is probed for the whole batch before any of it
        is scored, so it cannot serve them); top-k rows that differ only in γ
        are repeats.  Answers, rankings and filter counters are identical to
        calling :meth:`query` per query, and every answer's containers are
        its own; each scored answer's latency is the batch scoring time
        amortised over the queries it was scored with.  A top-k row counts
        once under ``path="topk"``, any other once under ``path="batch"``.

        ``trace`` optionally carries a batch-level
        :class:`~repro.obs.trace.QueryTrace`: it is activated thread-locally
        for the duration of the call, so the engine's cache probe and the
        execution core's stage spans record into it — the micro-batcher
        grafts the result into each sampled query's waterfall.
        """
        queries = list(queries)
        if not queries:
            return []
        for query in queries:
            self._validate_tau(query.tau_hat)
        ranked = sum(query.top_k is not None for query in queries)
        _QUERIES_BATCH.inc(len(queries) - ranked)
        _QUERIES_TOPK.inc(ranked)
        batch_started = time.perf_counter()
        with activated(trace):
            answers: List[Optional[QueryAnswer]] = [None] * len(queries)
            pending = []
            pending_branches = []
            pending_keys: List = []
            first_of: Dict = {}  # cache key -> position of the row that gets scored
            repeats: List[Tuple[int, int]] = []
            probe_started = time.perf_counter()
            for position, query in enumerate(queries):
                if self.cache is None:
                    pending.append(position)
                    pending_branches.append(query.branches())
                    pending_keys.append(None)
                    continue
                start = time.perf_counter()
                query_branches = query.branches()
                cache_key = self._cache_key(query_branches, query, query.top_k)
                first = first_of.get(cache_key)
                if first is not None:
                    repeats.append((position, first))
                    continue
                cached = self.cache.get(cache_key)
                if cached is not None:
                    _CACHE_HITS.inc()
                    answers[position] = self._copy_answer(
                        cached, time.perf_counter() - start
                    )
                    continue
                _CACHE_MISSES.inc()
                first_of[cache_key] = position
                pending.append(position)
                pending_branches.append(query_branches)
                pending_keys.append(cache_key)
            if trace is not None:
                trace.add("cache_probe", time.perf_counter() - probe_started, depth=0)

            if pending:
                start = time.perf_counter()
                scored = self._core.execute_batch(
                    [queries[position] for position in pending],
                    query_branches=pending_branches,
                )
                elapsed = time.perf_counter() - start
                if trace is not None:
                    trace.add("score", elapsed, depth=0)
                per_query_elapsed = elapsed / len(pending)
                for position, found, cache_key in zip(pending, scored, pending_keys):
                    answer = self._answer(found, queries[position].top_k, per_query_elapsed)
                    answers[position] = answer
                    if self.cache is not None:
                        self.cache.put(
                            cache_key, self._copy_answer(answer, per_query_elapsed)
                        )
                for position, first in repeats:
                    answers[position] = self._copy_answer(answers[first], per_query_elapsed)
        _SECONDS_BATCH.observe(time.perf_counter() - batch_started)
        return answers  # type: ignore[return-value]

    def _answer(self, found, k: Optional[int], elapsed: float) -> QueryAnswer:
        """Assemble a :class:`QueryAnswer` from the core's hits, or from its ranking (``k``)."""
        if k is None:
            ids, scores = found
            return QueryAnswer(
                method=self.method_name,
                accepted_ids=frozenset(ids),
                scores=dict(zip(ids, scores)),
                elapsed_seconds=elapsed,
            )
        return QueryAnswer(
            method=self.method_name,
            accepted_ids=frozenset(graph_id for graph_id, _score in found),
            scores=dict(found),
            elapsed_seconds=elapsed,
            ranking=found,
        )

    def search(self, query_graph, tau_hat: int, gamma: float = 0.9) -> QueryAnswer:
        """Convenience wrapper mirroring :meth:`GBDASearch.search`."""
        return self.query(SimilarityQuery(query_graph, tau_hat, gamma))

    # ------------------------------------------------------------------ #
    # filter effectiveness
    # ------------------------------------------------------------------ #
    @property
    def prune_counters(self) -> Dict[str, float]:
        """Cumulative filter-effectiveness counters of the execution core.

        Keys: ``candidates_generated`` / ``candidates_pruned`` /
        ``candidates_verified`` (plus the cost model's ``dense_passes`` /
        ``sparse_passes`` and the derived ``prune_rate``) — see
        :class:`~repro.core.plan.FilterCounters`.
        """
        return self._core.filter_counters.as_dict()

    # ------------------------------------------------------------------ #
    # persistence (delegates to repro.serving.snapshot)
    # ------------------------------------------------------------------ #
    def save(self, path) -> None:
        """Serialize the fitted engine to a versioned on-disk snapshot."""
        from repro.serving.snapshot import save_engine

        save_engine(self, path)

    @classmethod
    def load(cls, path) -> "BatchQueryEngine":
        """Restore an engine from :meth:`save` output without re-fitting."""
        from repro.serving.snapshot import load_engine

        return load_engine(path)

    def __repr__(self) -> str:
        return (
            f"<BatchQueryEngine |D|={len(self.database)} max_tau={self.max_tau} "
            f"tables={self.num_cached_tables} cache={self.cache_size or 'off'}>"
        )
