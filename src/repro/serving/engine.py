"""Batched, vectorized GBDA query engine.

:class:`BatchQueryEngine` answers batches of
:class:`~repro.db.query.SimilarityQuery` against a fitted GBDA model.  It
is a vectorized caller of the shared
:class:`~repro.core.plan.ExecutionCore` — the single implementation of
Algorithm 1's online steps also behind :meth:`GBDASearch.query` — and
exploits the key structural fact of the posterior: ``Φ = Pr[GED <= τ̂ |
GBD = ϕ]`` depends only on the integer triple ``(ϕ, τ̂, |V'1|)``.  Scoring
the whole database is therefore:

1. one pass over the query's branches through the columnar branch index
   (:class:`~repro.db.columnar.ColumnarBranchStore` — CSR postings, one
   ``bincount`` scatter-add) to obtain every GBD at once,
2. a vectorized numpy table lookup mapping GBDs to posteriors, and
3. a single threshold comparison against γ.

:meth:`query_batch` answers a batch in input order.  Steps 2–4 are decided
per (query, graph) pair, so a batch shares no scoring work: its rows go
through the same per-query pipeline as :meth:`query`, one by one
(:meth:`~repro.core.plan.ExecutionCore.execute_batch`).  What a batch saves
is around the scoring — one cache-probe pass that also scores a repeated
query once, and for the service one thread hand-over and one trace per
flush — not a matrix kernel.

Answers are bit-identical to :meth:`GBDASearch.query` (and its scalar
:meth:`~repro.core.search.GBDASearch.query_reference` loop) because the
tables are filled by the very same :meth:`GBDAEstimator.posterior`
evaluations.

For shard-parallel scoring, :meth:`shard_engines` splits the engine into
engines over id-preserving database shards
(:meth:`~repro.db.database.GraphDatabase.shard`) whose per-query answers
:meth:`merge_answers` unions back — the building block of the serving
executor's ``"data-parallel"`` mode.

Repeated queries are served from an optional LRU result cache
(:class:`~repro.serving.cache.QueryResultCache`), and the engine stays
consistent with incremental database additions through the database's
subscription hook.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.estimator import GBDAEstimator
from repro.core.plan import CandidateScores, ExecutionCore
from repro.db.database import GraphDatabase
from repro.db.index import BranchInvertedIndex
from repro.db.query import QueryAnswer, SimilarityQuery
from repro.exceptions import ServingError
from repro.obs.metrics import get_registry
from repro.obs.trace import activated
from repro.serving.cache import QueryResultCache, query_cache_key

__all__ = ["BatchQueryEngine"]

#: Allowed values of the ``keep_scores`` engine option.
_KEEP_SCORES_MODES = ("accepted", "all", "none")

# Children bound once at import time; never stored on engine instances —
# engines are pickled into pool workers (see repro.core.plan for the
# worker-delta protocol).
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
        The graph database ``D`` to serve (non-empty).  An id-preserving
        shard view (:meth:`GraphDatabase.shard`) works too; answers then
        cover the shard's graphs under their global ids.
    estimator:
        A :class:`GBDAEstimator` built from fitted Λ2/Λ3 priors.
    max_tau:
        Largest similarity threshold supported by the priors.
    cache_size:
        Capacity of the LRU result cache; ``None`` or ``0`` disables caching.
    keep_scores:
        Which posterior scores to retain in each answer: ``"accepted"``
        (default — scores of accepted graphs only, keeps serving cheap),
        ``"all"`` (every database graph, matches ``GBDASearch.query``), or
        ``"none"``.
    use_index_pruning:
        Mirror of the :class:`GBDASearch` option: when true, graphs whose
        GBD already certifies ``GED > τ̂`` (``GBD > 2 τ̂``) are rejected
        without scoring, exactly as the pruning search variant does —
        :meth:`from_search` propagates the search's setting so engine
        answers stay identical to the wrapped search either way.
    pruned_execution:
        When true (default) and the engine does not need every candidate's
        posterior (``keep_scores != "all"``), queries run through the
        filter-and-verify path of
        :meth:`~repro.core.plan.ExecutionCore.execute_pruned`: the ``(τ̂,
        γ)`` acceptance rule is inverted into a max-acceptable-GBD
        threshold and candidates are eliminated by O(1) GBD-lower-bound
        arithmetic before any postings traversal.  Answers are bit-identical
        either way; set to false to benchmark the unpruned engine.
    kernel_backend:
        Columnar kernel backend of the engine's branch index: ``"auto"``
        (default — the compiled backend when buildable, numpy otherwise),
        ``"numpy"``, or ``"native"`` (hard error when unbuildable).  See
        :mod:`repro.db.kernels`; answers are bit-identical across backends.
    """

    method_name = "GBDA"

    def __init__(
        self,
        database: GraphDatabase,
        estimator: GBDAEstimator,
        *,
        max_tau: int,
        cache_size: Optional[int] = 256,
        keep_scores: str = "accepted",
        use_index_pruning: bool = False,
        pruned_execution: bool = True,
        kernel_backend: str = "auto",
    ) -> None:
        if len(database) == 0:
            raise ServingError("cannot serve queries over an empty database")
        if max_tau < 0:
            raise ServingError("max_tau must be non-negative")
        if keep_scores not in _KEEP_SCORES_MODES:
            raise ServingError(f"keep_scores must be one of {_KEEP_SCORES_MODES}")
        self.database = database
        self.estimator = estimator
        self.max_tau = int(max_tau)
        self.keep_scores = keep_scores
        self.use_index_pruning = bool(use_index_pruning)
        self.pruned_execution = bool(pruned_execution)
        self.kernel_backend = str(kernel_backend)
        self.cache_size = int(cache_size) if cache_size else 0
        self.cache: Optional[QueryResultCache] = (
            QueryResultCache(self.cache_size) if self.cache_size else None
        )
        # The shared execution core: columnar branch index (subscribed to
        # the database's add-hook) plus the (τ̂, |V'1|) posterior tables.
        self._core = ExecutionCore(
            database,
            estimator,
            max_tau=self.max_tau,
            error_class=ServingError,
            kernel_backend=self.kernel_backend,
        )
        self._core.ensure_index()
        #: Version of the offline model serving the answers.  0 for an
        #: engine built directly from a search; the incremental
        #: OfflineFitter bumps it on every refit so snapshots are ordered.
        self.model_version: int = 0
        # Cached answers are scoped to the database contents: adding graphs
        # must drop them or the cache would keep serving pre-add result
        # sets.  The batched hook clears once per bulk load.
        database.subscribe(self._on_graphs_added, batched=True)

    def _on_graphs_added(self, entries) -> None:
        if self.cache is not None:
            self.cache.clear()

    def __setstate__(self, state):
        # Mirror BranchInvertedIndex.__setstate__: the database sheds its
        # weakly held subscribers on pickling, so re-register the cache
        # invalidation hook in the unpickled copy.
        self.__dict__.update(state)
        self.database.subscribe(self._on_graphs_added, batched=True)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_search(cls, search, **kwargs) -> "BatchQueryEngine":
        """Build an engine from a fitted :class:`~repro.core.search.GBDASearch`."""
        if not getattr(search, "is_fitted", False):
            raise ServingError("the search must be fitted before building a serving engine")
        kwargs.setdefault("use_index_pruning", getattr(search, "use_index_pruning", False))
        return cls(
            search.database,
            search.estimator,
            max_tau=search.max_tau,
            **kwargs,
        )

    @property
    def _index(self) -> BranchInvertedIndex:
        """The columnar branch index owned by the execution core."""
        return self._core.ensure_index()

    @property
    def active_kernel_backend(self) -> str:
        """The *resolved* kernel backend name (``"numpy"`` or ``"native"``).

        May differ from the configured :attr:`kernel_backend` when that is
        ``"auto"``, or when a snapshot configured for the native backend is
        restored on a machine that cannot build it.
        """
        return self._core.ensure_index().store.backend

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
        """Number of ``(τ̂, |V'1|)`` posterior vectors currently materialised."""
        return len(self._core.tables)

    def tables_state(self) -> List[Tuple[int, int, List[float]]]:
        """Export the materialised posterior vectors (snapshot layer)."""
        return [
            (tau_hat, order, vector.tolist())
            for (tau_hat, order), vector in sorted(self._core.tables.items())
        ]

    def load_tables(self, state: Iterable[Tuple[int, int, Sequence[float]]]) -> None:
        """Restore posterior vectors exported by :meth:`tables_state`."""
        for tau_hat, order, values in state:
            self._core.tables[(int(tau_hat), int(order))] = np.asarray(
                values, dtype=np.float64
            )

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def _validate_tau(self, tau_hat: int) -> None:
        # Single source of truth: the core raises ServingError (its
        # configured error_class) with the canonical message.
        self._core.validate_tau(tau_hat)

    def _cache_key(self, query_branches, query: SimilarityQuery, top_k: Optional[int] = None):
        """Cache key scoped to the current database revision and model version."""
        return query_cache_key(
            query_branches,
            query.tau_hat,
            query.gamma,
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

    @property
    def _pruned_path(self) -> bool:
        """Whether filter-and-verify applies: ``keep_scores="all"`` needs every posterior."""
        return self.pruned_execution and self.keep_scores != "all"

    def query(self, query: SimilarityQuery) -> QueryAnswer:
        """Answer one similarity query (cache-backed, vectorized scoring).

        Queries carrying ``top_k`` are routed to :meth:`query_topk`; the
        rest run through the pruned filter-and-verify path when the engine
        configuration allows it (see ``pruned_execution``).
        """
        if query.top_k is not None:
            return self.query_topk(query)
        self._validate_tau(query.tau_hat)
        _QUERIES_SINGLE.inc()
        start = time.perf_counter()
        query_branches = query.branches()
        cache_key = None
        if self.cache is not None:
            cache_key = self._cache_key(query_branches, query)
            cached = self.cache.get(cache_key)
            if cached is not None:
                # Hand out a copy: the serve time of *this* lookup replaces
                # the cold-path latency, and the containers are duplicated so
                # a caller mutating its answer cannot corrupt the cache.
                _CACHE_HITS.inc()
                return self._copy_answer(cached, time.perf_counter() - start)
            _CACHE_MISSES.inc()
        if self._pruned_path:
            scored = self._core.execute_pruned(
                query, query_branches=query_branches, use_pruning=self.use_index_pruning
            )
        else:
            scored = self._core.execute(
                query, query_branches=query_branches, use_pruning=self.use_index_pruning
            )
        answer = self._answer_from_scores(scored, time.perf_counter() - start)
        _SECONDS_SINGLE.observe(answer.elapsed_seconds)
        if self.cache is not None:
            # Cache a private copy for the same reason.
            self.cache.put(cache_key, self._copy_answer(answer, answer.elapsed_seconds))
        return answer

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
        k = int(k)
        if k < 1:
            raise ServingError("top_k must be a positive integer")
        self._validate_tau(query.tau_hat)
        _QUERIES_TOPK.inc()
        start = time.perf_counter()
        query_branches = query.branches()
        cache_key = None
        if self.cache is not None:
            # Rankings are γ-independent, so the key canonicalises γ to 0.0
            # — queries differing only in γ share one cache entry.
            cache_key = query_cache_key(
                query_branches,
                query.tau_hat,
                0.0,
                revision=self.database.revision,
                model_version=self.model_version,
                top_k=k,
            )
            cached = self.cache.get(cache_key)
            if cached is not None:
                _CACHE_HITS.inc()
                return self._copy_answer(cached, time.perf_counter() - start)
            _CACHE_MISSES.inc()
        ranking = self._core.execute_topk(
            query, k, query_branches=query_branches, use_pruning=self.use_index_pruning
        )
        answer = QueryAnswer(
            method=self.method_name,
            accepted_ids=frozenset(graph_id for graph_id, _score in ranking),
            scores=dict(ranking),
            elapsed_seconds=time.perf_counter() - start,
            ranking=ranking,
        )
        _SECONDS_TOPK.observe(answer.elapsed_seconds)
        if self.cache is not None:
            self.cache.put(cache_key, self._copy_answer(answer, answer.elapsed_seconds))
        return answer

    def query_batch(
        self, queries: Iterable[SimilarityQuery], *, trace=None
    ) -> List[QueryAnswer]:
        """Answer a batch of queries in input order.

        Cached queries are served from the LRU in one probe pass; the
        remainder go through the execution core row by row — each the same
        pipeline as :meth:`query`, reusing the lazily built ``(τ̂, |V'1|)``
        tables across rows and batches.  A query that occurs several times
        in the batch is scored once and its answer copied to the repeats
        (the cache is probed for the whole batch before any of it is scored,
        so it cannot serve them).  Answers and filter counters are identical
        to calling :meth:`query` per query; each scored answer's latency is
        the batch scoring time amortised over the queries it was scored with.

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
        # Top-k rows are answered (and counted, path="topk") by query_topk.
        _QUERIES_BATCH.inc(sum(query.top_k is None for query in queries))
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
                if query.top_k is not None:
                    # Top-k queries rank instead of thresholding; answer them
                    # through the dedicated (cache-aware) path.
                    answers[position] = self.query_topk(query)
                    continue
                if self.cache is None:
                    pending.append(position)
                    pending_branches.append(query.branches())
                    pending_keys.append(None)
                    continue
                start = time.perf_counter()
                query_branches = query.branches()
                cache_key = self._cache_key(query_branches, query)
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
                scored_list = self._core.execute_batch(
                    [queries[position] for position in pending],
                    query_branches=pending_branches,
                    use_pruning=self.use_index_pruning,
                    # keep_scores="all" needs every candidate's posterior; the
                    # other modes let a pruned core threshold inside the store
                    # call and materialise only accepted scores.
                    need="full" if self.keep_scores == "all" else "accepted",
                    pruned=self._pruned_path,
                )
                elapsed = time.perf_counter() - start
                if trace is not None:
                    trace.add("score", elapsed, depth=0)
                per_query_elapsed = elapsed / len(pending)
                for position, scored, cache_key in zip(pending, scored_list, pending_keys):
                    answer = self._answer_from_scores(scored, per_query_elapsed)
                    answers[position] = answer
                    if self.cache is not None:
                        self.cache.put(
                            cache_key, self._copy_answer(answer, per_query_elapsed)
                        )
                for position, first in repeats:
                    answers[position] = self._copy_answer(answers[first], per_query_elapsed)
        _SECONDS_BATCH.observe(time.perf_counter() - batch_started)
        return answers  # type: ignore[return-value]

    def _answer_from_scores(self, scored: CandidateScores, elapsed: float) -> QueryAnswer:
        """Assemble a :class:`QueryAnswer` from the core's dense results."""
        accepted_ids = scored.accepted_id_set()
        if self.keep_scores == "all":
            # With pruning, mirror the loop: pruned graphs are never scored.
            scores = scored.scores_dict("candidates")
        elif self.keep_scores == "accepted":
            scores = scored.scores_dict("accepted")
        else:
            scores = {}
        return QueryAnswer(
            method=self.method_name,
            accepted_ids=accepted_ids,
            scores=scores,
            elapsed_seconds=elapsed,
        )

    def search(self, query_graph, tau_hat: int, gamma: float = 0.9) -> QueryAnswer:
        """Convenience wrapper mirroring :meth:`GBDASearch.search`."""
        return self.query(SimilarityQuery(query_graph, tau_hat, gamma))

    # ------------------------------------------------------------------ #
    # shard-parallel scoring
    # ------------------------------------------------------------------ #
    def shard_engines(self, num_shards: int) -> List["BatchQueryEngine"]:
        """Split into engines over id-preserving database shards.

        Each returned engine scores one contiguous shard of the database
        (same estimator, same τ̂ limit, same pruning setting; result caches
        are disabled — merged answers are cached by the caller if at all).
        Because shard views keep global graph ids, the per-shard answers for
        one query merge back with :meth:`merge_answers` into exactly the
        full engine's answer.
        """
        shards = self.database.shard(num_shards)
        engines = []
        for shard in shards:
            engine = BatchQueryEngine(
                shard,
                self.estimator,
                max_tau=self.max_tau,
                cache_size=None,
                keep_scores=self.keep_scores,
                use_index_pruning=self.use_index_pruning,
                pruned_execution=self.pruned_execution,
                kernel_backend=self.kernel_backend,
            )
            engine.model_version = self.model_version
            engines.append(engine)
        return engines

    @staticmethod
    def merge_answers(partials: Sequence[QueryAnswer]) -> QueryAnswer:
        """Union per-shard answers for one query into the full-database answer.

        Acceptance is decided per graph, so the union of the shards'
        accepted sets (and score dicts) is exactly the unsharded answer.
        The merged latency is the slowest shard's — the critical path of a
        parallel execution.
        """
        if not partials:
            raise ServingError("cannot merge an empty list of partial answers")
        accepted: frozenset = frozenset()
        scores: Dict[int, float] = {}
        for partial in partials:
            accepted |= partial.accepted_ids
            scores.update(partial.scores)
        return QueryAnswer(
            method=partials[0].method,
            accepted_ids=accepted,
            scores=scores,
            elapsed_seconds=max(partial.elapsed_seconds for partial in partials),
        )

    @staticmethod
    def merge_topk_answers(partials: Sequence[QueryAnswer], k: int) -> QueryAnswer:
        """Merge per-shard top-k answers into the full-database top-k.

        Each shard's top-k is a superset of the shard's contribution to the
        global top-k, so re-ranking the union of the partial rankings by
        ``(-posterior, graph id)`` and keeping the first ``k`` reproduces
        exactly the unsharded ranking.
        """
        if not partials:
            raise ServingError("cannot merge an empty list of partial answers")
        merged: List[Tuple[int, float]] = []
        for partial in partials:
            merged.extend(partial.ranking or partial.scores.items())
        merged.sort(key=lambda item: (-item[1], item[0]))
        ranking = merged[: int(k)]
        return QueryAnswer(
            method=partials[0].method,
            accepted_ids=frozenset(graph_id for graph_id, _score in ranking),
            scores=dict(ranking),
            elapsed_seconds=max(partial.elapsed_seconds for partial in partials),
            ranking=ranking,
        )

    @staticmethod
    def merge_for(query: SimilarityQuery, partials: Sequence[QueryAnswer]) -> QueryAnswer:
        """Merge per-shard answers of one query, honouring its top-k mode."""
        if query.top_k is not None:
            return BatchQueryEngine.merge_topk_answers(partials, query.top_k)
        return BatchQueryEngine.merge_answers(partials)

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

    def query_sharded(self, query: SimilarityQuery, num_shards: int) -> QueryAnswer:
        """Score ``query`` shard-by-shard in process and merge (parity helper).

        The serving executor's ``"data-parallel"`` mode runs the same
        per-shard scoring across process workers; this in-process form
        exists for tests and diagnostics — it verifies shard decomposition
        without pool overhead.
        """
        partials = [engine.query(query) for engine in self.shard_engines(num_shards)]
        return self.merge_for(query, partials)

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
