"""GBDA graph similarity search (Algorithm 1).

The search proceeds in two stages, mirroring Section VI:

* **Offline** (:meth:`GBDASearch.fit`): pre-compute the GBD prior Λ2 (GMM
  over sampled pair GBDs, Section V-B) and the GED prior Λ3 (Jeffreys prior
  over the (τ, |V'1|) grid, Section V-C).
* **Online** (:meth:`GBDASearch.query`): for every database graph, compute
  ``GBD(Q, G)`` from pre-computed branch multisets (Step 2, ``O(nd)``),
  evaluate ``Φ = Pr[GED <= τ̂ | GBD = ϕ]`` (Step 3, ``O(τ̂³)``), and accept
  the graph when ``Φ >= γ`` (Step 4).

An optional branch-index pruning step (``use_index_pruning=True``) skips the
probabilistic scoring for graphs whose GBD already certifies ``GED > τ̂``
(one edit operation changes at most two branches); it is off by default to
stay faithful to Algorithm 1 and is exercised by the ablation benchmark.

The online steps themselves live in the shared
:class:`~repro.core.plan.ExecutionCore` (one implementation for this
search and the batched serving engine);
:meth:`GBDASearch.query_reference` keeps the literal per-pair loop as the
bit-identical baseline the vectorized paths are verified against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.branches import branch_multiset
from repro.core.estimator import GBDAEstimator
from repro.core.gbd_prior import GBDPrior
from repro.core.ged_prior import GEDPrior
from repro.core.plan import ExecutionCore
from repro.db.database import GraphDatabase
from repro.db.index import BranchInvertedIndex
from repro.db.query import QueryAnswer, SimilarityQuery
from repro.exceptions import SearchError
from repro.graphs.graph import Graph

__all__ = ["GBDASearch", "SearchResult"]


@dataclass
class SearchResult:
    """Detailed output of one GBDA query (a superset of :class:`QueryAnswer`)."""

    answer: QueryAnswer
    gbd_values: Dict[int, int]
    posteriors: Dict[int, float]

    @property
    def accepted_ids(self):
        """Ids of the accepted graphs (delegates to the answer)."""
        return self.answer.accepted_ids


class GBDASearch:
    """Graph similarity search with Graph Branch Distance Approximation.

    Parameters
    ----------
    database:
        The graph database ``D`` to search (branch multisets pre-computed).
    max_tau:
        Largest similarity threshold the offline priors must support.
    num_prior_pairs:
        Number of pairs ``N`` sampled when estimating the GBD prior.
    num_gmm_components:
        Number of mixture components ``K``.
    seed:
        Seed for the offline sampling / GMM initialisation.
    use_index_pruning:
        When true, graphs with ``GBD > 2 τ̂`` are rejected without scoring.
    backend:
        EM backend for the GBD-prior fit (``"auto"``, ``"numpy"`` or
        ``"python"``); forwarded to :class:`~repro.core.gbd_prior.GBDPrior`.
    """

    method_name = "GBDA"

    def __init__(
        self,
        database: GraphDatabase,
        *,
        max_tau: int = 10,
        num_prior_pairs: int = 10_000,
        num_gmm_components: int = 3,
        seed: int = 0,
        use_index_pruning: bool = False,
        backend: str = "auto",
    ) -> None:
        if len(database) == 0:
            raise SearchError("cannot build a search over an empty database")
        self.database = database
        self.max_tau = int(max_tau)
        self.num_prior_pairs = int(num_prior_pairs)
        self.num_gmm_components = int(num_gmm_components)
        self.seed = seed
        self.use_index_pruning = use_index_pruning
        self.backend = backend

        self.gbd_prior: Optional[GBDPrior] = None
        self.ged_prior: Optional[GEDPrior] = None
        self.estimator: Optional[GBDAEstimator] = None
        self._core: Optional[ExecutionCore] = None
        self.offline_seconds: float = 0.0

    @property
    def _index(self) -> Optional[BranchInvertedIndex]:
        """The branch index, or ``None`` until the first query builds it."""
        return self._core.index if self._core is not None else None

    # ------------------------------------------------------------------ #
    # offline stage (Step 1 of Algorithm 1)
    # ------------------------------------------------------------------ #
    def fit(self, *, extended_orders: Optional[Iterable[int]] = None) -> "GBDASearch":
        """Pre-compute the priors Λ2 and Λ3 (the * step of Algorithm 1).

        ``extended_orders`` optionally restricts the GED-prior grid; by
        default every distinct vertex count present in the database is
        covered, which is the worst case the paper's Table V analyses.
        """
        start = time.perf_counter()
        self.gbd_prior = GBDPrior(
            num_components=self.num_gmm_components,
            num_pairs=self.num_prior_pairs,
            seed=self.seed,
            backend=self.backend,
        ).fit(self.database)

        if extended_orders is None:
            extended_orders = sorted({entry.num_vertices for entry in self.database})
        self.ged_prior = GEDPrior(
            max_tau=self.max_tau,
            num_vertex_labels=self.database.num_vertex_labels,
            num_edge_labels=self.database.num_edge_labels,
        ).fit(extended_orders)

        self.estimator = GBDAEstimator(
            self.gbd_prior,
            self.ged_prior,
            self.database.num_vertex_labels,
            self.database.num_edge_labels,
        )
        self._core = ExecutionCore(
            self.database, self.estimator, max_tau=self.max_tau, error_class=SearchError
        )
        if self.use_index_pruning:
            self._core.ensure_index()
        self.offline_seconds = time.perf_counter() - start
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether the offline stage has been executed."""
        return self.estimator is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise SearchError("GBDASearch.fit must be called before querying")

    # ------------------------------------------------------------------ #
    # online stage (Steps 2–4 of Algorithm 1)
    # ------------------------------------------------------------------ #
    def query(self, query: SimilarityQuery) -> SearchResult:
        """Answer one similarity query and return the detailed result.

        A thin wrapper over the shared :class:`ExecutionCore`: all GBDs come
        from the columnar branch index in one vectorized pass (the pruned
        path reuses them for the bound filter instead of recomputing), and
        posteriors come from the shared ``(τ̂, |V'1|)`` lookup tables.
        Outputs are the historical dicts, bit-identical to the per-pair
        reference loop (:meth:`query_reference`).
        """
        self._require_fitted()
        self._core.validate_tau(query.tau_hat)
        start = time.perf_counter()
        query_branches = query.branches()
        # When pruning is enabled after fit(), the core builds the index
        # lazily on this first pruned query instead of silently full-scanning
        # (it subscribes to the database, so it tracks later additions).
        scored = self._core.execute(
            query, query_branches=query_branches, use_pruning=self.use_index_pruning
        )

        positions = scored.candidate_positions()
        graph_ids = scored.graph_ids[positions].tolist()
        gbd_values = dict(zip(graph_ids, scored.gbds[positions].tolist()))
        posteriors = dict(zip(graph_ids, scored.posteriors[positions].tolist()))
        accepted = scored.graph_ids[scored.accepted].tolist()

        elapsed = time.perf_counter() - start
        answer = QueryAnswer(
            method=self.method_name,
            accepted_ids=frozenset(accepted),
            scores=dict(posteriors),
            elapsed_seconds=elapsed,
        )
        return SearchResult(answer=answer, gbd_values=gbd_values, posteriors=posteriors)

    def query_reference(self, query: SimilarityQuery) -> SearchResult:
        """Answer one query with the literal per-pair loop of Algorithm 1.

        This is the scalar reference implementation the vectorized paths are
        tested against (and the baseline of the throughput benchmarks): one
        branch-multiset merge and one :meth:`GBDAEstimator.posterior`
        evaluation per database graph, exactly as the paper writes Steps
        2–4.  Answers are bit-identical to :meth:`query`.
        """
        self._require_fitted()
        self._core.validate_tau(query.tau_hat)
        start = time.perf_counter()
        query_branches = branch_multiset(query.query_graph)

        candidate_ids: Sequence[int]
        if self.use_index_pruning:
            index = self._core.ensure_index()
            candidate_ids = index.candidates_by_gbd_bound(
                query.query_graph, query.tau_hat, query_branches=query_branches
            )
        else:
            candidate_ids = [entry.graph_id for entry in self.database]

        gbd_values: Dict[int, int] = {}
        posteriors: Dict[int, float] = {}
        accepted: List[int] = []
        for graph_id in candidate_ids:
            entry = self.database[graph_id]
            gbd_value = self.database.gbd_to(
                query.query_graph, graph_id, query_branches=query_branches
            )
            gbd_values[graph_id] = gbd_value
            extended_order = max(query.query_graph.num_vertices, entry.num_vertices)
            posterior = self.estimator.posterior(gbd_value, query.tau_hat, extended_order)
            posteriors[graph_id] = posterior
            if posterior >= query.gamma:
                accepted.append(graph_id)

        elapsed = time.perf_counter() - start
        answer = QueryAnswer(
            method=self.method_name,
            accepted_ids=frozenset(accepted),
            scores=dict(posteriors),
            elapsed_seconds=elapsed,
        )
        return SearchResult(answer=answer, gbd_values=gbd_values, posteriors=posteriors)

    def query_topk(self, query: SimilarityQuery, k: Optional[int] = None) -> QueryAnswer:
        """Answer a top-k query: the ``k`` database graphs ranked by posterior.

        ``k`` defaults to ``query.top_k``.  The ranking (descending
        posterior, ties broken by ascending graph id) is computed by the
        shared core with bound-based early termination
        (:meth:`~repro.core.plan.ExecutionCore.execute_topk`) and equals the
        first ``k`` entries of :meth:`query_topk_reference` exactly.  With
        ``use_index_pruning`` the ranking covers only the branch-bound
        candidate set, mirroring :meth:`query`.
        """
        self._require_fitted()
        if k is None:
            k = query.top_k
        if k is None:
            raise SearchError("query_topk needs top_k on the query or an explicit k")
        start = time.perf_counter()
        ranking = self._core.execute_topk(query, k, use_pruning=self.use_index_pruning)
        return QueryAnswer(
            method=self.method_name,
            accepted_ids=frozenset(graph_id for graph_id, _score in ranking),
            scores=dict(ranking),
            elapsed_seconds=time.perf_counter() - start,
            ranking=ranking,
        )

    def query_topk_reference(self, query: SimilarityQuery, k: int) -> List:
        """Reference top-k ranking: full γ=0 scoring, sorted, first ``k``.

        Runs the literal per-pair loop (:meth:`query_reference`) with γ=0 —
        so every candidate is scored — and sorts by ``(-posterior, graph
        id)``.  This is the ground truth the early-terminating
        :meth:`query_topk` is verified against.
        """
        reference = self.query_reference(
            SimilarityQuery(query.query_graph, query.tau_hat, 0.0)
        )
        ranked = sorted(reference.posteriors.items(), key=lambda item: (-item[1], item[0]))
        return ranked[: int(k)]

    def search(self, query_graph: Graph, tau_hat: int, gamma: float = 0.9) -> QueryAnswer:
        """Convenience wrapper: build the query object and return just the answer."""
        return self.query(SimilarityQuery(query_graph, tau_hat, gamma)).answer

    # ------------------------------------------------------------------ #
    # introspection used by benchmarks
    # ------------------------------------------------------------------ #
    def posterior_for_pair(self, query_graph: Graph, graph_id: int, tau_hat: int) -> float:
        """Posterior ``Pr[GED <= τ̂ | GBD]`` for one (query, database graph) pair."""
        self._require_fitted()
        gbd_value = self.database.gbd_to(query_graph, graph_id)
        entry = self.database[graph_id]
        extended_order = max(query_graph.num_vertices, entry.num_vertices)
        return self.estimator.posterior(gbd_value, tau_hat, extended_order)

    def __repr__(self) -> str:
        state = "fitted" if self.is_fitted else "unfitted"
        return f"<GBDASearch |D|={len(self.database)} max_tau={self.max_tau} ({state})>"
