"""GBDA graph similarity search (Algorithm 1).

The search proceeds in two stages, mirroring Section VI:

* **Offline** (:meth:`GBDASearch.fit`): pre-compute the GBD prior Λ2 (GMM
  over sampled pair GBDs, Section V-B) and the GED prior Λ3 (Jeffreys prior
  over the (τ, |V'1|) grid, Section V-C) with
  :meth:`~repro.core.estimator.GBDAEstimator.fit` — the offline stage
  :class:`~repro.offline.fitter.OfflineFitter` runs too.
* **Online** (:meth:`GBDASearch.query`): for every database graph, compute
  ``GBD(Q, G)`` from the database's branch store (Step 2, ``O(nd)``),
  evaluate ``Φ = Pr[GED <= τ̂ | GBD = ϕ]`` (Step 3, ``O(τ̂³)``), and accept
  the graph when ``Φ >= γ`` (Step 4).

An optional branch-index pruning step (``use_index_pruning=True``) leaves
out the graphs whose GBD already certifies ``GED > τ̂`` (one edit operation
changes at most two branches); it is off by default to stay faithful to
Algorithm 1 and is exercised by the ablation benchmark.  It is a post-filter
over the every-posterior scores of :meth:`ExecutionCore.execute
<repro.core.plan.ExecutionCore.execute>` (:func:`within_branch_bound`), so
nothing below the search knows of it.  The serving engine answers without
it, so :meth:`BatchQueryEngine.from_search
<repro.serving.engine.BatchQueryEngine.from_search>` refuses a pruning
search.

The online steps themselves live in the shared
:class:`~repro.core.plan.ExecutionCore` (one implementation for this
search and the batched serving engine);
:func:`repro.testing.oracles.query_reference` keeps the literal per-pair
loop as the bit-identical baseline the vectorized paths are verified
against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.estimator import GBDAEstimator
from repro.core.gbd_prior import GBDPrior
from repro.core.gbd import max_gbd_for_ged
from repro.core.ged_prior import GEDPrior
from repro.core.plan import CandidateScores, ExecutionCore
from repro.db.database import GraphDatabase
from repro.db.query import QueryAnswer, SimilarityQuery, validate_top_k
from repro.exceptions import SearchError
from repro.graphs.graph import Graph

__all__ = ["GBDASearch", "SearchResult", "within_branch_bound"]


def within_branch_bound(scored: CandidateScores, tau_hat: int) -> CandidateScores:
    """The graphs of ``scored`` with ``GBD <= 2 τ̂``: the ``use_index_pruning`` filter.

    A graph beyond the branch bound is neither a candidate nor accepted; the
    ones within keep their posteriors, so the thresholded answer is
    ``accepted ∧ GBD <= 2 τ̂`` and the top-k answer the first ``k`` of the
    γ = 0 ranking restricted to ``GBD <= 2 τ̂``.
    """
    keep = scored.gbds <= max_gbd_for_ged(tau_hat)
    return CandidateScores(
        scored.graph_ids[keep], scored.gbds[keep], scored.posteriors[keep], scored.accepted[keep]
    )


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
        The graph database ``D`` to search (its branch store pre-computed).
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
    ) -> None:
        if len(database) == 0:
            raise SearchError("cannot build a search over an empty database")
        self.database = database
        self.max_tau = int(max_tau)
        self.num_prior_pairs = int(num_prior_pairs)
        self.num_gmm_components = int(num_gmm_components)
        self.seed = seed
        self.use_index_pruning = use_index_pruning

        self.gbd_prior: Optional[GBDPrior] = None
        self.ged_prior: Optional[GEDPrior] = None
        self.estimator: Optional[GBDAEstimator] = None
        self._core: Optional[ExecutionCore] = None
        self.offline_seconds: float = 0.0

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
        self.estimator = GBDAEstimator.fit(
            self.database,
            max_tau=self.max_tau,
            num_prior_pairs=self.num_prior_pairs,
            num_gmm_components=self.num_gmm_components,
            seed=self.seed,
            orders=extended_orders,
        )
        self.gbd_prior = self.estimator.gbd_prior
        self.ged_prior = self.estimator.ged_prior
        self._core = ExecutionCore(
            self.database, self.estimator, max_tau=self.max_tau, error_class=SearchError
        )
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
        from the columnar branch store in one vectorized pass (the
        ``use_index_pruning`` filter reads them instead of recomputing), and
        posteriors come from the shared ``(τ̂, |V'1|)`` lookup tables.
        Outputs are the historical dicts, bit-identical to the per-pair
        reference loop (:func:`repro.testing.oracles.query_reference`).
        """
        self._require_fitted()
        start = time.perf_counter()
        scored = self._scored(query)  # the core checks τ̂ first
        graph_ids = scored.graph_ids.tolist()
        gbd_values = dict(zip(graph_ids, scored.gbds.tolist()))
        posteriors = dict(zip(graph_ids, scored.posteriors.tolist()))
        accepted = scored.graph_ids[scored.accepted].tolist()

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
        first ``k`` entries of the γ = 0 reference ranking
        (:func:`repro.testing.oracles.query_topk_reference`) exactly.  With
        ``use_index_pruning`` the ranking is the first ``k`` of the γ = 0
        scores restricted to the branch-bound candidate set, mirroring
        :meth:`query`.
        """
        self._require_fitted()
        if k is None:
            k = query.top_k
        if k is None:
            raise SearchError("query_topk needs top_k on the query or an explicit k")
        k = validate_top_k(k, SearchError)
        start = time.perf_counter()
        ranking = self._ranking(query, k)
        return QueryAnswer(
            method=self.method_name,
            accepted_ids=frozenset(graph_id for graph_id, _score in ranking),
            scores=dict(ranking),
            elapsed_seconds=time.perf_counter() - start,
            ranking=ranking,
        )

    def _scored(self, query: SimilarityQuery) -> CandidateScores:
        """Every candidate's posterior: the core's dense scores, through the ablation filter."""
        # The database's store holds every graph added so far, later ones included.
        scored = self._core.execute(query)
        return within_branch_bound(scored, query.tau_hat) if self.use_index_pruning else scored

    def _ranking(self, query: SimilarityQuery, k: int) -> List[Tuple[int, float]]:
        """The top-``k`` ``(graph id, posterior)`` pairs :meth:`query_topk` returns."""
        if self.use_index_pruning:
            return self._scored(query).ranking(k)
        return self._core.execute_topk(query, k)

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
