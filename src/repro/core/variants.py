"""GBDA ablation variants V1 and V2 (Section VII-D).

* **GBDA-V1** replaces the per-pair extended order ``|V'1| = max(|V_Q|,
  |V_G|)`` in Λ1 and Λ3 with the *average* vertex count of a small sample of
  ``α`` database graphs.  It trades per-pair fidelity for an even cheaper
  online stage; the paper shows it loses F1 for small thresholds (τ̂ ≤ 4).
* **GBDA-V2** replaces the GBD with the weighted variant VGBD
  (Equation 26) with a user-chosen weight ``w`` when computing Λ1 and Λ2.

Both variants reuse the entire GBDA machinery and only override the hooks
that differ, so their code doubles as documentation of exactly where the
ablations deviate from Algorithm 1.  The shared execution core's tables
score plain GBDA, so a variant answers threshold and top-k queries alike
with its own per-pair loop, which is also its reference.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.core.branches import branch_multiset
from repro.core.gbd import variant_graph_branch_distance
from repro.core.search import GBDASearch, SearchResult
from repro.db.database import GraphDatabase, StoredGraph
from repro.db.query import QueryAnswer, SimilarityQuery
from repro.exceptions import SearchError
from repro.stats.sampling import sample_items, sample_pairs

__all__ = ["GBDAV1Search", "GBDAV2Search"]


class _VariantSearch(GBDASearch):
    """Algorithm 1's per-pair loop with one hook: the ``(ϕ, |V'1|)`` of a pair."""

    def _pair(
        self, query: SimilarityQuery, query_branches: Counter, entry: StoredGraph
    ) -> Tuple[int, int]:
        """The statistic ϕ and extended order the variant scores one pair by."""
        raise NotImplementedError

    def query(self, query: SimilarityQuery) -> SearchResult:
        """Steps 2–4 of Algorithm 1, scoring every pair by :meth:`_pair`."""
        self._require_fitted()
        self._core.validate_tau(query.tau_hat)
        start = time.perf_counter()
        query_branches = branch_multiset(query.query_graph)
        gbd_values: Dict[int, int] = {}
        posteriors: Dict[int, float] = {}
        accepted: List[int] = []
        for entry in self.database:
            phi, extended_order = self._pair(query, query_branches, entry)
            gbd_values[entry.graph_id] = phi
            posterior = self.estimator.posterior(phi, query.tau_hat, extended_order)
            posteriors[entry.graph_id] = posterior
            if posterior >= query.gamma:
                accepted.append(entry.graph_id)
        answer = QueryAnswer(
            method=self.method_name,
            accepted_ids=frozenset(accepted),
            scores=dict(posteriors),
            elapsed_seconds=time.perf_counter() - start,
        )
        return SearchResult(answer=answer, gbd_values=gbd_values, posteriors=posteriors)

    def _ranking(self, query: SimilarityQuery, k: int) -> List[Tuple[int, float]]:
        """The first ``k`` of the γ = 0 loop by ``(-posterior, graph id)``."""
        scored = self.query(SimilarityQuery(query.query_graph, query.tau_hat, 0.0)).posteriors
        return sorted(scored.items(), key=lambda item: (-item[1], item[0]))[: int(k)]


class GBDAV1Search(_VariantSearch):
    """GBDA-V1: fixed extended order taken from a database sample.

    Parameters
    ----------
    alpha:
        Number of database graphs sampled to compute the average vertex
        count used as the (single) extended order |V'1|.
    """

    method_name = "GBDA-V1"

    def __init__(self, database: GraphDatabase, *, alpha: int = 50, **kwargs) -> None:
        super().__init__(database, **kwargs)
        if alpha < 1:
            raise SearchError("GBDA-V1 requires a positive sample size α")
        self.alpha = int(alpha)
        self.fixed_extended_order: Optional[int] = None

    def fit(self, *, extended_orders=None) -> "GBDAV1Search":
        rng = random.Random(self.seed)
        sampled = sample_items(self.database.graphs(), self.alpha, seed=rng)
        average_vertices = sum(graph.num_vertices for graph in sampled) / len(sampled)
        self.fixed_extended_order = max(int(round(average_vertices)), 1)
        # Λ3 only needs the single fixed order; Λ2 is unchanged.
        super().fit(extended_orders=[self.fixed_extended_order])
        return self

    def _pair(self, query, query_branches, entry):
        """Identical to Algorithm 1 except every pair uses the fixed |V'1|."""
        gbd_value = self.database.gbd_to(
            query.query_graph, entry.graph_id, query_branches=query_branches
        )
        return gbd_value, self.fixed_extended_order


class GBDAV2Search(_VariantSearch):
    """GBDA-V2: the weighted VGBD of Equation (26) replaces GBD everywhere.

    Parameters
    ----------
    weight:
        The multiplier ``w`` applied to the branch-intersection size.  The
        paper evaluates ``w ∈ {0.1, 0.5}``.
    """

    method_name = "GBDA-V2"

    def __init__(self, database: GraphDatabase, *, weight: float = 0.5, **kwargs) -> None:
        super().__init__(database, **kwargs)
        if weight < 0:
            raise SearchError("the VGBD weight must be non-negative")
        self.weight = float(weight)

    def fit(self, *, extended_orders=None) -> "GBDAV2Search":
        super().fit(extended_orders=extended_orders)
        # Re-fit Λ2 on VGBD samples: the prior must describe the statistic
        # actually observed online (Section VII-D).
        entries = self.database.entries()
        rng = random.Random(self.seed)
        pair_ids = sample_pairs(range(len(entries)), self.num_prior_pairs, seed=rng)
        sampled = {index for pair in pair_ids for index in pair}
        multisets = {index: branch_multiset(entries[index].graph) for index in sampled}
        vgbd_samples = []
        for i, j in pair_ids:
            value = variant_graph_branch_distance(
                entries[i].graph,
                entries[j].graph,
                self.weight,
                branches1=multisets[i],
                branches2=multisets[j],
            )
            vgbd_samples.append(int(math.floor(value + 0.5)))
        if vgbd_samples:
            self.gbd_prior.fit_from_samples(
                vgbd_samples, max_value=self.database.max_vertices
            )
        return self

    def _pair(self, query, query_branches, entry):
        """Algorithm 1 with VGBD in Steps 2 and 3."""
        vgbd_value = self.database.vgbd_to(
            query.query_graph, entry.graph_id, self.weight, query_branches=query_branches
        )
        extended_order = max(query.query_graph.num_vertices, entry.num_vertices)
        return max(int(math.floor(vgbd_value + 0.5)), 0), extended_order
