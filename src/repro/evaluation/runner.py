"""Experiment runner: execute search methods over a dataset's query workload.

The runner is the shared engine behind every figure of Section VII:

* it builds the :class:`~repro.db.database.GraphDatabase` of a dataset once,
* instantiates the requested methods (GBDA and its variants need an offline
  :meth:`fit`; the baselines are stateless estimators),
* runs the full query workload for each requested ``(τ̂, γ)`` combination,
* and reports per-method average query time plus micro-averaged precision /
  recall / F1 against the dataset's ground truth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.baselines.base import EstimatorSearch, PairwiseGEDEstimator
from repro.core.search import GBDASearch
from repro.datasets.registry import Dataset
from repro.db.database import GraphDatabase
from repro.db.query import QueryAnswer, SimilarityQuery
from repro.evaluation.ground_truth import GroundTruthOracle
from repro.evaluation.metrics import ConfusionCounts, aggregate_counts, evaluate_answer

__all__ = ["MethodResult", "ExperimentRunner"]


@dataclass
class MethodResult:
    """Aggregated outcome of one method at one (τ̂, γ) setting."""

    method: str
    tau_hat: int
    gamma: Optional[float]
    average_query_seconds: float
    counts: ConfusionCounts
    num_queries: int
    offline_seconds: float = 0.0
    answers: List[QueryAnswer] = field(default_factory=list)

    @property
    def precision(self) -> float:
        """Micro-averaged precision over the query workload."""
        return self.counts.precision

    @property
    def recall(self) -> float:
        """Micro-averaged recall over the query workload."""
        return self.counts.recall

    @property
    def f1(self) -> float:
        """Micro-averaged F1 over the query workload."""
        return self.counts.f1


class ExperimentRunner:
    """Run GBDA and baseline searches over a dataset's query workload.

    Parameters
    ----------
    dataset:
        The dataset (database graphs, query graphs, ground truth).
    max_queries:
        Optional cap on the number of query graphs used (keeps benchmark
        wall-clock reasonable while preserving the workload's diversity).
    """

    def __init__(self, dataset: Dataset, *, max_queries: Optional[int] = None) -> None:
        self.dataset = dataset
        self.oracle = GroundTruthOracle(dataset)
        self.database: GraphDatabase = self.oracle.build_database()
        num_queries = len(dataset.query_graphs)
        if max_queries is not None:
            num_queries = min(num_queries, max_queries)
        self.query_indices = list(range(num_queries))
        self._gbda_cache: Dict[tuple, GBDASearch] = {}

    # ------------------------------------------------------------------ #
    # method construction
    # ------------------------------------------------------------------ #
    def gbda(
        self,
        *,
        max_tau: int,
        num_prior_pairs: int = 2000,
        num_gmm_components: int = 3,
        seed: int = 0,
        use_index_pruning: bool = False,
    ) -> GBDASearch:
        """Return a fitted GBDA search (cached per configuration)."""
        key = (max_tau, num_prior_pairs, num_gmm_components, seed, use_index_pruning)
        if key not in self._gbda_cache:
            search = GBDASearch(
                self.database,
                max_tau=max_tau,
                num_prior_pairs=num_prior_pairs,
                num_gmm_components=num_gmm_components,
                seed=seed,
                use_index_pruning=use_index_pruning,
            )
            search.fit()
            self._gbda_cache[key] = search
        return self._gbda_cache[key]

    def baseline(self, estimator: PairwiseGEDEstimator) -> EstimatorSearch:
        """Wrap a pairwise estimator into a similarity search over the database."""
        return EstimatorSearch(self.database, estimator)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run_gbda(
        self,
        search: GBDASearch,
        tau_hat: int,
        gamma: float,
        *,
        method_label: Optional[str] = None,
    ) -> MethodResult:
        """Run the GBDA (or variant) search over the whole query workload."""
        counts: List[ConfusionCounts] = []
        answers: List[QueryAnswer] = []
        total_seconds = 0.0
        for query_index in self.query_indices:
            query_graph = self.dataset.query_graphs[query_index]
            start = time.perf_counter()
            result = search.query(SimilarityQuery(query_graph, tau_hat, gamma))
            total_seconds += time.perf_counter() - start
            answer = result.answer
            answers.append(answer)
            truth = self.oracle.answer_set(query_index, tau_hat)
            counts.append(evaluate_answer(answer.accepted_ids, truth))
        num_queries = max(len(self.query_indices), 1)
        return MethodResult(
            method=method_label or search.method_name,
            tau_hat=tau_hat,
            gamma=gamma,
            average_query_seconds=total_seconds / num_queries,
            counts=aggregate_counts(counts),
            num_queries=len(self.query_indices),
            offline_seconds=search.offline_seconds,
            answers=answers,
        )

    def run_baseline(
        self,
        estimator: PairwiseGEDEstimator,
        tau_hat: int,
        *,
        method_label: Optional[str] = None,
    ) -> MethodResult:
        """Run a baseline estimator-search over the whole query workload."""
        search = self.baseline(estimator)
        counts: List[ConfusionCounts] = []
        answers: List[QueryAnswer] = []
        total_seconds = 0.0
        for query_index in self.query_indices:
            query_graph = self.dataset.query_graphs[query_index]
            start = time.perf_counter()
            answer = search.query(SimilarityQuery(query_graph, tau_hat))
            total_seconds += time.perf_counter() - start
            answers.append(answer)
            truth = self.oracle.answer_set(query_index, tau_hat)
            counts.append(evaluate_answer(answer.accepted_ids, truth))
        num_queries = max(len(self.query_indices), 1)
        return MethodResult(
            method=method_label or estimator.method_name,
            tau_hat=tau_hat,
            gamma=None,
            average_query_seconds=total_seconds / num_queries,
            counts=aggregate_counts(counts),
            num_queries=len(self.query_indices),
            answers=answers,
        )

    def run_baseline_multi(
        self,
        estimator: PairwiseGEDEstimator,
        tau_values: Sequence[int],
        *,
        method_label: Optional[str] = None,
    ) -> List[MethodResult]:
        """Evaluate a baseline at several thresholds with a single estimation pass.

        The pairwise estimates do not depend on τ̂, so computing them once per
        query and thresholding afterwards gives exactly the same answers as
        :meth:`run_baseline` at a fraction of the cost — the per-query time
        reported for each threshold is the (shared) estimation time.
        """
        per_query_scores: List[Dict[int, float]] = []
        total_seconds = 0.0
        search = self.baseline(estimator)
        for query_index in self.query_indices:
            query_graph = self.dataset.query_graphs[query_index]
            start = time.perf_counter()
            answer = search.query(SimilarityQuery(query_graph, max(tau_values)))
            total_seconds += time.perf_counter() - start
            per_query_scores.append(answer.scores)
        num_queries = max(len(self.query_indices), 1)

        results = []
        for tau_hat in tau_values:
            counts: List[ConfusionCounts] = []
            answers: List[QueryAnswer] = []
            for position, query_index in enumerate(self.query_indices):
                scores = per_query_scores[position]
                accepted = frozenset(
                    graph_id for graph_id, score in scores.items() if score <= tau_hat
                )
                answers.append(
                    QueryAnswer(
                        method=method_label or estimator.method_name,
                        accepted_ids=accepted,
                        scores=scores,
                    )
                )
                truth = self.oracle.answer_set(query_index, tau_hat)
                counts.append(evaluate_answer(accepted, truth))
            results.append(
                MethodResult(
                    method=method_label or estimator.method_name,
                    tau_hat=tau_hat,
                    gamma=None,
                    average_query_seconds=total_seconds / num_queries,
                    counts=aggregate_counts(counts),
                    num_queries=len(self.query_indices),
                    answers=answers,
                )
            )
        return results

    # ------------------------------------------------------------------ #
    # sweeps
    # ------------------------------------------------------------------ #
    def effectiveness_sweep(
        self,
        tau_values: Sequence[int],
        gamma_values: Sequence[float],
        baselines: Sequence[PairwiseGEDEstimator],
        *,
        max_tau: Optional[int] = None,
        num_prior_pairs: int = 2000,
        seed: int = 0,
    ) -> List[MethodResult]:
        """Run the precision/recall/F1 sweep of Figures 10–21.

        GBDA is evaluated at every (τ̂, γ) combination; each baseline is
        evaluated at every τ̂ (baselines have no γ, and their pairwise
        estimates are computed once and re-thresholded per τ̂).
        """
        tau_values = list(tau_values)
        results: List[MethodResult] = []
        fitted = self.gbda(
            max_tau=max_tau if max_tau is not None else max(tau_values),
            num_prior_pairs=num_prior_pairs,
            seed=seed,
        )
        baseline_results: Dict[str, List[MethodResult]] = {}
        for estimator in baselines:
            baseline_results[estimator.method_name] = self.run_baseline_multi(
                estimator, tau_values
            )
        for position, tau_hat in enumerate(tau_values):
            for gamma in gamma_values:
                results.append(
                    self.run_gbda(
                        fitted, tau_hat, gamma, method_label=f"GBDA(γ={gamma:.2f})"
                    )
                )
            for estimator in baselines:
                results.append(baseline_results[estimator.method_name][position])
        return results
