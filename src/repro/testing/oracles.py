"""Scalar references the vectorised library code is held to in tests.

* :func:`lambda1_oracle` / :func:`lambda1_dtau_oracle` — Equations (8) and
  (35) unfactored: one O(τ³) triple loop over the exact Ω factors per
  ``(τ, ϕ)``, the sums :class:`~repro.core.model.BranchEditModel` evaluates
  factored, as ``Ω3 · P_τ``.
* :func:`fit_gmm_oracle` — the Gaussian mixture's EM written per sample
  and per component, the loop
  :meth:`~repro.stats.gmm.GaussianMixtureModel.fit` runs as array
  operations (same seeding, random stream and convergence test).
* :func:`query_reference` / :func:`query_topk_reference` — Steps 2–4 of
  Algorithm 1 as the paper writes them, one branch-multiset merge and one
  :meth:`~repro.core.estimator.GBDAEstimator.posterior` per (query, graph)
  pair, against which every online path of
  :class:`~repro.core.plan.ExecutionCore` is held bit for bit.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Sequence, Tuple

from repro.core.branches import branch_multiset
from repro.core.gbd import max_gbd_for_ged
from repro.core.omegas import (
    branch_type_count,
    omega1,
    omega1_dtau,
    omega2,
    omega2_dtau,
    omega3,
    omega4,
)
from repro.core.search import GBDASearch, SearchResult
from repro.db.query import QueryAnswer, SimilarityQuery
from repro.stats.distributions import normal_pdf
from repro.stats.gmm import GaussianMixtureModel, MixtureComponent, _variance

__all__ = [
    "fit_gmm_oracle",
    "lambda1_dtau_oracle",
    "lambda1_oracle",
    "query_reference",
    "query_topk_reference",
]


def lambda1_oracle(
    extended_order: int, num_vertex_labels: int, num_edge_labels: int, tau: int, phi: int
) -> float:
    """``Λ1(τ, ϕ)`` (Equation 8), summed in the order the paper writes it."""
    v = extended_order
    if tau < 0 or phi < 0:
        return 0.0
    if tau == 0:
        return 1.0 if phi == 0 else 0.0
    if phi > min(2 * tau, v):
        return 0.0
    branch_types = branch_type_count(v, num_vertex_labels, num_edge_labels)
    total = 0.0
    for x in range(tau + 1):
        weight_x = float(omega1(x, tau, v))
        if weight_x == 0.0:
            continue
        inner_m = 0.0
        for m in range(min(2 * (tau - x), v) + 1):
            weight_m = float(omega2(m, x, tau, v))
            if weight_m == 0.0:
                continue
            inner_r = 0.0
            for r in range(min(x + m, v) + 1):
                weight_r = float(omega4(x, r, m, v))
                if weight_r == 0.0:
                    continue
                inner_r += float(omega3(r, phi, branch_types)) * weight_r
            inner_m += weight_m * inner_r
        total += weight_x * inner_m
    return total


def lambda1_dtau_oracle(
    extended_order: int, num_vertex_labels: int, num_edge_labels: int, tau: int, phi: int
) -> float:
    """``dΛ1/dτ(τ, ϕ)``, the numerator of Equation (35), summed term by term."""
    v = extended_order
    if tau <= 0 or phi < 0 or phi > min(2 * max(tau, 1), v):
        return 0.0
    branch_types = branch_type_count(v, num_vertex_labels, num_edge_labels)
    total = 0.0
    for x in range(tau + 1):
        weight_x = float(omega1(x, tau, v))
        weight_x_dtau = float(omega1_dtau(x, tau, v))
        if weight_x == 0.0 and weight_x_dtau == 0.0:
            continue
        inner_m = 0.0
        inner_m_dtau = 0.0
        for m in range(min(2 * (tau - x), v) + 1):
            weight_m = float(omega2(m, x, tau, v))
            weight_m_dtau = float(omega2_dtau(m, x, tau, v))
            if weight_m == 0.0 and weight_m_dtau == 0.0:
                continue
            inner_r = 0.0
            for r in range(min(x + m, v) + 1):
                weight_r = float(omega4(x, r, m, v))
                if weight_r == 0.0:
                    continue
                inner_r += float(omega3(r, phi, branch_types)) * weight_r
            inner_m += weight_m * inner_r
            inner_m_dtau += weight_m_dtau * inner_r
        total += weight_x * inner_m_dtau + weight_x_dtau * inner_m
    return total


def fit_gmm_oracle(model: GaussianMixtureModel, samples: Sequence[float]) -> GaussianMixtureModel:
    """:meth:`GaussianMixtureModel.fit` with EM written as a per-sample scalar loop.

    Seeds ``model`` as ``fit`` does (its k-means++ draw on its own random
    stream, which a dying component also draws from) and returns it fitted.
    The signature is ``fit``'s, so ``monkeypatch.setattr(GaussianMixtureModel,
    "fit", fit_gmm_oracle)`` makes everything above the mixture
    (``GBDPrior``, ``GBDASearch``) fit by the scalar loop.
    """
    data = [float(x) for x in samples]
    k = min(model.num_components, len(set(data))) or 1
    means = model._initial_means(data, k)
    overall_variance = max(_variance(data), model.variance_floor)
    variances = [overall_variance] * k
    weights = [1.0 / k] * k
    previous_log_likelihood = -math.inf
    n_iterations = 0
    for iteration in range(1, model.max_iterations + 1):
        # E-step: responsibilities
        responsibilities = []
        log_likelihood = 0.0
        for x in data:
            densities = [
                weights[j] * normal_pdf(x, means[j], math.sqrt(variances[j])) for j in range(k)
            ]
            total = sum(densities)
            if total <= 0.0:
                total = 1e-300
                densities = [1e-300 / k] * k
            responsibilities.append([d / total for d in densities])
            log_likelihood += math.log(total)

        # M-step: update weights, means, variances
        for j in range(k):
            resp_j = [responsibilities[i][j] for i in range(len(data))]
            total_resp = sum(resp_j)
            if total_resp <= 1e-12:
                # dead component: re-seed it on a random sample
                means[j] = model._rng.choice(data)
                variances[j] = overall_variance
                weights[j] = 1.0 / len(data)
                continue
            weights[j] = total_resp / len(data)
            means[j] = sum(r * x for r, x in zip(resp_j, data)) / total_resp
            variances[j] = max(
                sum(r * (x - means[j]) ** 2 for r, x in zip(resp_j, data)) / total_resp,
                model.variance_floor,
            )

        weight_sum = sum(weights)
        weights = [w / weight_sum for w in weights]

        n_iterations = iteration
        improvement = log_likelihood - previous_log_likelihood
        if abs(improvement) < model.tolerance * max(abs(log_likelihood), 1.0):
            previous_log_likelihood = log_likelihood
            break
        previous_log_likelihood = log_likelihood

    model.n_iterations_ = n_iterations
    model.log_likelihood_ = previous_log_likelihood
    model.components = [
        MixtureComponent(weight=weights[j], mean=means[j], std=math.sqrt(variances[j]))
        for j in range(k)
    ]
    return model


def query_reference(search: GBDASearch, query: SimilarityQuery) -> SearchResult:
    """Answer one query of a fitted search with the literal per-pair loop.

    One branch-multiset merge and one :meth:`GBDAEstimator.posterior`
    evaluation per database graph, exactly as the paper writes Steps 2–4.
    With the search's ``use_index_pruning`` a graph whose GBD exceeds ``2 τ̂``
    is skipped unscored, by the same per-pair GBD.  The loop reads nothing of
    the columnar store, so it checks the store's kernels rather than sharing
    them.  Answers are bit-identical to :meth:`GBDASearch.query`.
    """
    search._require_fitted()
    search._core.validate_tau(query.tau_hat)
    start = time.perf_counter()
    database, estimator = search.database, search.estimator
    query_branches = branch_multiset(query.query_graph)
    cap = max_gbd_for_ged(query.tau_hat) if search.use_index_pruning else None

    gbd_values: Dict[int, int] = {}
    posteriors: Dict[int, float] = {}
    accepted: List[int] = []
    for entry in database:
        graph_id = entry.graph_id
        gbd_value = database.gbd_to(query.query_graph, graph_id, query_branches=query_branches)
        if cap is not None and gbd_value > cap:
            continue
        gbd_values[graph_id] = gbd_value
        extended_order = max(query.query_graph.num_vertices, entry.num_vertices)
        posterior = estimator.posterior(gbd_value, query.tau_hat, extended_order)
        posteriors[graph_id] = posterior
        if posterior >= query.gamma:
            accepted.append(graph_id)

    answer = QueryAnswer(
        method=search.method_name,
        accepted_ids=frozenset(accepted),
        scores=dict(posteriors),
        elapsed_seconds=time.perf_counter() - start,
    )
    return SearchResult(answer=answer, gbd_values=gbd_values, posteriors=posteriors)


def query_topk_reference(
    search: GBDASearch, query: SimilarityQuery, k: int
) -> List[Tuple[int, float]]:
    """Reference top-k ranking: the γ = 0 loop of :func:`query_reference`, sorted, first ``k``.

    Every candidate is scored and the pairs are sorted by ``(-posterior,
    graph id)``: the ground truth :meth:`GBDASearch.query_topk` and the
    engine's early-terminating top-k are held to.
    """
    reference = query_reference(search, SimilarityQuery(query.query_graph, query.tau_hat, 0.0))
    ranked = sorted(reference.posteriors.items(), key=lambda item: (-item[1], item[0]))
    return ranked[: int(k)]
