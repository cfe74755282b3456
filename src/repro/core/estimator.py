"""Posterior estimator ``Pr[GED <= τ̂ | GBD = ϕ]`` (Equations 3–7, Step 3 of Algorithm 1).

The estimator combines the three Λ terms:

* ``Λ1(τ, ϕ)`` — the conditional branch-edit model (:class:`BranchEditModel`);
* ``Λ2(ϕ)``    — the GBD prior (:class:`~repro.core.gbd_prior.GBDPrior`);
* ``Λ3(τ)``    — the GED Jeffreys prior (:class:`~repro.core.ged_prior.GEDPrior`);

and evaluates

``Φ = Σ_{τ=0}^{τ̂} Λ1(Q', G'; τ, ϕ) · Λ3(Q', G'; τ) / Λ2(Q', G'; ϕ)``.

A per-extended-order cache of :class:`BranchEditModel` instances gives the
``O(τ̂³)`` online cost of Section VI-B: for each distinct ``|V'1|`` the Λ1
columns are computed once and re-used across all database graphs of that
size and all thresholds ``τ <= τ̂``.

:meth:`GBDAEstimator.fit` is the offline stage (Step 1 of Algorithm 1) in
one call: Λ2 and Λ3 fitted on a database and combined into an estimator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.core.gbd_prior import GBDPrior
from repro.core.ged_prior import GEDPrior
from repro.core.model import BranchEditModel
from repro.exceptions import EstimationError

if TYPE_CHECKING:
    from repro.db.database import GraphDatabase

__all__ = ["GBDAEstimator"]


class GBDAEstimator:
    """Posterior probability estimator for the GBDA similarity filter.

    Parameters
    ----------
    gbd_prior:
        A fitted :class:`GBDPrior` (Λ2).
    ged_prior:
        A fitted :class:`GEDPrior` (Λ3).
    num_vertex_labels, num_edge_labels:
        Label alphabet sizes of the dataset; they parameterise Λ1.
    """

    def __init__(
        self,
        gbd_prior: GBDPrior,
        ged_prior: GEDPrior,
        num_vertex_labels: int,
        num_edge_labels: int,
    ) -> None:
        if not gbd_prior.is_fitted:
            raise EstimationError("the GBD prior must be fitted before building the estimator")
        if not ged_prior.is_fitted:
            raise EstimationError("the GED prior must be fitted before building the estimator")
        self.gbd_prior = gbd_prior
        self.ged_prior = ged_prior
        self.num_vertex_labels = int(num_vertex_labels)
        self.num_edge_labels = int(num_edge_labels)
        self._models: Dict[int, BranchEditModel] = {}

    @classmethod
    def fit(
        cls,
        database: "GraphDatabase",
        *,
        max_tau: int,
        num_prior_pairs: int,
        num_gmm_components: int,
        seed: int,
        orders: Optional[Iterable[int]] = None,
    ) -> "GBDAEstimator":
        """Run the offline stage on ``database``: fit Λ2 and Λ3, return the estimator.

        Λ2 is a ``num_gmm_components``-component GMM over the GBDs of
        ``num_prior_pairs`` sampled pairs (Section V-B); Λ3 the Jeffreys
        grid over τ ≤ ``max_tau`` and the extended ``orders`` (Section V-C),
        by default every distinct vertex count in the database — the worst
        case the paper's Table V analyses.  The priors are the returned
        estimator's ``gbd_prior`` and ``ged_prior``.
        """
        gbd_prior = GBDPrior(
            num_components=num_gmm_components, num_pairs=num_prior_pairs, seed=seed
        ).fit(database)
        if orders is None:
            orders = sorted({entry.num_vertices for entry in database})
        ged_prior = GEDPrior(
            max_tau=max_tau,
            num_vertex_labels=database.num_vertex_labels,
            num_edge_labels=database.num_edge_labels,
        ).fit(orders)
        return cls(gbd_prior, ged_prior, database.num_vertex_labels, database.num_edge_labels)

    # ------------------------------------------------------------------ #
    # model cache
    # ------------------------------------------------------------------ #
    def model_for(self, extended_order: int) -> BranchEditModel:
        """Return (and cache) the conditional model for one extended order."""
        order = max(int(extended_order), 1)
        model = self._models.get(order)
        if model is None:
            model = BranchEditModel(order, self.num_vertex_labels, self.num_edge_labels)
            self._models[order] = model
        return model

    # ------------------------------------------------------------------ #
    # posterior
    # ------------------------------------------------------------------ #
    def posterior(self, gbd_value: int, tau_hat: int, extended_order: int) -> float:
        """Return ``Φ = Pr[GED <= τ̂ | GBD = ϕ]`` for one graph pair.

        The returned value is clamped to ``[0, 1]``: the three Λ terms are
        estimated independently (Λ2 by a GMM, Λ3 by a Jeffreys prior), so
        their Bayes combination is not guaranteed to be normalised — the
        paper applies it as a score against the probability threshold γ, and
        so do we.
        """
        if tau_hat < 0:
            raise EstimationError("the similarity threshold must be non-negative")
        if gbd_value < 0:
            raise EstimationError("GBD values are non-negative by definition")

        model = self.model_for(extended_order)
        prior_gbd = self.gbd_prior.probability(gbd_value)
        total = 0.0
        for tau in range(tau_hat + 1):
            conditional = model.lambda1(tau, gbd_value)
            if conditional <= 0.0:
                continue
            prior_ged = self.ged_prior.probability(tau, extended_order)
            total += conditional * prior_ged / prior_gbd
        return min(max(total, 0.0), 1.0)

    def posterior_profile(self, gbd_value: int, tau_hat: int, extended_order: int) -> List[float]:
        """Return the per-τ contributions ``Λ1·Λ3/Λ2`` for τ in ``0..τ̂``.

        Useful for diagnostics and for the worked example of the paper
        (Example 7 lists the individual summands).

        The contributions are reconciled with :meth:`posterior`'s ``[0, 1]``
        clamp: the cumulative sum of the returned list is clamped to 1, so
        ``sum(posterior_profile(...))`` agrees with ``posterior(...)`` (to
        floating-point round-off) even when the raw Bayes summands total
        more than 1 — previously the unclamped summands silently disagreed
        with the clamped posterior.
        """
        if tau_hat < 0:
            raise EstimationError("the similarity threshold must be non-negative")
        if gbd_value < 0:
            raise EstimationError("GBD values are non-negative by definition")
        model = self.model_for(extended_order)
        prior_gbd = self.gbd_prior.probability(gbd_value)
        contributions = []
        cumulative = 0.0
        for tau in range(tau_hat + 1):
            conditional = model.lambda1(tau, gbd_value)
            prior_ged = self.ged_prior.probability(tau, extended_order)
            raw = conditional * prior_ged / prior_gbd if conditional > 0 else 0.0
            # Each entry is the increment of the clamped running sum, so the
            # profile telescopes to min(Σ raw, 1) — bit-identical to the
            # value posterior() returns (same accumulation order).
            before = cumulative
            cumulative += raw
            contributions.append(min(cumulative, 1.0) - min(before, 1.0))
        return contributions

    def posterior_row(self, tau_hat: int, extended_order: int) -> List[float]:
        """Return ``[Φ(ϕ, τ̂, |V'1|) for ϕ in 0..|V'1|]`` for one extended order.

        ``GBD(Q, G) = max(|V1|, |V2|) - |B_Q ∩ B_G|`` never exceeds the
        extended order, so the row covers every reachable GBD value.  Each
        entry is produced by :meth:`posterior`, so tabulated scores are
        bit-identical to the per-pair path.
        """
        if tau_hat < 0:
            raise EstimationError("the similarity threshold must be non-negative")
        order = max(int(extended_order), 1)
        return [self.posterior(gbd, tau_hat, order) for gbd in range(order + 1)]

    def accepts(
        self,
        gbd_value: int,
        tau_hat: int,
        extended_order: int,
        gamma: float,
        *,
        posterior: Optional[float] = None,
    ) -> bool:
        """Step 4 of Algorithm 1: accept the graph when ``Φ >= γ``."""
        if not 0.0 <= gamma <= 1.0:
            raise EstimationError("the probability threshold γ must lie in [0, 1]")
        value = self.posterior(gbd_value, tau_hat, extended_order) if posterior is None else posterior
        return value >= gamma

    def __repr__(self) -> str:
        return (
            f"<GBDAEstimator |LV|={self.num_vertex_labels} |LE|={self.num_edge_labels} "
            f"cached_orders={sorted(self._models)}>"
        )
