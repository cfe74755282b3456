"""Offline GED prior ``Λ3 = Pr[GED = τ]`` via the Jeffreys prior (Section V-C).

Sampling graph pairs and computing exact GEDs is infeasible (NP-hard), so
the paper adopts the non-informative Jeffreys prior computed from the Fisher
information of the conditional model ``Pr[GBD | GED]``:

``Pr[GED = τ] ∝ sqrt( Σ_{ϕ=0}^{2τ} Λ1(τ, ϕ) · Z(τ, ϕ)² )``   (Equation 16)

where ``Z = d/dτ log Pr[GBD | GED]`` is the score function (Equation 17).
The value depends only on τ and the extended order ``|V'1|``, so the offline
stage pre-computes a ``(τ, |V'1|)`` matrix that the online stage looks up in
``O(1)``; that matrix is exactly what Figure 6 visualises and what Table V
prices.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.core.model import BranchEditModel
from repro.exceptions import PriorNotFittedError

__all__ = ["GEDPrior", "GEDPriorReport"]

#: Floor applied to unnormalised Jeffreys weights so that no (τ, v) cell is
#: exactly zero; keeps the posterior well-defined at boundary thresholds.
_WEIGHT_FLOOR = 1e-12


@dataclass
class GEDPriorReport:
    """Book-keeping produced while pre-computing the prior (feeds Table V)."""

    max_tau: int = 0
    orders: List[int] = field(default_factory=list)
    compute_seconds: float = 0.0
    table_entries: int = 0

    @property
    def table_bytes(self) -> int:
        """Approximate storage of the pre-computed matrix (8 bytes per entry)."""
        return 8 * self.table_entries


class GEDPrior:
    """Jeffreys prior of GED values over a ``(τ, |V'1|)`` grid.

    Parameters
    ----------
    max_tau:
        Largest similarity threshold the prior must support (``τ̂``).
    num_vertex_labels, num_edge_labels:
        Label alphabet sizes of the dataset (they parameterise the
        conditional model through the branch-type count ``D``).
    """

    def __init__(self, max_tau: int, num_vertex_labels: int, num_edge_labels: int) -> None:
        if max_tau < 0:
            raise ValueError("max_tau must be non-negative")
        self.max_tau = int(max_tau)
        self.num_vertex_labels = int(num_vertex_labels)
        self.num_edge_labels = int(num_edge_labels)
        self._table: Dict[Tuple[int, int], float] = {}
        self._orders: List[int] = []
        self.report = GEDPriorReport()

    # ------------------------------------------------------------------ #
    # fitting (offline pre-computation)
    # ------------------------------------------------------------------ #
    def fit(self, extended_orders: Iterable[int]) -> "GEDPrior":
        """Pre-compute the Jeffreys prior for every extended order in the input.

        ``extended_orders`` is typically the set of distinct values of
        ``max(|V_Q|, |V_G|)`` that can arise for the dataset — for the
        synthetic datasets that is just the handful of generated sizes, which
        is why Table V reports smaller costs on Syn-1/Syn-2 than on the real
        datasets despite the much larger graphs.
        """
        start = time.perf_counter()
        orders = sorted({int(v) for v in extended_orders if int(v) >= 1})
        self._table = {}
        self._insert_rows(orders)
        self._orders = orders
        self.report = GEDPriorReport(
            max_tau=self.max_tau,
            orders=orders,
            compute_seconds=time.perf_counter() - start,
            table_entries=len(self._table),
        )
        return self

    def update(self, extended_orders: Iterable[int]) -> List[int]:
        """Extend the grid with any orders not yet covered; return the new ones.

        Incremental counterpart of :meth:`fit` used by the offline refit
        path: columns already present are left untouched (they depend only
        on ``(τ, |V'1|)`` and the label alphabets fixed at construction), so
        adding graphs with previously unseen sizes costs only the missing
        columns instead of a full offline rebuild.
        """
        self._require_fitted()
        start = time.perf_counter()
        requested = {int(v) for v in extended_orders if int(v) >= 1}
        missing = sorted(requested - set(self._orders))
        if missing:
            self._insert_rows(missing)
            self._orders = sorted(set(self._orders) | set(missing))
        self.report = GEDPriorReport(
            max_tau=self.max_tau,
            orders=list(self._orders),
            compute_seconds=self.report.compute_seconds + (time.perf_counter() - start),
            table_entries=len(self._table),
        )
        return missing

    def _insert_rows(self, orders: List[int]) -> None:
        """Compute and merge the normalised grid column of every order in ``orders``."""
        for order in orders:
            model = BranchEditModel(order, self.num_vertex_labels, self.num_edge_labels)
            weights: Dict[int, float] = {}
            for tau in range(1, self.max_tau + 1):
                fisher_information = 0.0
                for phi in range(model.max_phi(tau) + 1):
                    score = model.score(tau, phi)  # zero where Λ1 is
                    fisher_information += model.lambda1(tau, phi) * score * score
                weights[tau] = max(math.sqrt(max(fisher_information, 0.0)), _WEIGHT_FLOOR)
            # The score is degenerate at τ = 0 (the conditional is a point mass
            # and its Fisher information is unbounded); use the τ = 1
            # information as a conservative stand-in so GED = 0 keeps a
            # sensible positive prior mass and exact matches are never
            # filtered out by the prior alone.
            weights[0] = weights.get(1, _WEIGHT_FLOOR) if self.max_tau >= 1 else 1.0
            normaliser = sum(weights.values())
            if normaliser <= 0:
                normaliser = 1.0
            for tau, weight in weights.items():
                self._table[(tau, order)] = weight / normaliser

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has pre-computed at least one extended order."""
        return bool(self._table)

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise PriorNotFittedError("GEDPrior.fit must be called before querying probabilities")

    def probability(self, tau: int, extended_order: int) -> float:
        """Return ``Pr[GED = τ]`` for the given extended order.

        Orders never seen during :meth:`fit` fall back to the nearest
        pre-computed order (the prior varies slowly with ``|V'1|``), matching
        the paper's practice of tabulating a fixed grid and looking it up.
        """
        self._require_fitted()
        if tau < 0 or tau > self.max_tau:
            return _WEIGHT_FLOOR
        order = self._nearest_order(extended_order)
        return self._table.get((tau, order), _WEIGHT_FLOOR)

    def matrix(self) -> Dict[Tuple[int, int], float]:
        """Return a copy of the full ``{(τ, |V'1|): probability}`` matrix (Figure 6)."""
        self._require_fitted()
        return dict(self._table)

    def _nearest_order(self, extended_order: int) -> int:
        if extended_order in self._orders:
            return extended_order
        return min(self._orders, key=lambda order: abs(order - extended_order))

    @property
    def orders(self) -> List[int]:
        """The extended orders covered by the pre-computed matrix."""
        return list(self._orders)

    # ------------------------------------------------------------------ #
    # serialization (used by the serving snapshot layer)
    # ------------------------------------------------------------------ #
    def to_state(self) -> dict:
        """Return the pre-computed grid as a plain dict."""
        self._require_fitted()
        return {
            "max_tau": self.max_tau,
            "num_vertex_labels": self.num_vertex_labels,
            "num_edge_labels": self.num_edge_labels,
            "table": [(tau, order, p) for (tau, order), p in self._table.items()],
            "orders": list(self._orders),
        }

    @classmethod
    def from_state(cls, state: dict) -> "GEDPrior":
        """Rebuild a fitted prior from :meth:`to_state` output without re-fitting."""
        prior = cls(
            int(state["max_tau"]),
            int(state["num_vertex_labels"]),
            int(state["num_edge_labels"]),
        )
        prior._table = {
            (int(tau), int(order)): float(p) for tau, order, p in state["table"]
        }
        prior._orders = [int(order) for order in state["orders"]]
        prior.report = GEDPriorReport(
            max_tau=prior.max_tau,
            orders=list(prior._orders),
            table_entries=len(prior._table),
        )
        return prior

    def __repr__(self) -> str:
        state = f"{len(self._orders)} orders" if self.is_fitted else "unfitted"
        return f"<GEDPrior max_tau={self.max_tau} ({state})>"
