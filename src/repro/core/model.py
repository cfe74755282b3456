"""The branch-edit probabilistic model: Λ1 and the Fisher score Z.

This module assembles the conditional distribution

``Λ1(τ, ϕ) = Pr[GBD = ϕ | GED = τ] = Σ_x Ω1 Σ_m Ω2 Σ_r Ω3 Ω4``

(Equation 8) together with its τ-derivative (Equation 35), which feeds the
Jeffreys prior of the GED (Section V-C).  Only Ω3 depends on ϕ, so the sum is
evaluated factored: ``Λ1(τ, ·) = Ω3 · P_τ`` with
``P_τ(r) = Σ_x Ω1(x, τ) Σ_m Ω2(m, x, τ) Ω4(x, r, m)`` and the Ω3 matrix over
``r ∈ [0, min(3τ, v)]`` × ``ϕ ∈ [0, min(2τ, v)]``; ``dΛ1/dτ(τ, ·)`` is the
same product applied to ``P'_τ``, which weighs the Ω4 rows by
``Ω1' Ω2 + Ω1 Ω2'``.  A row costs ``P_τ`` once per ``(τ, |V'|)`` plus one
matrix–vector product.  Each Ω factor is computed exactly
(:mod:`repro.core.omegas`) and enters as a cached float array, so floats
meet only in those products.  :mod:`repro.testing.oracles` keeps the
unfactored triple loop as the test oracle.

The model depends on three integers only — ``v = |V'1| = max(|V1|, |V2|)``
and ``|LV|``, ``|LE|`` (through the branch-type count ``D``) — so one
:class:`BranchEditModel` per order serves every database graph of that
order and every ``τ <= τ̂`` (Section VI-B's amortisation).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from repro.core.combinatorics import binomial
from repro.core.omegas import (
    branch_type_count,
    omega1,
    omega1_dtau,
    omega2_column,
    omega3,
    omega4,
    omega_support,
)

__all__ = ["BranchEditModel"]


@lru_cache(maxsize=65536)
def _overlap_row(x: int, m: int, extended_order: int) -> np.ndarray:
    """``Ω4(x, r, m)`` over ``r ∈ [0, min(x + m, v)]`` as floats (zero below ``max(x, m)``)."""
    row = np.zeros(min(x + m, extended_order) + 1)
    for r in range(max(x, m), len(row)):
        row[r] = float(omega4(x, r, m, extended_order))
    row.flags.writeable = False
    return row


@lru_cache(maxsize=65536)
def _change_row(r: int, branch_types: int) -> np.ndarray:
    """``Ω3(r, ϕ)`` over ``ϕ ∈ [0, r]`` as floats."""
    row = np.array([float(omega3(r, phi, branch_types)) for phi in range(r + 1)])
    row.flags.writeable = False
    return row


class BranchEditModel:
    """Conditional model ``Pr[GBD | GED]`` for extended graphs of a fixed order.

    Parameters
    ----------
    extended_order:
        ``|V'1| = max(|V1|, |V2|)`` — the number of vertices of both extended
        graphs.
    num_vertex_labels, num_edge_labels:
        Sizes of the label alphabets ``|LV|`` and ``|LE|`` of the dataset,
        which determine the branch-type count ``D`` (Equation 33).
    """

    def __init__(self, extended_order: int, num_vertex_labels: int, num_edge_labels: int) -> None:
        if extended_order < 1:
            raise ValueError("extended order must be at least 1")
        self.extended_order = int(extended_order)
        self.num_vertex_labels = int(num_vertex_labels)
        self.num_edge_labels = int(num_edge_labels)
        self.branch_types = branch_type_count(
            self.extended_order, self.num_vertex_labels, self.num_edge_labels
        )
        # τ -> (Λ1 row, dΛ1/dτ row) over ϕ ∈ [0, max_phi(τ)].  Rows are a
        # function of (τ, v, D) alone, so a concurrent duplicate fill stores
        # the same floats.
        self._rows: Dict[int, Tuple[List[float], List[float]]] = {}

    # ------------------------------------------------------------------ #
    # Λ1 — conditional probability of GBD given GED
    # ------------------------------------------------------------------ #
    def lambda1(self, tau: int, phi: int) -> float:
        """Return ``Λ1(τ, ϕ) = Pr[GBD = ϕ | GED = τ]`` (Equation 8)."""
        if tau < 0 or phi < 0:
            return 0.0
        row = self._row_pair(tau)[0]
        return row[phi] if phi < len(row) else 0.0

    def conditional_row(self, tau: int) -> List[float]:
        """Return the whole conditional distribution ``[Pr[GBD = ϕ | GED = τ]]``.

        The row covers ``ϕ ∈ [0, min(2τ, v)]`` — one edit operation changes
        at most two branches, so larger ϕ values have zero probability.
        """
        return list(self._row_pair(tau)[0]) if tau >= 0 else []

    def max_phi(self, tau: int) -> int:
        """Largest GBD value with non-zero probability given ``GED = τ``."""
        return min(2 * tau, self.extended_order)

    def _row_pair(self, tau: int) -> Tuple[List[float], List[float]]:
        """Cached ``(Λ1(τ, ·), dΛ1/dτ(τ, ·))`` rows."""
        rows = self._rows.get(tau)
        if rows is None:
            rows = self._rows[tau] = self._factored_rows(tau)
        return rows

    def _factored_rows(self, tau: int) -> Tuple[List[float], List[float]]:
        """Equations (8) and (35) for every ϕ at once: ``Ω3 · P_τ`` and ``Ω3 · P'_τ``.

        One ``(x, m)`` pair per row of the Ω4 block, weighted by ``Ω1 Ω2``
        (``P_τ``) and ``Ω1' Ω2 + Ω1 Ω2'`` (``P'_τ``).  At τ = 0 the
        conditional is a point mass and its derivative row is zero.
        """
        if tau == 0:
            return [1.0], [0.0]
        v = self.extended_order
        xs, _, rs = omega_support(tau, v)
        weights, slopes, rows = [], [], []
        for x in xs:
            weight, slope = float(omega1(x, tau, v)), float(omega1_dtau(x, tau, v))
            column, column_slope = omega2_column(tau - x, v)
            weights.append(weight * column)
            slopes.append(slope * column + weight * column_slope)
            rows.extend(_overlap_row(x, m, v) for m in range(len(column)))
        block = np.zeros((len(rows), len(rs)))
        for index, row in enumerate(rows):
            block[index, : len(row)] = row
        width = self.max_phi(tau) + 1
        changes = np.zeros((len(rs), width))
        for r in rs:
            row = _change_row(r, self.branch_types)[:width]
            changes[r, : len(row)] = row
        coefficients = np.array([np.concatenate(weights), np.concatenate(slopes)])
        values, derivatives = (coefficients @ block) @ changes
        return values.tolist(), derivatives.tolist()

    # ------------------------------------------------------------------ #
    # the Fisher score Z — used by the Jeffreys prior
    # ------------------------------------------------------------------ #
    def score(self, tau: int, phi: int) -> float:
        """Fisher score ``Z(τ, ϕ) = d/dτ log Pr[GBD = ϕ | GED = τ]`` (Equation 17).

        Zero wherever ``Λ1(τ, ϕ) = 0``.
        """
        value = self.lambda1(tau, phi)
        if value > 0.0:
            return self._row_pair(tau)[1][phi] / value
        return 0.0

    def editable_elements(self) -> int:
        """Number of editable elements of the extended graph: ``v + C(v, 2)``."""
        return self.extended_order + binomial(self.extended_order, 2)

    def __repr__(self) -> str:
        return (
            f"<BranchEditModel v={self.extended_order} "
            f"|LV|={self.num_vertex_labels} |LE|={self.num_edge_labels} D={self.branch_types}>"
        )
