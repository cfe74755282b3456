"""Closed forms of Ω1–Ω4 and their τ-derivatives (Appendix C/E/F/G/H).

The four factors of the conditional ``Λ1 = Pr[GBD = ϕ | GED = τ]`` are

* ``Ω1(x, τ)``   — probability that a uniformly random minimal edit script of
  length τ on the extended graph relabels exactly ``x`` vertices (and hence
  ``τ - x`` edges).  Hypergeometric over the ``|V'| + C(|V'|, 2)`` editable
  elements of the complete extended graph (Lemma 1).
* ``Ω2(m, x, τ)`` — probability that the ``τ - x`` relabelled edges cover
  exactly ``m`` vertices; an inclusion–exclusion count over edge subsets of
  the complete graph (Lemma 2).
* ``Ω3(r, ϕ)``   — probability that ``r`` relabelled branches produce a
  branch distance of exactly ``ϕ``; the ball-pair colouring model with ``D``
  equiprobable branch types (Lemma 3).
* ``Ω4(x, r, m)`` — probability that the ``x`` relabelled vertices and the
  ``m`` edge-covered vertices overlap so that exactly ``r`` branches are
  touched; hypergeometric (Lemma 4).

All values are exact :class:`fractions.Fraction` numbers, except
:func:`omega2_column`, which returns whole Ω2 / dΩ2/dτ columns as the floats
of those exact values.  The τ-derivatives
``dΩ1/dτ`` and ``dΩ2/dτ`` follow the Gamma-function continuation of the
binomial coefficients; we implement the analytically consistent form (the
log-derivative of each binomial factor expressed through digamma functions)
rather than transcribing Equations (36)–(41) literally, because the printed
equations contain obvious typos (e.g. ``H(v(v+1)/2 - 2τ)`` where the
continuation of ``C(v(v+1)/2, τ)`` requires ``H(v(v+1)/2 - τ)``).  The two
agree in structure and produce the same qualitative Jeffreys prior.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.core.combinatorics import binomial, digamma, hypergeometric_pmf, multiset_coefficient

__all__ = [
    "branch_type_count",
    "omega1",
    "omega2",
    "omega3",
    "omega4",
    "omega1_dtau",
    "omega2_dtau",
    "omega2_column",
]


def branch_type_count(extended_order: int, num_vertex_labels: int, num_edge_labels: int) -> int:
    """Number ``D`` of possible branch types (Equation 33).

    ``D = |LV| * C(|V'| + |LE| - 1, |LE|)`` — the number of ways to label the
    root vertex times the number of multisets of edge labels.  The virtual
    label is accounted for by the paper's convention of counting
    ``|LV| + 1`` / ``|LE| + 1`` label choices inside the derivation; we follow
    Equation (33) literally and guard against degenerate alphabets.
    """
    effective_vertex_labels = max(num_vertex_labels, 1)
    effective_edge_labels = max(num_edge_labels, 1)
    count = effective_vertex_labels * multiset_coefficient(extended_order, effective_edge_labels)
    return max(count, 2)


@lru_cache(maxsize=262144)
def omega1(x: int, tau: int, extended_order: int) -> Fraction:
    """``Ω1(x, τ) = H(x; v + C(v, 2), v, τ)`` (Lemma 1, Equation 28).

    Probability that a uniformly chosen set of ``τ`` relabelled elements of
    the complete extended graph on ``v`` vertices contains exactly ``x``
    vertices (the rest being edges).
    """
    if x < 0 or x > tau:
        return Fraction(0)
    v = extended_order
    population = v + binomial(v, 2)
    return hypergeometric_pmf(x, population, v, tau)


@lru_cache(maxsize=262144)
def omega2(m: int, x: int, tau: int, extended_order: int) -> Fraction:
    """``Ω2(m, x, τ) = Pr[Z = m | Y = τ - x]`` (Lemma 2, Equation 29).

    Probability that ``τ - x`` distinct edges drawn uniformly from the
    complete graph on ``v`` vertices cover exactly ``m`` vertices.  Computed
    with the exact inclusion–exclusion formula

    ``C(C(v,2), τ-x)^{-1} * Σ_t (-1)^{m-t} C(v, m) C(m, t) C(C(t,2), τ-x)``

    (:func:`_edge_cover_pass`); zero outside ``m ∈ [0, min(2(τ-x), v)]``.
    """
    y = tau - x
    if y < 0 or not 0 <= m <= min(2 * y, extended_order):
        return Fraction(0)
    denominator, counts, _, _ = _edge_cover_pass(y, extended_order)
    return Fraction(counts[m], denominator)


@lru_cache(maxsize=262144)
def omega3(r: int, phi: int, branch_types: int) -> Fraction:
    """``Ω3(r, ϕ) = C(r, r-ϕ) (D-1)^ϕ / D^r`` (Lemma 3, Equation 30).

    Probability that exactly ``ϕ`` of the ``r`` relabelled branches end up
    different from their originals when each relabelled branch is assigned a
    uniformly random type among ``D`` possibilities.

    For very large ``D`` (rich label alphabets) the exact ratio involves
    integers with thousands of digits while its value is representable in a
    double to full precision, so a log-space float evaluation is used instead
    of exact big-integer arithmetic.
    """
    if phi < 0 or phi > r:
        return Fraction(0)
    if r == 0:
        return Fraction(1) if phi == 0 else Fraction(0)
    d = branch_types
    if d > 10**6:
        log_value = math.log(binomial(r, r - phi)) + phi * math.log(d - 1) - r * math.log(d)
        return Fraction(math.exp(log_value)) if log_value > -745.0 else Fraction(0)
    return Fraction(binomial(r, r - phi) * (d - 1) ** phi, d**r)


@lru_cache(maxsize=262144)
def omega4(x: int, r: int, m: int, extended_order: int) -> Fraction:
    """``Ω4(x, r, m) = H(x + m - r; v, m, x)`` (Lemma 4, Equation 31).

    Probability that the set of ``x`` relabelled vertices intersects the set
    of ``m`` edge-covered vertices in exactly ``x + m - r`` vertices, i.e.
    the union — the number of touched branches — has size ``r``.
    """
    overlap = x + m - r
    if overlap < 0 or overlap > min(x, m):
        return Fraction(0)
    return hypergeometric_pmf(overlap, extended_order, m, x)


# --------------------------------------------------------------------------- #
# τ-derivatives (Gamma-function continuation) for the Jeffreys prior
# --------------------------------------------------------------------------- #
def _log_binomial_dk(n: int, k: int) -> float:
    """``d/dk log C(n, k)`` at integer points via digamma: ``psi(n-k+1) - psi(k+1)``."""
    return digamma(n - k + 1.0) - digamma(k + 1.0)


@lru_cache(maxsize=262144)
def omega1_dtau(x: int, tau: int, extended_order: int) -> Fraction:
    """Analytic ``dΩ1/dτ`` (continuation of Equation 36).

    ``Ω1 = C(v, x) C(E, τ-x) / C(v+E, τ)`` with ``E = C(v, 2)``; its
    τ-derivative is ``Ω1 * [d/dτ log C(E, τ-x) - d/dτ log C(v+E, τ)]``.
    The digamma factors are converted to rationals so the result composes
    exactly with the other Ω factors.
    """
    value = omega1(x, tau, extended_order)
    if value == 0:
        return Fraction(0)
    v = extended_order
    total_edges = binomial(v, 2)
    log_derivative = _log_binomial_dk(total_edges, tau - x) - _log_binomial_dk(v + total_edges, tau)
    return value * Fraction(log_derivative).limit_denominator(10**12)


@lru_cache(maxsize=262144)
def omega2_dtau(m: int, x: int, tau: int, extended_order: int) -> Fraction:
    """Analytic ``dΩ2/dτ`` (continuation of Equation 37).

    Differentiates each inclusion–exclusion term
    ``C(v,m) C(m,t) C(C(t,2), τ-x) / C(C(v,2), τ-x)`` separately:
    the τ-derivative of its logarithm is
    ``d/dτ log C(C(t,2), τ-x) - d/dτ log C(C(v,2), τ-x)``.
    Terms whose binomial vanishes contribute zero, and so does every ``m``
    outside Ω2's support (:func:`_edge_cover_pass`).
    """
    y = tau - x
    if y < 0 or not 0 <= m <= min(2 * y, extended_order):
        return Fraction(0)
    _, _, denominator, slopes = _edge_cover_pass(y, extended_order)
    return Fraction(slopes[m], denominator)


@lru_cache(maxsize=4096)
def _edge_cover_pass(edges: int, extended_order: int) -> Tuple[int, tuple, int, tuple]:
    """Exact numerators of Ω2 and dΩ2/dτ for ``y`` edges, ``m ∈ [0, min(2y, v)]``.

    Returns ``(denominator, counts, slope_denominator, slopes)`` with
    ``Ω2 = counts[m] / denominator`` and ``dΩ2/dτ = slopes[m] /
    slope_denominator``.  Both depend on ``(x, τ)`` only through ``y = τ - x``,
    so one integer inclusion–exclusion pass yields every ``m``:
    ``C(C(t, 2), y)`` and the digamma factor (rationalised, so it composes
    exactly with the other Ω factors) are computed once per ``t`` and reused
    across ``m``, the factors over their common denominator.  ``y = 0`` (no
    relabelled edge) is a point mass at ``m = 0`` with zero derivative, and
    ``y > C(v, 2)`` (no way to pick the edges) has no mass at all.
    """
    v, y = extended_order, edges
    size = min(2 * y, v) + 1
    denominator = binomial(binomial(v, 2), y)
    if y == 0 or denominator == 0:
        return 1, (int(y == 0),) + (0,) * (size - 1), 1, (0,) * size
    covers = [binomial(binomial(t, 2), y) for t in range(size)]
    log_derivative_denom = _log_binomial_dk(binomial(v, 2), y)
    factors = {
        t: Fraction(_log_binomial_dk(binomial(t, 2), y) - log_derivative_denom)
        .limit_denominator(10**12)
        for t in range(size)
        if covers[t]
    }
    common = math.lcm(*(factor.denominator for factor in factors.values()))
    weighted = {
        t: (covers[t], covers[t] * factor.numerator * (common // factor.denominator))
        for t, factor in factors.items()
    }
    counts, slopes = [], []
    for m in range(size):
        count = slope = 0
        for t, (cover, weight) in weighted.items():
            if t > m:
                break
            term = binomial(m, t) if (m - t) % 2 == 0 else -binomial(m, t)
            count += term * cover
            slope += term * weight
        counts.append(max(binomial(v, m) * count, 0))
        slopes.append(binomial(v, m) * slope)
    return denominator, tuple(counts), denominator * common, tuple(slopes)


@lru_cache(maxsize=4096)
def omega2_column(edges: int, extended_order: int) -> Tuple[np.ndarray, np.ndarray]:
    """``Ω2`` and ``dΩ2/dτ`` of ``y`` relabelled edges over ``m ∈ [0, min(2y, v)]``.

    The floats of :func:`omega2` / :func:`omega2_dtau` (bit-identical:
    both are the correctly rounded quotients of the same integers), as
    cached read-only arrays.
    """
    denominator, counts, slope_denominator, slopes = _edge_cover_pass(edges, extended_order)
    values = np.array([count / denominator for count in counts])
    derivatives = np.array([slope / slope_denominator for slope in slopes])
    values.flags.writeable = derivatives.flags.writeable = False
    return values, derivatives


def omega_support(tau: int, extended_order: int) -> Tuple[range, range, range]:
    """Return the (x, m, r) summation ranges used when assembling Λ1.

    Follows Section VI-B: ``x ∈ [0, τ]``, ``m ∈ [0, min(2τ, v)]``,
    ``r ∈ [0, min(3τ, v)]`` — the last is the length of the factored sum's
    vector ``P_τ`` (:class:`~repro.core.model.BranchEditModel`).
    """
    v = extended_order
    return (
        range(0, tau + 1),
        range(0, min(2 * tau, v) + 1),
        range(0, min(3 * tau, v) + 1),
    )
