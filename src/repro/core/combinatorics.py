"""Exact combinatorial primitives used by the GBDA probabilistic model.

The closed forms of Ω1–Ω4 (Appendix C of the paper) are ratios of products
of binomial coefficients whose individual factors can be astronomically
large for graphs with thousands of vertices (e.g. ``C(C(100000, 2), 30)``)
while the resulting probabilities are tiny.  Floating-point evaluation of
such expressions suffers from overflow and catastrophic cancellation (Ω2 is
an alternating inclusion–exclusion sum), so every primitive here works with
exact Python integers / :class:`fractions.Fraction` values and converts to
``float`` only at the very end.

The one real-valued continuation, digamma, serves the τ-derivatives required
by the Jeffreys prior (Appendix C-B).
"""

from __future__ import annotations

import math
from fractions import Fraction

from scipy import special as _special

__all__ = [
    "binomial",
    "multiset_coefficient",
    "hypergeometric_pmf",
    "digamma",
]


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient ``C(n, k)``; 0 outside the valid range."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def multiset_coefficient(n: int, k: int) -> int:
    """Number of multisets of size ``k`` from ``n`` symbols: ``C(n + k - 1, k)``."""
    if n <= 0:
        return 1 if k == 0 else 0
    return binomial(n + k - 1, k)


def hypergeometric_pmf(x: int, population: int, successes: int, draws: int) -> Fraction:
    """Exact hypergeometric pmf ``H(x; M, K, N)`` of Equation (32).

    ``H(x; M, K, N) = C(K, x) * C(M - K, N - x) / C(M, N)`` — the probability
    of drawing exactly ``x`` successes in ``N`` draws without replacement
    from a population of ``M`` items containing ``K`` successes.  Returns an
    exact :class:`~fractions.Fraction`; 0 when the configuration is
    impossible.
    """
    denominator = binomial(population, draws)
    if denominator == 0:
        return Fraction(0)
    numerator = binomial(successes, x) * binomial(population - successes, draws - x)
    return Fraction(numerator, denominator)


def digamma(x: float) -> float:
    """Digamma function ``psi(x)`` (thin wrapper around scipy)."""
    return float(_special.digamma(x))
