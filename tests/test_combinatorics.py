"""Tests for the exact combinatorial primitives of the probabilistic model."""

import math
from fractions import Fraction

import pytest
from scipy import special

from repro.core.combinatorics import (
    binomial,
    digamma,
    hypergeometric_pmf,
    multiset_coefficient,
)


class TestBinomial:
    def test_small_values(self):
        assert binomial(5, 2) == 10
        assert binomial(10, 0) == 1
        assert binomial(10, 10) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(-1, 0) == 0
        assert binomial(3, -1) == 0

    def test_large_values_are_exact(self):
        assert binomial(100, 50) == math.comb(100, 50)


class TestMultisetCoefficient:
    def test_known_values(self):
        assert multiset_coefficient(3, 2) == 6
        assert multiset_coefficient(1, 5) == 1

    def test_degenerate_alphabet(self):
        assert multiset_coefficient(0, 0) == 1
        assert multiset_coefficient(0, 3) == 0


class TestHypergeometric:
    def test_pmf_sums_to_one(self):
        population, successes, draws = 20, 7, 5
        total = sum(hypergeometric_pmf(x, population, successes, draws) for x in range(draws + 1))
        assert total == Fraction(1)

    def test_matches_direct_formula(self):
        value = hypergeometric_pmf(2, 10, 4, 3)
        expected = Fraction(binomial(4, 2) * binomial(6, 1), binomial(10, 3))
        assert value == expected

    def test_impossible_configuration_is_zero(self):
        assert hypergeometric_pmf(5, 10, 4, 3) == 0
        assert hypergeometric_pmf(0, 5, 2, 10) == 0

    def test_mean_matches_theory(self):
        population, successes, draws = 30, 12, 7
        mean = sum(
            x * hypergeometric_pmf(x, population, successes, draws) for x in range(draws + 1)
        )
        assert float(mean) == pytest.approx(draws * successes / population)


class TestSpecialFunctions:
    def test_digamma_wrapper(self):
        assert digamma(1.0) == pytest.approx(float(special.digamma(1.0)))
