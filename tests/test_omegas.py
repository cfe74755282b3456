"""Tests for the closed forms Ω1–Ω4 (Lemmas 1–4) and their derivatives."""

from fractions import Fraction

import pytest

from repro.core.combinatorics import binomial
from repro.core.omegas import (
    branch_type_count,
    omega1,
    omega1_dtau,
    omega2,
    omega2_column,
    omega2_dtau,
    omega3,
    omega4,
    omega_support,
)


class TestBranchTypeCount:
    def test_equation33(self):
        # D = |LV| * C(v + |LE| - 1, |LE|)
        assert branch_type_count(4, 3, 3) == 3 * binomial(4 + 3 - 1, 3)

    def test_degenerate_alphabets_still_give_at_least_two_types(self):
        assert branch_type_count(2, 0, 0) >= 2

    def test_monotone_in_order(self):
        assert branch_type_count(10, 3, 3) > branch_type_count(5, 3, 3)


class TestOmega1:
    def test_is_hypergeometric_over_editable_elements(self):
        v, tau = 4, 3
        total = sum(omega1(x, tau, v) for x in range(tau + 1))
        assert total == Fraction(1)

    def test_impossible_x_is_zero(self):
        assert omega1(5, 3, 4) == 0
        assert omega1(-1, 3, 4) == 0

    def test_all_vertex_edits_when_graph_has_no_edges(self):
        # v = 1: the extended graph has one vertex and no edges, so every
        # operation must be a vertex relabel.
        assert omega1(1, 1, 1) == 1
        assert omega1(0, 1, 1) == 0

    def test_explicit_value(self):
        # v = 3: 3 vertices + 3 edges = 6 editable elements.
        # Ω1(1, 2) = C(3,1)*C(3,1)/C(6,2) = 9/15.
        assert omega1(1, 2, 3) == Fraction(9, 15)


class TestOmega2:
    def test_distribution_sums_to_one(self):
        v, tau, x = 5, 3, 1
        total = sum(omega2(m, x, tau, v) for m in range(v + 1))
        assert total == Fraction(1)

    def test_zero_edges_cover_zero_vertices(self):
        assert omega2(0, 2, 2, 5) == 1
        assert omega2(1, 2, 2, 5) == 0

    def test_single_edge_covers_exactly_two_vertices(self):
        v = 6
        assert omega2(2, 0, 1, v) == 1
        assert omega2(1, 0, 1, v) == 0
        assert omega2(3, 0, 1, v) == 0

    def test_two_edges_cover_three_or_four_vertices(self):
        v = 6
        p3 = omega2(3, 0, 2, v)
        p4 = omega2(4, 0, 2, v)
        assert p3 > 0 and p4 > 0
        assert p3 + p4 == Fraction(1)
        # two random edges share an endpoint with probability 2(v-2)/[C(v,2)-1]... just
        # check the exact count: pairs sharing an endpoint = v*C(v-1,2)... use formula
        total_pairs = binomial(binomial(v, 2), 2)
        sharing = v * binomial(v - 1, 2)
        assert p3 == Fraction(sharing, total_pairs)

    def test_out_of_range_m_is_zero(self):
        assert omega2(10, 0, 2, 5) == 0
        assert omega2(-1, 0, 2, 5) == 0

    @pytest.mark.parametrize("v", [1, 2, 3, 4, 7, 12, 30])
    def test_one_pass_per_y_equals_the_formula_term_by_term(self, v):
        """The shared pass gives Lemma 2's exact values, and the column their floats."""
        for y in range(min(binomial(v, 2), 12) + 2):
            values, slopes = omega2_column(y, v)
            assert len(values) == len(slopes) == min(2 * y, v) + 1
            for m in range(v + 1):
                assert omega2(m, 1, y + 1, v) == _omega2_term_by_term(m, y, v), (y, m)
            for m in range(len(values)):
                expected = _omega2_dtau_term_by_term(m, y, v)
                assert omega2_dtau(m, 1, y + 1, v) == expected, (y, m)
                assert values[m] == float(_omega2_term_by_term(m, y, v)), (y, m)
                assert slopes[m] == float(expected), (y, m)


def _omega2_term_by_term(m, y, v):
    """Lemma 2's inclusion–exclusion for one ``(m, y)``, summed term by term."""
    denominator = binomial(binomial(v, 2), y)
    if denominator == 0:
        return Fraction(0)
    numerator = sum(
        (-1) ** (m - t) * binomial(v, m) * binomial(m, t) * binomial(binomial(t, 2), y)
        for t in range(m + 1)
    )
    return Fraction(max(numerator, 0), denominator)


def _omega2_dtau_term_by_term(m, y, v):
    """Each inclusion–exclusion term of Ω2 differentiated on its own."""
    from repro.core.omegas import _log_binomial_dk

    denominator = binomial(binomial(v, 2), y)
    if denominator == 0 or y == 0:
        return Fraction(0)
    result = Fraction(0)
    for t in range(m + 1):
        numerator = binomial(v, m) * binomial(m, t) * binomial(binomial(t, 2), y)
        if numerator:
            log_derivative = _log_binomial_dk(binomial(t, 2), y) - _log_binomial_dk(
                binomial(v, 2), y
            )
            factor = Fraction(log_derivative).limit_denominator(10**12)
            result += (-1) ** (m - t) * Fraction(numerator, denominator) * factor
    return result


class TestOmega3:
    def test_distribution_sums_to_one(self):
        r, d = 5, 7
        total = sum(omega3(r, phi, d) for phi in range(r + 1))
        assert total == Fraction(1)

    def test_zero_relabelled_branches_give_zero_gbd(self):
        assert omega3(0, 0, 5) == 1
        assert omega3(0, 1, 5) == 0

    def test_phi_cannot_exceed_r(self):
        assert omega3(3, 4, 5) == 0

    def test_large_alphabet_concentrates_on_phi_equal_r(self):
        small_d = omega3(4, 4, 3)
        large_d = omega3(4, 4, 10**6)
        assert large_d > small_d
        assert float(large_d) == pytest.approx(1.0, abs=1e-4)

    def test_explicit_formula(self):
        r, phi, d = 3, 2, 4
        expected = Fraction(binomial(r, r - phi) * (d - 1) ** phi, d**r)
        assert omega3(r, phi, d) == expected


class TestOmega4:
    def test_distribution_sums_to_one_over_r(self):
        v, x, m = 6, 2, 3
        total = sum(omega4(x, r, m, v) for r in range(v + 1))
        assert total == Fraction(1)

    def test_disjoint_and_full_overlap_extremes(self):
        v, x, m = 10, 2, 3
        # r = x + m means no overlap; r = max(x, m) means full overlap.
        assert omega4(x, x + m, m, v) > 0
        assert omega4(x, max(x, m), m, v) > 0
        assert omega4(x, x + m + 1, m, v) == 0

    def test_no_vertex_edits_means_r_equals_m(self):
        v, m = 8, 3
        assert omega4(0, m, m, v) == 1
        assert omega4(0, m - 1, m, v) == 0


class TestDerivatives:
    def test_omega1_derivative_sign_matches_finite_difference(self):
        v = 6
        for x in range(3):
            analytic = float(omega1_dtau(x, 3, v))
            finite = float(omega1(x, 4, v) - omega1(x, 2, v)) / 2.0
            if abs(finite) > 1e-9:
                assert analytic * finite > 0, f"sign mismatch at x={x}"

    def test_omega2_derivative_zero_outside_support(self):
        assert omega2_dtau(3, 5, 3, 6) == 0  # y = τ - x < 0
        assert omega2_dtau(-1, 0, 3, 6) == 0

    def test_omega1_derivative_zero_when_probability_zero(self):
        assert omega1_dtau(10, 3, 4) == 0


class TestSupport:
    def test_ranges_follow_section6b(self):
        xs, ms, rs = omega_support(4, 100)
        assert list(xs) == list(range(0, 5))
        assert list(ms) == list(range(0, 9))
        assert list(rs) == list(range(0, 13))

    def test_ranges_clamped_by_order(self):
        xs, ms, rs = omega_support(4, 3)
        assert max(ms) == 3
        assert max(rs) == 3
