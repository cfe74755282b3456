"""Tests for the branch-edit model Λ1 and the Fisher score Z."""

import pytest

from repro.core.model import BranchEditModel
from repro.testing.oracles import lambda1_dtau_oracle, lambda1_oracle


@pytest.fixture(scope="module")
def model_v4():
    """The model of the paper's running example: |V'1| = 4, |LV| = |LE| = 3."""
    return BranchEditModel(extended_order=4, num_vertex_labels=3, num_edge_labels=3)


def _expected_gbd(model, tau):
    """Expected GBD under ``GED = τ``, summed over the conditional row."""
    return sum(phi * probability for phi, probability in enumerate(model.conditional_row(tau)))


class TestLambda1:
    def test_tau_zero_is_point_mass_at_zero(self, model_v4):
        assert model_v4.lambda1(0, 0) == 1.0
        assert model_v4.lambda1(0, 1) == 0.0

    def test_rows_are_probability_distributions(self, model_v4):
        for tau in range(0, 5):
            row = model_v4.conditional_row(tau)
            assert sum(row) == pytest.approx(1.0, abs=1e-12)
            assert all(value >= 0 for value in row)

    def test_paper_example7_values(self, model_v4):
        """Example 7 quotes Λ1(Q', G2'; 2, 3) ≈ 0.5113 and Λ1(Q', G2'; 3, 3) ≈ 0.5631."""
        assert model_v4.lambda1(2, 3) == pytest.approx(0.5113, abs=2e-3)
        assert model_v4.lambda1(3, 3) == pytest.approx(0.5631, abs=2e-3)

    def test_paper_example7_small_tau_terms_vanish(self, model_v4):
        """Example 7: the τ = 0 and τ = 1 summands are zero when ϕ = 3."""
        assert model_v4.lambda1(0, 3) == 0.0
        assert model_v4.lambda1(1, 3) == 0.0

    def test_phi_beyond_twice_tau_is_impossible(self, model_v4):
        assert model_v4.lambda1(2, 5) == 0.0
        assert model_v4.max_phi(2) == 4

    def test_negative_arguments(self, model_v4):
        assert model_v4.lambda1(-1, 0) == 0.0
        assert model_v4.lambda1(1, -1) == 0.0

    def test_expected_gbd_grows_with_tau(self, model_v4):
        expectations = [_expected_gbd(model_v4, tau) for tau in range(0, 5)]
        assert expectations == sorted(expectations)
        assert expectations[0] == 0.0

    def test_conditional_table_shape(self, model_v4):
        table = {tau: model_v4.conditional_row(tau) for tau in range(4)}
        assert set(table) == {0, 1, 2, 3}
        assert len(table[3]) == model_v4.max_phi(3) + 1

    def test_larger_alphabet_pushes_gbd_towards_two_tau(self):
        small = BranchEditModel(6, 2, 2)
        large = BranchEditModel(6, 50, 50)
        tau = 2
        assert _expected_gbd(large, tau) >= _expected_gbd(small, tau)

    def test_editable_elements(self, model_v4):
        assert model_v4.editable_elements() == 4 + 6


class TestScore:
    def test_score_is_finite_on_support(self, model_v4):
        for tau in range(1, 4):
            for phi in range(model_v4.max_phi(tau) + 1):
                if model_v4.lambda1(tau, phi) > 0:
                    assert abs(model_v4.score(tau, phi)) < 1e6

    def test_score_sign_tracks_probability_trend(self, model_v4):
        """Where Λ1(τ+1, ϕ) > Λ1(τ, ϕ) the log-derivative should be positive."""
        tau, phi = 2, 4
        trend = model_v4.lambda1(tau + 1, phi) - model_v4.lambda1(tau, phi)
        score = model_v4.score(tau, phi)
        if abs(trend) > 1e-6:
            assert trend * score > 0

    def test_score_outside_support_is_zero_or_finite(self, model_v4):
        assert model_v4.score(1, 4) == 0.0
        # Λ1(τ, ϕ) = 0 < Λ1(τ + 1, ϕ): no log-difference stands in for Z.
        for tau, phi in ((0, 1), (1, 3), (1, 4)):
            assert model_v4.lambda1(tau, phi) == 0.0 < model_v4.lambda1(tau + 1, phi)
            assert model_v4.score(tau, phi) == 0.0


#: (|V'|, τ values) of the oracle grid: every τ ≤ 12, plus τ = 30 at |V'| = 100.
_ORACLE_GRID = [(v, range(13)) for v in (1, 2, 3, 4, 7, 12, 30, 60)] + [(100, [*range(13), 30])]


class TestFactoredAgainstTheOracle:
    """The factored rows ``Ω3 · P_τ`` equal the unfactored triple loop.

    ``|LV| = |LE| = 50`` gives ``D > 10**6`` from ``|V'| = 2`` on, which takes
    Ω3's log-space branch.
    """

    @pytest.mark.parametrize("alphabet", [(3, 2), (50, 50)], ids=["small", "large"])
    @pytest.mark.parametrize("order, taus", _ORACLE_GRID, ids=[str(v) for v, _ in _ORACLE_GRID])
    def test_lambda1_and_its_derivative_agree(self, order, taus, alphabet):
        model = BranchEditModel(order, *alphabet)
        for tau in taus:
            values, slopes = model._row_pair(tau)
            assert len(values) == len(slopes) == model.max_phi(tau) + 1
            for phi in range(model.max_phi(tau) + 1):
                for row, oracle in ((values, lambda1_oracle), (slopes, lambda1_dtau_oracle)):
                    expected = oracle(order, *alphabet, tau, phi)
                    where = (oracle.__name__, tau, phi)
                    if expected == 0.0:
                        assert row[phi] == 0.0, where
                    else:
                        assert abs(row[phi] - expected) <= 1e-12 * abs(expected), where


class TestValidation:
    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            BranchEditModel(0, 3, 3)

    def test_repr_mentions_parameters(self, model_v4):
        assert "v=4" in repr(model_v4)

    def test_model_is_deterministic(self):
        a = BranchEditModel(5, 4, 2)
        b = BranchEditModel(5, 4, 2)
        assert a.conditional_row(3) == b.conditional_row(3)
