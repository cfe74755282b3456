"""Tests for the posterior estimator Pr[GED <= τ̂ | GBD = ϕ]."""

import pytest

from repro.core.estimator import GBDAEstimator
from repro.core.gbd_prior import GBDPrior
from repro.core.ged_prior import GEDPrior
from repro.exceptions import EstimationError


@pytest.fixture(scope="module")
def estimator():
    gbd_prior = GBDPrior(num_components=2, seed=0).fit_from_samples(
        [0, 1, 1, 2, 2, 2, 3, 3, 4, 5, 6, 8, 10], max_value=12
    )
    ged_prior = GEDPrior(max_tau=6, num_vertex_labels=4, num_edge_labels=3).fit([6, 10])
    return GBDAEstimator(gbd_prior, ged_prior, num_vertex_labels=4, num_edge_labels=3)


class TestPosterior:
    def test_posterior_is_probability_like(self, estimator):
        for gbd in range(0, 8):
            value = estimator.posterior(gbd, tau_hat=4, extended_order=10)
            assert 0.0 <= value <= 1.0

    def test_small_gbd_scores_higher_than_large_gbd(self, estimator):
        near = estimator.posterior(1, tau_hat=3, extended_order=10)
        far = estimator.posterior(8, tau_hat=3, extended_order=10)
        assert near > far

    def test_monotone_in_threshold(self, estimator):
        values = [estimator.posterior(3, tau_hat=tau, extended_order=10) for tau in range(0, 7)]
        assert values == sorted(values), "a larger threshold can only increase the posterior"

    def test_identical_graphs_accepted_at_any_threshold(self, estimator):
        assert estimator.posterior(0, tau_hat=1, extended_order=10) > 0.1

    def test_invalid_arguments_rejected(self, estimator):
        with pytest.raises(EstimationError):
            estimator.posterior(0, tau_hat=-1, extended_order=10)
        with pytest.raises(EstimationError):
            estimator.posterior(-1, tau_hat=2, extended_order=10)


class TestAccepts:
    def test_accept_threshold(self, estimator):
        posterior = estimator.posterior(1, tau_hat=4, extended_order=10)
        assert estimator.accepts(1, 4, 10, gamma=posterior - 1e-9)
        assert not estimator.accepts(1, 4, 10, gamma=min(posterior + 1e-9, 1.0)) or posterior >= 1.0

    def test_gamma_validation(self, estimator):
        with pytest.raises(EstimationError):
            estimator.accepts(1, 4, 10, gamma=1.5)

    def test_precomputed_posterior_reused(self, estimator):
        assert estimator.accepts(1, 4, 10, gamma=0.0, posterior=0.5)
        assert not estimator.accepts(1, 4, 10, gamma=0.9, posterior=0.5)


class TestModelCache:
    def test_models_cached_per_order(self, estimator):
        model_a = estimator.model_for(10)
        model_b = estimator.model_for(10)
        assert model_a is model_b
        assert estimator.model_for(6) is not model_a

    def test_unfitted_priors_rejected(self):
        with pytest.raises(EstimationError):
            GBDAEstimator(GBDPrior(), GEDPrior(3, 2, 2).fit([5]), 2, 2)
        with pytest.raises(EstimationError):
            GBDAEstimator(
                GBDPrior().fit_from_samples([1, 2, 3]), GEDPrior(3, 2, 2), 2, 2
            )
