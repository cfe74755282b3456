"""Tests for the from-scratch Gaussian Mixture Model (EM)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConvergenceError
from repro.stats.gmm import GaussianMixtureModel
from repro.testing.oracles import fit_gmm_oracle


def _two_cluster_sample(n=400, seed=0):
    rng = random.Random(seed)
    data = [rng.gauss(2.0, 0.5) for _ in range(n // 2)]
    data += [rng.gauss(8.0, 1.0) for _ in range(n // 2)]
    return data


class TestFitting:
    def test_two_clusters_recovered(self):
        model = GaussianMixtureModel(2, seed=1).fit(_two_cluster_sample())
        means = sorted(component.mean for component in model.components)
        assert means[0] == pytest.approx(2.0, abs=0.5)
        assert means[1] == pytest.approx(8.0, abs=0.8)

    def test_weights_sum_to_one(self):
        model = GaussianMixtureModel(3, seed=2).fit(_two_cluster_sample())
        assert sum(c.weight for c in model.components) == pytest.approx(1.0)

    def test_fit_is_reproducible_with_seed(self):
        data = _two_cluster_sample()
        a = GaussianMixtureModel(2, seed=5).fit(data)
        b = GaussianMixtureModel(2, seed=5).fit(data)
        assert [c.mean for c in a.components] == pytest.approx([c.mean for c in b.components])

    def test_empty_sample_rejected(self):
        with pytest.raises(ConvergenceError):
            GaussianMixtureModel(2).fit([])

    def test_constant_sample_does_not_crash(self):
        model = GaussianMixtureModel(3, seed=0).fit([4.0] * 50)
        assert len(model.components) == 1
        assert model.components[0].mean == pytest.approx(4.0)

    def test_more_components_than_distinct_values(self):
        model = GaussianMixtureModel(5, seed=0).fit([1.0, 2.0, 1.0, 2.0])
        assert len(model.components) <= 2

    def test_invalid_component_count(self):
        with pytest.raises(ValueError):
            GaussianMixtureModel(0)

    def test_log_likelihood_recorded(self):
        model = GaussianMixtureModel(2, seed=1).fit(_two_cluster_sample())
        assert model.log_likelihood_ is not None
        assert model.n_iterations_ >= 1


class TestBackends:
    """The vectorised EM of ``fit`` against the scalar loop of the oracle."""

    def test_backends_agree_on_two_cluster_data(self):
        data = _two_cluster_sample()
        scalar = fit_gmm_oracle(GaussianMixtureModel(2, seed=3), data)
        vector = GaussianMixtureModel(2, seed=3).fit(data)
        assert vector.n_iterations_ == scalar.n_iterations_
        for a, b in zip(scalar.components, vector.components):
            assert b.weight == pytest.approx(a.weight, abs=1e-9)
            assert b.mean == pytest.approx(a.mean, abs=1e-9)
            assert b.std == pytest.approx(a.std, abs=1e-9)
        assert vector.log_likelihood_ == pytest.approx(
            scalar.log_likelihood_, rel=1e-9, abs=1e-9
        )

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        num_components=st.integers(min_value=1, max_value=4),
        data_seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_backend_parity_property(self, seed, num_components, data_seed):
        """The vectorized EM matches the scalar oracle across seeds."""
        rng = random.Random(data_seed)
        # integer-heavy data mirrors real GBD samples
        data = [float(round(max(rng.gauss(5.0, 2.5), 0.0))) for _ in range(120)]
        scalar = fit_gmm_oracle(GaussianMixtureModel(num_components, seed=seed), data)
        vector = GaussianMixtureModel(num_components, seed=seed).fit(data)
        assert len(scalar.components) == len(vector.components)
        for a, b in zip(scalar.components, vector.components):
            assert b.weight == pytest.approx(a.weight, abs=1e-9)
            assert b.mean == pytest.approx(a.mean, abs=1e-9)
            assert b.std == pytest.approx(a.std, abs=1e-9)
        assert vector.log_likelihood_ == pytest.approx(
            scalar.log_likelihood_, rel=1e-9, abs=1e-9
        )


class TestSeeding:
    def test_initial_means_distinct_on_integer_heavy_data(self):
        # with-replacement choice used to waste components on duplicate starts
        data = [1.0] * 30 + [2.0] * 30 + [5.0] * 40
        for seed in range(25):
            model = GaussianMixtureModel(3, seed=seed)
            means = model._initial_means(data, 3)
            assert len(set(means)) == 3, f"duplicate initial means for seed {seed}: {means}"

    def test_initial_means_distinct_even_when_k_exceeds_spread(self):
        data = [0.0] * 50 + [10.0] * 50
        for seed in range(10):
            model = GaussianMixtureModel(2, seed=seed)
            means = model._initial_means(data, 2)
            assert set(means) == {0.0, 10.0}

    def test_fit_on_integer_heavy_data_uses_all_components(self):
        data = [1.0] * 30 + [2.0] * 30 + [5.0] * 40
        model = GaussianMixtureModel(3, seed=0).fit(data)
        means = sorted(round(c.mean) for c in model.components)
        assert means == [1, 2, 5]


class TestSeedRoundTrip:
    def test_state_round_trips_seed(self):
        model = GaussianMixtureModel(2, seed=41).fit(_two_cluster_sample())
        restored = GaussianMixtureModel.from_state(model.to_state())
        assert restored._seed == 41
        assert "backend" not in model.to_state()

    def test_reload_then_refit_is_deterministic(self):
        """Refitting a reloaded model matches refitting the live instance.

        The regression: from_state used to rebuild with the default seed=0,
        silently changing the sampling stream of any later refit.
        """
        data = _two_cluster_sample(seed=1)
        original = GaussianMixtureModel(3, seed=9).fit(data)
        restored = GaussianMixtureModel.from_state(original.to_state())

        refit_data = _two_cluster_sample(seed=2)
        original.fit(refit_data)
        restored.fit(refit_data)
        assert [c.mean for c in restored.components] == pytest.approx(
            [c.mean for c in original.components]
        )
        assert [c.weight for c in restored.components] == pytest.approx(
            [c.weight for c in original.components]
        )


class TestQueries:
    def test_pdf_integrates_to_roughly_one(self):
        model = GaussianMixtureModel(2, seed=1).fit(_two_cluster_sample())
        step = 0.05
        grid = [i * step for i in range(-200, 400)]
        integral = sum(model.pdf(x) * step for x in grid)
        assert integral == pytest.approx(1.0, abs=0.02)

    def test_discrete_probabilities_sum_to_roughly_one(self):
        model = GaussianMixtureModel(2, seed=1).fit(_two_cluster_sample())
        total = sum(model.discrete_probability(value) for value in range(-5, 25))
        assert total == pytest.approx(1.0, abs=0.02)

    def test_discrete_probability_peaks_near_cluster_means(self):
        model = GaussianMixtureModel(2, seed=1).fit(_two_cluster_sample())
        assert model.discrete_probability(2) > model.discrete_probability(5)
        assert model.discrete_probability(8) > model.discrete_probability(5)

    def test_queries_before_fit_raise(self):
        model = GaussianMixtureModel(2)
        with pytest.raises(ConvergenceError):
            model.pdf(0.0)
        with pytest.raises(ConvergenceError):
            model.discrete_probability(0)

    def test_sampling_from_fitted_model(self):
        model = GaussianMixtureModel(2, seed=1).fit(_two_cluster_sample())
        samples = model.sample(200, seed=3)
        assert len(samples) == 200
        assert 0.0 < sum(samples) / len(samples) < 10.0

    def test_repr(self):
        unfitted = GaussianMixtureModel(2)
        assert "unfitted" in repr(unfitted)
        fitted = GaussianMixtureModel(1, seed=0).fit([1.0, 2.0, 3.0])
        assert "π=" in repr(fitted)
