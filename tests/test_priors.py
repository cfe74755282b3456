"""Tests for the offline priors: Λ2 (GBD, GMM) and Λ3 (GED, Jeffreys)."""

import pytest

from repro.core.gbd_prior import GBDPrior
from repro.core.ged_prior import GEDPrior
from repro.exceptions import PriorNotFittedError
from repro.graphs.generators import random_labeled_graph


@pytest.fixture(scope="module")
def small_graph_population():
    return [random_labeled_graph(10, 12, seed=s, name=f"g{s}") for s in range(20)]


def _distribution(prior, extended_order):
    """``[Pr[GED = τ] for τ in 0..max_tau]`` for one extended order."""
    return [prior.probability(tau, extended_order) for tau in range(prior.max_tau + 1)]


class TestGBDPrior:
    def test_fit_from_graphs(self, small_graph_population):
        prior = GBDPrior(num_components=2, num_pairs=50, seed=0).fit(small_graph_population)
        assert prior.is_fitted
        assert prior.report.num_pairs_sampled == 50
        assert prior.report.total_seconds >= 0.0

    def test_probabilities_are_positive_and_bounded(self, small_graph_population):
        prior = GBDPrior(num_components=2, num_pairs=50, seed=0).fit(small_graph_population)
        for phi in range(0, 12):
            assert 0.0 < prior.probability(phi) <= 1.0

    def test_table_covers_feasible_range(self, small_graph_population):
        prior = GBDPrior(num_components=2, num_pairs=50, seed=0).fit(small_graph_population)
        table = prior.table()
        assert set(table) == set(range(0, max(table) + 1))
        assert max(table) >= 10

    def test_out_of_range_value_still_returns_probability(self, small_graph_population):
        prior = GBDPrior(num_components=2, num_pairs=50, seed=0).fit(small_graph_population)
        assert prior.probability(500) > 0.0
        assert prior.probability(-3) > 0.0

    def test_fit_from_samples_directly(self):
        prior = GBDPrior(num_components=2, seed=0).fit_from_samples([1, 2, 2, 3, 3, 3, 4, 8])
        assert prior.probability(3) > prior.probability(8)

    def test_probability_mass_concentrates_where_samples_are(self):
        prior = GBDPrior(num_components=1, seed=0).fit_from_samples([5] * 50 + [6] * 50)
        assert prior.probability(5) + prior.probability(6) > prior.probability(0) + prior.probability(12)

    def test_unfitted_queries_raise(self):
        prior = GBDPrior()
        with pytest.raises(PriorNotFittedError):
            prior.probability(0)
        with pytest.raises(PriorNotFittedError):
            prior.table()

    def test_empty_samples_rejected(self):
        with pytest.raises(PriorNotFittedError):
            GBDPrior().fit_from_samples([])

    def test_repr_shows_state(self):
        assert "unfitted" in repr(GBDPrior())

    def test_state_round_trips_seed(self, small_graph_population):
        prior = GBDPrior(num_components=2, num_pairs=50, seed=13).fit(small_graph_population)
        restored = GBDPrior.from_state(prior.to_state())
        assert restored._seed == 13
        assert restored.table() == prior.table()

    def test_reload_then_refit_is_deterministic(self, small_graph_population):
        """Regression: from_state used to reconstruct with the default seed=0,

        so refitting a snapshot-loaded prior silently changed its sampling
        stream (different pairs, different GMM initialisation).
        """
        prior = GBDPrior(num_components=2, num_pairs=50, seed=13).fit(small_graph_population)
        restored = GBDPrior.from_state(prior.to_state())

        refit_original = GBDPrior(num_components=2, num_pairs=50, seed=13).fit(
            small_graph_population
        )
        restored.fit(small_graph_population)
        assert restored.table() == refit_original.table()
        assert restored.report.sampled_gbds == refit_original.report.sampled_gbds


class TestGEDPrior:
    def test_fit_produces_normalised_distribution_per_order(self):
        prior = GEDPrior(max_tau=5, num_vertex_labels=4, num_edge_labels=3).fit([5, 8])
        for order in (5, 8):
            distribution = _distribution(prior, order)
            assert len(distribution) == 6
            assert sum(distribution) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0 for p in distribution)

    def test_matrix_has_one_entry_per_tau_and_order(self):
        prior = GEDPrior(max_tau=4, num_vertex_labels=3, num_edge_labels=2).fit([4, 6, 9])
        assert len(prior.matrix()) == 5 * 3
        assert prior.orders == [4, 6, 9]

    def test_unknown_order_falls_back_to_nearest(self):
        prior = GEDPrior(max_tau=3, num_vertex_labels=3, num_edge_labels=2).fit([5, 20])
        assert prior.probability(2, 6) == prior.probability(2, 5)
        assert prior.probability(2, 18) == prior.probability(2, 20)

    def test_out_of_range_tau_has_floor_probability(self):
        prior = GEDPrior(max_tau=3, num_vertex_labels=3, num_edge_labels=2).fit([5])
        assert prior.probability(10, 5) <= 1e-9

    def test_prior_depends_only_on_tau_and_order(self):
        a = GEDPrior(max_tau=4, num_vertex_labels=3, num_edge_labels=3).fit([6])
        b = GEDPrior(max_tau=4, num_vertex_labels=3, num_edge_labels=3).fit([6])
        assert _distribution(a, 6) == pytest.approx(_distribution(b, 6))

    def test_unfitted_queries_raise(self):
        prior = GEDPrior(max_tau=3, num_vertex_labels=3, num_edge_labels=2)
        with pytest.raises(PriorNotFittedError):
            prior.probability(1, 5)

    def test_invalid_max_tau_rejected(self):
        with pytest.raises(ValueError):
            GEDPrior(max_tau=-1, num_vertex_labels=3, num_edge_labels=2)

    def test_report_records_costs(self):
        prior = GEDPrior(max_tau=3, num_vertex_labels=3, num_edge_labels=2).fit([4, 5])
        assert prior.report.compute_seconds >= 0.0
        assert prior.report.table_entries == 8
        assert prior.report.table_bytes == 64

    def test_positive_mass_on_every_nonzero_tau(self):
        prior = GEDPrior(max_tau=6, num_vertex_labels=4, num_edge_labels=3).fit([10])
        distribution = _distribution(prior, 10)
        assert all(p > 0 for p in distribution[1:])

    def test_update_adds_only_missing_orders(self):
        prior = GEDPrior(max_tau=4, num_vertex_labels=3, num_edge_labels=2).fit([4, 6])
        before = dict(prior.matrix())
        added = prior.update([6, 9])
        assert added == [9]
        assert prior.orders == [4, 6, 9]
        # existing columns are untouched, the new column matches a fresh fit
        for key, value in before.items():
            assert prior.matrix()[key] == value
        fresh = GEDPrior(max_tau=4, num_vertex_labels=3, num_edge_labels=2).fit([9])
        assert _distribution(prior, 9) == _distribution(fresh, 9)

    def test_update_with_no_new_orders_is_noop(self):
        prior = GEDPrior(max_tau=4, num_vertex_labels=3, num_edge_labels=2).fit([4, 6])
        before = dict(prior.matrix())
        assert prior.update([4, 6]) == []
        assert prior.matrix() == before

    def test_update_requires_fit(self):
        prior = GEDPrior(max_tau=4, num_vertex_labels=3, num_edge_labels=2)
        with pytest.raises(PriorNotFittedError):
            prior.update([5])
