"""Tests for the GBDA search (Algorithm 1) and its ablation variants."""

import math
import random

import pytest

from repro.core.gbd_prior import GBDPrior
from repro.core.search import GBDASearch
from repro.core.variants import GBDAV1Search, GBDAV2Search
from repro.db.columnar import ColumnarBranchStore
from repro.db.database import GraphDatabase
from repro.db.query import SimilarityQuery
from repro.exceptions import SearchError
from repro.graphs.generators import random_labeled_graph
from repro.stats.sampling import sample_pairs
from repro.testing.oracles import query_reference, query_topk_reference


@pytest.fixture(scope="module")
def family_database():
    """A base graph plus perturbed copies at increasing distance, plus outliers."""
    base = random_labeled_graph(12, 16, seed=5, name="base")
    graphs = [base]
    # near neighbours: relabel k edges for k = 1..4
    edges = list(base.edges())
    for k in range(1, 5):
        variant = base.copy(name=f"variant{k}")
        for u, v, _label in edges[:k]:
            variant.relabel_edge(u, v, f"mut{k}")
        graphs.append(variant)
    # far outliers with disjoint labels
    for s in range(5):
        graphs.append(
            random_labeled_graph(
                14, 20, seed=100 + s, vertex_labels=["Q1", "Q2"], edge_labels=["qq"], name=f"far{s}"
            )
        )
    return GraphDatabase(graphs, name="family")


@pytest.fixture(scope="module")
def fitted(family_database):
    return GBDASearch(family_database, max_tau=6, num_prior_pairs=60, seed=0).fit()


class TestOfflineStage:
    def test_fit_builds_priors_and_estimator(self, fitted):
        assert fitted.is_fitted
        assert fitted.gbd_prior.is_fitted
        assert fitted.ged_prior.is_fitted
        assert fitted.offline_seconds > 0.0

    def test_query_before_fit_rejected(self, family_database):
        search = GBDASearch(family_database, max_tau=3, num_prior_pairs=10)
        with pytest.raises(SearchError):
            search.search(family_database[0].graph, tau_hat=1)

    def test_empty_database_rejected(self):
        with pytest.raises(SearchError):
            GBDASearch(GraphDatabase([]), max_tau=3)

    def test_threshold_beyond_precomputed_maximum_rejected(self, fitted, family_database):
        with pytest.raises(SearchError):
            fitted.search(family_database[0].graph, tau_hat=99)

    def test_topk_k_follows_the_query_rule(self, fitted, family_database):
        """An explicit ``k`` is held to ``SimilarityQuery(top_k=...)``'s rule."""
        query = SimilarityQuery(family_database[0].graph, 2, 0.5)
        with pytest.raises(SearchError):
            fitted.query_topk(query)
        for bad in (0, -1, float("inf"), float("nan"), 2.7, "3"):
            with pytest.raises(SearchError):
                fitted.query_topk(query, bad)
        assert len(fitted.query_topk(query, 2.0).ranking) == 2


class TestOnlineStage:
    def test_query_itself_is_accepted(self, fitted, family_database):
        base = family_database[0].graph
        answer = fitted.search(base, tau_hat=2, gamma=0.5)
        assert 0 in answer.accepted_ids, "the identical graph must be returned"

    def test_far_outliers_are_rejected(self, fitted, family_database):
        base = family_database[0].graph
        answer = fitted.search(base, tau_hat=2, gamma=0.5)
        outlier_ids = {entry.graph_id for entry in family_database if entry.name.startswith("far")}
        assert not answer.accepted_ids & outlier_ids

    def test_posteriors_decrease_with_distance(self, fitted, family_database):
        base = family_database[0].graph
        result = fitted.query(SimilarityQuery(base, tau_hat=3, gamma=0.5))
        posterior_base = result.posteriors[0]
        posterior_far = max(
            result.posteriors[entry.graph_id]
            for entry in family_database
            if entry.name.startswith("far")
        )
        assert posterior_base > posterior_far

    def test_gbd_values_reported_for_every_graph(self, fitted, family_database):
        base = family_database[0].graph
        result = fitted.query(SimilarityQuery(base, tau_hat=3, gamma=0.5))
        assert set(result.gbd_values) == {entry.graph_id for entry in family_database}
        assert result.gbd_values[0] == 0

    def test_larger_gamma_gives_smaller_answer(self, fitted, family_database):
        base = family_database[0].graph
        loose = fitted.search(base, tau_hat=4, gamma=0.3)
        strict = fitted.search(base, tau_hat=4, gamma=0.95)
        assert strict.accepted_ids <= loose.accepted_ids

    def test_larger_threshold_gives_larger_answer(self, fitted, family_database):
        base = family_database[0].graph
        small = fitted.search(base, tau_hat=1, gamma=0.5)
        large = fitted.search(base, tau_hat=6, gamma=0.5)
        assert small.accepted_ids <= large.accepted_ids

    def test_answer_metadata(self, fitted, family_database):
        answer = fitted.search(family_database[0].graph, tau_hat=2, gamma=0.5)
        assert answer.method == "GBDA"
        assert answer.elapsed_seconds >= 0.0
        assert set(answer.scores) == {entry.graph_id for entry in family_database}

    def test_posterior_for_pair_helper(self, fitted, family_database):
        value = fitted.posterior_for_pair(family_database[0].graph, 0, tau_hat=2)
        assert 0.0 <= value <= 1.0

    def test_index_pruning_gives_same_accepts_for_true_neighbors(self, family_database):
        base = family_database[0].graph
        plain = GBDASearch(family_database, max_tau=4, num_prior_pairs=60, seed=0).fit()
        pruned = GBDASearch(
            family_database, max_tau=4, num_prior_pairs=60, seed=0, use_index_pruning=True
        ).fit()
        answer_plain = plain.search(base, tau_hat=2, gamma=0.5)
        answer_pruned = pruned.search(base, tau_hat=2, gamma=0.5)
        # Pruning only removes graphs with GBD > 2τ̂, which the probabilistic
        # filter would also reject, so accepted sets agree.
        assert answer_plain.accepted_ids == answer_pruned.accepted_ids

    def test_index_pruning_enabled_before_fit(self, family_database):
        search = GBDASearch(
            family_database, max_tau=4, num_prior_pairs=60, seed=0, use_index_pruning=True
        ).fit()
        assert search._core.store is family_database.store  # the database's, built with it
        result = search.query(SimilarityQuery(family_database[0].graph, 2, 0.5))
        # pruned graphs are never scored, so far outliers are absent
        assert len(result.posteriors) < len(family_database)
        assert 0 in result.accepted_ids

    def test_index_pruning_enabled_after_fit(self, family_database):
        """Regression: flipping the flag post-fit used to silently full-scan."""
        base = family_database[0].graph
        search = GBDASearch(family_database, max_tau=4, num_prior_pairs=60, seed=0).fit()
        full = search.query(SimilarityQuery(base, 2, 0.5))
        assert len(full.posteriors) == len(family_database)

        search.use_index_pruning = True
        pruned = search.query(SimilarityQuery(base, 2, 0.5))
        # the pruned scan actually skips GBD > 2τ̂ graphs instead of scoring all
        assert len(pruned.posteriors) < len(family_database)
        assert pruned.accepted_ids == full.accepted_ids

    def test_index_pruning_orderings_agree(self, family_database):
        base = family_database[0].graph
        fit_first = GBDASearch(family_database, max_tau=4, num_prior_pairs=60, seed=0).fit()
        fit_first.use_index_pruning = True
        flag_first = GBDASearch(
            family_database, max_tau=4, num_prior_pairs=60, seed=0, use_index_pruning=True
        ).fit()
        for tau_hat in (1, 2, 4):
            a = fit_first.query(SimilarityQuery(base, tau_hat, 0.5))
            b = flag_first.query(SimilarityQuery(base, tau_hat, 0.5))
            assert a.accepted_ids == b.accepted_ids
            assert a.posteriors == b.posteriors

    @pytest.mark.parametrize("pruning", [False, True])
    def test_the_reference_shares_no_code_with_the_store(
        self, family_database, pruning, monkeypatch
    ):
        """With every read of the columnar store raising, both references still answer."""
        search = GBDASearch(
            family_database, max_tau=4, num_prior_pairs=60, seed=0, use_index_pruning=pruning
        ).fit()
        base = family_database[0].graph
        queries = [SimilarityQuery(base, tau_hat, 0.5) for tau_hat in (0, 1, 2, 4)]
        expected = [search.query(query) for query in queries]
        expected_topk = [search.query_topk(query, 3).ranking for query in queries]

        def broken(*_args, **_kwargs):
            raise RuntimeError("the columnar store was read")

        for name in (
            "view", "compact", "intersection_row", "matched_query_total",
            "gbd_lower_bound_row", "filter_verify_rows",
        ):
            monkeypatch.setattr(ColumnarBranchStore, name, broken)
        with pytest.raises(RuntimeError, match="columnar store"):
            search.query(queries[0])
        for query, scored, ranking in zip(queries, expected, expected_topk):
            reference = query_reference(search, query)
            assert reference.answer.accepted_ids == scored.answer.accepted_ids
            assert reference.gbd_values == scored.gbd_values
            assert reference.posteriors == scored.posteriors
            assert query_topk_reference(search, query, 3) == ranking


class TestVariants:
    def test_v1_uses_fixed_extended_order(self, family_database):
        search = GBDAV1Search(family_database, alpha=5, max_tau=4, num_prior_pairs=60, seed=0).fit()
        assert search.fixed_extended_order >= 1
        answer = search.search(family_database[0].graph, tau_hat=2, gamma=0.5)
        assert answer.method == "GBDA-V1"
        assert 0 in answer.accepted_ids

    def test_v1_invalid_alpha(self, family_database):
        with pytest.raises(SearchError):
            GBDAV1Search(family_database, alpha=0)

    def test_v2_uses_weighted_distance(self, family_database):
        search = GBDAV2Search(
            family_database, weight=0.5, max_tau=4, num_prior_pairs=60, seed=0
        ).fit()
        answer = search.search(family_database[0].graph, tau_hat=2, gamma=0.5)
        assert answer.method == "GBDA-V2"
        result = search.query(SimilarityQuery(family_database[0].graph, 2, 0.5))
        # with w = 0.5 the "distance" of the identical graph is n/2, not 0
        assert result.gbd_values[0] > 0

    def test_v2_invalid_weight(self, family_database):
        with pytest.raises(SearchError):
            GBDAV2Search(family_database, weight=-1.0)

    def test_v2_weight_one_behaves_like_gbda_on_distances(self, family_database):
        search = GBDAV2Search(
            family_database, weight=1.0, max_tau=4, num_prior_pairs=60, seed=0
        ).fit()
        result = search.query(SimilarityQuery(family_database[0].graph, 2, 0.5))
        assert result.gbd_values[0] == 0

    def test_v2_prior_equals_per_pair_extraction(self, family_database):
        """The VGBD prior read off the stored multisets equals re-extracting each pair."""
        search = GBDAV2Search(
            family_database, weight=0.5, max_tau=3, num_prior_pairs=80, seed=4
        ).fit()
        graphs = family_database.graphs()
        pairs = sample_pairs(range(len(graphs)), 80, seed=random.Random(4))
        samples = [
            int(math.floor(family_database.vgbd_to(graphs[i], j, 0.5) + 0.5)) for i, j in pairs
        ]
        expected = GBDPrior(num_components=3, num_pairs=80, seed=4).fit_from_samples(
            samples, max_value=family_database.max_vertices
        )
        assert search.gbd_prior.report.sampled_gbds == samples
        assert search.gbd_prior.table() == expected.table()

    @pytest.mark.parametrize(
        "variant",
        [
            lambda database: GBDAV1Search(database, alpha=10, max_tau=4, num_prior_pairs=120, seed=3),
            lambda database: GBDAV2Search(database, weight=0.5, max_tau=4, num_prior_pairs=120, seed=3),
        ],
        ids=["V1", "V2"],
    )
    def test_variant_topk_ranks_by_its_own_posteriors(self, variant):
        """A variant's top-k ranks its own loop's posteriors, not plain GBDA's."""
        rng = random.Random(11)
        database = GraphDatabase(
            [random_labeled_graph(rng.randint(5, 12), rng.randint(5, 16), seed=rng) for _ in range(60)]
        )
        search = variant(database).fit()
        queries = [database[i].graph for i in range(0, 60, 10)]
        queries += [random_labeled_graph(rng.randint(5, 12), rng.randint(5, 16), seed=rng) for _ in range(3)]
        for graph in queries:
            query = SimilarityQuery(graph, 4, 0.0)
            posteriors = search.query(query).posteriors
            expected = sorted(posteriors.items(), key=lambda item: (-item[1], item[0]))
            answer = search.query_topk(query, len(database))
            assert answer.ranking == expected
            assert answer.scores == posteriors
            assert search.query_topk(query, 5).ranking == expected[:5]

    def test_variants_threshold_guard(self, family_database):
        search = GBDAV1Search(family_database, alpha=3, max_tau=2, num_prior_pairs=30, seed=0).fit()
        with pytest.raises(SearchError):
            search.search(family_database[0].graph, tau_hat=5)
