"""Tests for repro.offline: pair GBDs from the branch store and the incremental OfflineFitter."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.branches import branch_multiset
from repro.core.gbd import graph_branch_distance
from repro.core.gbd_prior import GBDPrior, _pair_gbds
from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.kernels import available_backends
from repro.db.query import SimilarityQuery
from repro.exceptions import SearchError
from repro.graphs.generators import random_labeled_graph
from repro.graphs.graph import Graph
from repro.offline import OfflineFitter
from repro.offline.fitter import _draw_partners
from repro.serving.snapshot import load_engine
from repro.stats.gmm import GaussianMixtureModel
from repro.stats.sampling import sample_pairs
from repro.testing.oracles import fit_gmm_oracle


@pytest.fixture()
def population():
    return [random_labeled_graph(10, 13, seed=s, name=f"g{s}") for s in range(30)]


@pytest.fixture()
def database(population):
    return GraphDatabase(population, name="offline-test")


class TestParallelHelpers:
    def test_pair_gbds_match_database_path(self, population, database):
        pairs = [(0, 5), (3, 7), (2, 2)]
        multisets = [branch_multiset(graph) for graph in population]
        gbds = _pair_gbds([graph.num_vertices for graph in population], multisets, pairs)
        for (i, j), gbd in zip(pairs, gbds):
            assert gbd == database.gbd_to(population[i], j)
        assert database.store.branch_distances(pairs) == gbds

    def test_prior_samples_equal_graph_branch_distance(self, population, database):
        """The store's rows and bare-graph extraction give the same sampled GBDs."""
        for seed in (0, 1, 2):
            pairs = sample_pairs(range(len(population)), 200, seed=random.Random(seed))
            expected = [graph_branch_distance(population[i], population[j]) for i, j in pairs]
            stored = GBDPrior(num_components=2, num_pairs=200, seed=seed).fit(database)
            extracted = GBDPrior(num_components=2, num_pairs=200, seed=seed).fit(population)
            assert stored.report.sampled_gbds == expected
            assert extracted.report.sampled_gbds == expected
            assert stored.table() == extracted.table()

    def test_repeats_and_self_pairs(self, population, database):
        rng = random.Random(1)
        pairs = [(rng.randrange(30), rng.randrange(30)) for _ in range(300)] + [(4, 4), (4, 4)]
        gbds = database.store.branch_distances(pairs)
        assert gbds == [graph_branch_distance(population[i], population[j]) for i, j in pairs]
        assert gbds[-1] == gbds[-2] == 0
        assert database.store.branch_distances([]) == []


_labels = st.sampled_from(["A", "B", "C"])


@st.composite
def _graph_sets(draw):
    """Small labelled graphs — the empty graph and isolated vertices included."""
    graphs = []
    for _ in range(draw(st.integers(1, 8))):
        graph = Graph()
        size = draw(st.integers(0, 6))
        for vertex in range(size):
            graph.add_vertex(vertex, draw(_labels))
        for u in range(size):
            for v in range(u + 1, size):
                if draw(st.booleans()):
                    graph.add_edge(u, v, draw(st.sampled_from(["x", "y"])))
        graphs.append(graph)
    return graphs


@settings(max_examples=60, deadline=None)
@given(graphs=_graph_sets(), batches=st.integers(1, 3), data=st.data())
@pytest.mark.parametrize("backend", available_backends())
def test_store_pair_gbds_equal_both_scalar_paths(backend, graphs, batches, data):
    """Pair GBDs read off the store = ``graph_branch_distance`` = the bare-graph ``_pair_gbds``.

    The graphs arrive over one to three ``add_many`` batches, with a read of
    the rows between batches; the pairs include self-pairs and repeats.
    """
    database = GraphDatabase(kernel_backend=backend)
    cut = sorted(data.draw(st.lists(st.integers(0, len(graphs)), max_size=batches - 1)))
    for low, high in zip([0, *cut], [*cut, len(graphs)]):
        database.add_many(graphs[low:high])
        database.store.branch_distances([(0, 0)] if len(database) else [])
    ids = st.integers(0, len(graphs) - 1)
    pairs = data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=25))
    pairs += [(i, i) for i, _j in pairs[:2]] + pairs[:3]
    expected = [graph_branch_distance(graphs[i], graphs[j]) for i, j in pairs]
    multisets = {index: branch_multiset(graphs[index]) for pair in pairs for index in pair}
    assert _pair_gbds([graph.num_vertices for graph in graphs], multisets, pairs) == expected
    assert database.store.branch_distances(pairs) == expected


class TestOfflineFitterFullFit:
    def test_fit_matches_gbdasearch(self, database):
        """The fitter's offline stage is the same computation GBDASearch runs."""
        fitter = OfflineFitter(database, max_tau=4, num_prior_pairs=120, seed=0).fit()
        search = GBDASearch(database, max_tau=4, num_prior_pairs=120, seed=0).fit()
        assert fitter.gbd_prior.table() == search.gbd_prior.table()
        assert fitter.ged_prior.matrix() == search.ged_prior.matrix()

        query = SimilarityQuery(database[0].graph, 2, 0.5)
        engine_answer = fitter.build_engine(cache_size=None).query(query)
        loop_answer = search.query(query).answer
        assert engine_answer.accepted_ids == loop_answer.accepted_ids

    def test_search_fit_moves_no_offline_metric(self, database):
        """GBDASearch runs the same offline stage, but it is not the fitter's fit."""
        from repro.offline import fitter as fitter_module

        metrics = ("_FITS_FULL", "_FITS_INCREMENTAL", "_FIT_SECONDS", "_MODEL_VERSION")
        OfflineFitter(database, max_tau=4, num_prior_pairs=60, seed=0).fit()
        before = [getattr(fitter_module, name).value for name in metrics]
        GBDASearch(database, max_tau=4, num_prior_pairs=60, seed=1).fit()
        assert [getattr(fitter_module, name).value for name in metrics] == before

    def test_fit_sets_version_and_revision(self, database):
        fitter = OfflineFitter(database, max_tau=4, num_prior_pairs=60, seed=0)
        assert not fitter.is_fitted
        assert database.revision != fitter.fitted_revision
        fitter.fit()
        assert fitter.is_fitted
        assert fitter.version == 1
        assert fitter.fitted_revision == database.revision

    def test_empty_database_rejected(self):
        with pytest.raises(SearchError):
            OfflineFitter(GraphDatabase([]))

    def test_refit_before_fit_rejected(self, database):
        with pytest.raises(SearchError):
            OfflineFitter(database).refit()


class TestIncrementalRefit:
    def test_refit_without_additions_is_noop(self, database):
        fitter = OfflineFitter(database, max_tau=4, num_prior_pairs=60, seed=0).fit()
        table_before = fitter.gbd_prior.table()
        assert fitter.refit() is False
        assert fitter.version == 1
        assert fitter.gbd_prior.table() == table_before

    def test_refit_folds_in_new_graphs(self, database):
        fitter = OfflineFitter(
            database, max_tau=4, num_prior_pairs=60, seed=0, refit_pairs_per_graph=8
        ).fit()
        samples_before = fitter.last_report.num_total_samples

        database.add(random_labeled_graph(15, 20, seed=90, name="new0"))
        database.add(random_labeled_graph(15, 22, seed=91, name="new1"))
        assert fitter.num_pending == 2
        assert database.revision != fitter.fitted_revision

        assert fitter.refit() is True
        assert fitter.version == 2
        assert fitter.num_pending == 0
        assert fitter.fitted_revision == database.revision
        assert fitter.last_report.num_new_graphs == 2
        assert fitter.last_report.num_new_pairs == 16
        assert fitter.last_report.num_total_samples == samples_before + 16
        # the new 15-vertex order is covered without refitting old columns
        assert 15 in fitter.ged_prior.orders

    def test_refit_is_deterministic(self, population):
        def run():
            db = GraphDatabase(list(population), name="det")
            fitter = OfflineFitter(
                db, max_tau=4, num_prior_pairs=60, seed=5, refit_pairs_per_graph=6
            ).fit()
            db.add(random_labeled_graph(13, 17, seed=77, name="extra"))
            fitter.refit()
            return fitter.gbd_prior.table(), fitter.ged_prior.matrix()

        first, second = run(), run()
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_refit_rebuilds_grid_when_label_alphabet_grows(self, database):
        fitter = OfflineFitter(database, max_tau=3, num_prior_pairs=60, seed=0).fit()
        labels_before = fitter.ged_prior.num_vertex_labels
        database.add(
            random_labeled_graph(
                10, 13, seed=50, vertex_labels=["NEW1", "NEW2"], edge_labels=["nn"]
            )
        )
        fitter.refit()
        assert fitter.ged_prior.num_vertex_labels == database.num_vertex_labels
        assert fitter.ged_prior.num_vertex_labels > labels_before

    def test_refit_leaves_the_previous_prior_alone(self):
        """An engine built on version 1 answers with version 1's model after a refit.

        ``engine`` first reads its posterior tables after the refit; ``reference``
        read them before it.  On the graphs both can see, they agree.
        """
        rng = random.Random(3)
        small = [
            random_labeled_graph(rng.randint(4, 9), rng.randint(3, 12), seed=rng)
            for _ in range(40)
        ]
        database = GraphDatabase(small[:30])
        fitter = OfflineFitter(database, max_tau=2, num_prior_pairs=80, seed=1).fit()
        reference, engine = (
            fitter.build_engine(cache_size=None) for _ in range(2)
        )
        query = SimilarityQuery(small[0], 2, 0.0)
        expected = reference.query(query).scores
        assert len(set(expected.values())) > 2  # posteriors strictly between 0 and 1 too
        database.add_many(small[30:])
        assert fitter.refit()
        got = engine.query(query).scores
        assert {graph_id: score for graph_id, score in got.items() if graph_id < 30} == expected

    def test_refit_answers_cover_new_graph(self, database):
        fitter = OfflineFitter(database, max_tau=4, num_prior_pairs=60, seed=0).fit()
        new_graph = random_labeled_graph(11, 14, seed=60, name="fresh")
        new_id = database.add(new_graph)
        fitter.refit()
        answer = fitter.build_engine(cache_size=None).query(SimilarityQuery(new_graph, 2, 0.5))
        assert new_id in answer.accepted_ids


class TestRefitPartners:
    @staticmethod
    def _listed(rng, population, graph_id, count):
        """The draw as refit used to make it: over an explicit list of the other ids."""
        others = [i for i in range(population) if i != graph_id]
        return rng.sample(others, count)

    def test_draw_equals_the_list_construction(self):
        population = 1000
        for seed in range(6):
            ours, listed = random.Random(seed), random.Random(seed)
            for graph_id in (0, population // 2, population - 1, 0, 7):
                for count in (1, 64, population - 1):
                    drawn = _draw_partners(ours, population, graph_id, count)
                    assert drawn == self._listed(listed, population, graph_id, count)
                    assert graph_id not in drawn

    def test_refit_samples_equal_the_list_construction(self, population):
        database = GraphDatabase(list(population), name="partners")
        fitter = OfflineFitter(
            database, max_tau=4, num_prior_pairs=60, seed=5, refit_pairs_per_graph=6
        ).fit()
        before = len(fitter._samples)
        new_ids = database.add_many(
            [random_labeled_graph(13, 17, seed=s, name=f"extra{s}") for s in (77, 78)]
        )
        fitter.refit()

        rng = random.Random(5 * 1_000_003 + 1)
        graphs = database.graphs()
        expected = [
            graph_branch_distance(graphs[graph_id], graphs[j])
            for graph_id in new_ids
            for j in self._listed(rng, len(graphs), graph_id, 6)
        ]
        assert fitter._samples[before:] == expected


class TestSnapshotVersioning:
    def test_snapshot_round_trips_model_version(self, database, tmp_path):
        fitter = OfflineFitter(database, max_tau=4, num_prior_pairs=60, seed=0).fit()
        path = tmp_path / "engine.v1.snapshot"
        fitter.snapshot(path, cache_size=None)
        assert load_engine(path).model_version == 1

        database.add(random_labeled_graph(12, 15, seed=70))
        fitter.refit()
        path2 = tmp_path / "engine.v2.snapshot"
        fitter.snapshot(path2, cache_size=None)
        loaded = load_engine(path2)
        assert loaded.model_version == 2
        assert len(loaded.database) == len(database)

    def test_engine_from_search_has_version_zero(self, database, tmp_path):
        from repro.serving.engine import BatchQueryEngine

        search = GBDASearch(database, max_tau=3, num_prior_pairs=60, seed=0).fit()
        engine = BatchQueryEngine.from_search(search, cache_size=None)
        assert engine.model_version == 0
        path = tmp_path / "plain.snapshot"
        engine.save(path)
        assert load_engine(path).model_version == 0


class TestBackendEndToEnd:
    def test_numpy_and_python_backends_answer_identically(self, database, monkeypatch):
        """A search whose prior the scalar EM oracle fitted answers as the vectorised one."""
        queries = [SimilarityQuery(database[i].graph, tau, 0.5) for i, tau in ((0, 1), (3, 2), (7, 4))]
        vector = GBDASearch(database, max_tau=4, num_prior_pairs=120, seed=0).fit()
        with monkeypatch.context() as patched:
            patched.setattr(GaussianMixtureModel, "fit", fit_gmm_oracle)
            scalar = GBDASearch(database, max_tau=4, num_prior_pairs=120, seed=0).fit()
        for query in queries:
            a = scalar.query(query)
            b = vector.query(query)
            assert a.answer.accepted_ids == b.answer.accepted_ids
            assert a.gbd_values == b.gbd_values
            for graph_id, posterior in a.posteriors.items():
                assert b.posteriors[graph_id] == pytest.approx(posterior, abs=1e-9)

    @pytest.mark.parametrize(
        "build",
        [
            lambda database: GaussianMixtureModel(2, backend="numpy"),
            lambda database: GBDPrior(3, 100, backend="numpy"),
            lambda database: GBDASearch(database, backend="numpy"),
            lambda database: OfflineFitter(database, backend="numpy"),
        ],
        ids=["GaussianMixtureModel", "GBDPrior", "GBDASearch", "OfflineFitter"],
    )
    def test_constructors_reject_backend(self, database, build):
        with pytest.raises(TypeError):
            build(database)
