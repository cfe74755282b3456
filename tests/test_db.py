"""Tests for the graph database layer: storage, branch store, catalog, queries."""

import gc
import random

import pytest

import numpy as np

from repro.core.branches import branch_multiset
from repro.core.gbd import graph_branch_distance, max_gbd_for_ged
from repro.core.search import GBDASearch
from repro.db.catalog import DatabaseCatalog
from repro.db.database import GraphDatabase
from repro.db.kernels import available_backends
from repro.db.query import QueryAnswer, SimilarityQuery
from repro.exceptions import DatasetError, SearchError
from repro.graphs.generators import random_labeled_graph
from repro.graphs.graph import Graph
from repro.serving import BatchQueryEngine
from repro.testing.oracles import query_reference
from store_rows import by_graph_id, key_postings


@pytest.fixture
def small_database(triangle, path_graph, paper_g1, paper_g2):
    return GraphDatabase([triangle, path_graph, paper_g1, paper_g2], name="unit-test")


class TestGraphDatabase:
    def test_ids_are_assigned_in_order(self, small_database, triangle):
        assert len(small_database) == 4
        assert small_database[0].graph is triangle
        assert small_database[0].graph_id == 0

    def test_add_returns_id_and_add_many_appends(self):
        database = GraphDatabase()
        first = database.add(random_labeled_graph(4, 4, seed=0))
        ids = database.add_many([random_labeled_graph(4, 4, seed=1)])
        assert first == 0
        assert ids == [1]

    def test_branches_live_in_the_store_only(self, small_database, paper_g1):
        """Row ``i`` of the store is graph ``i``'s multiset; the entry holds no copy."""
        for key, count in branch_multiset(paper_g1).items():
            assert (2, count) in key_postings(small_database.store, key)
        assert small_database.store.num_postings == sum(
            len(branch_multiset(entry.graph)) for entry in small_database
        )
        assert not hasattr(small_database[2], "branches")

    def test_label_alphabet_sizes(self, small_database):
        assert small_database.num_vertex_labels == 3  # A, B, C across all graphs
        assert small_database.num_edge_labels == 3

    def test_label_alphabets_grow_with_each_add(self):
        database = GraphDatabase([Graph.from_dicts({0: "A", 1: "B"}, {(0, 1): "x"})])
        assert (database.num_vertex_labels, database.num_edge_labels) == (2, 1)
        database.add(Graph.from_dicts({0: "C", 1: "D"}, {(0, 1): "y"}))
        assert (database.num_vertex_labels, database.num_edge_labels) == (4, 2)
        database.add(Graph.from_dicts({0: "A", 1: "C"}, {(0, 1): "x"}))
        assert (database.num_vertex_labels, database.num_edge_labels) == (4, 2)

    def test_max_vertices(self, small_database):
        assert small_database.max_vertices == 4

    def test_gbd_to_matches_direct_computation(self, small_database, paper_g1, paper_g2):
        assert small_database.gbd_to(paper_g1, 3) == graph_branch_distance(paper_g1, paper_g2)

    def test_vgbd_to(self, small_database, paper_g1):
        assert small_database.vgbd_to(paper_g1, 3, weight=0.5) == pytest.approx(3.5)

    def test_out_of_range_id_rejected(self, small_database, paper_g1):
        with pytest.raises(DatasetError):
            small_database[99]

    def test_stored_graph_name_fallback(self):
        database = GraphDatabase([Graph()])
        assert database[0].name == "g0"

    def test_iteration_and_graphs_accessor(self, small_database):
        assert len(list(small_database)) == 4
        assert len(small_database.graphs()) == 4
        assert len(small_database.entries()) == 4


def gbd_by_id(store, query):
    """``{graph_id: GBD(Q, G)}`` from one position row of the store."""
    row = store.intersection_row(branch_multiset(query))
    row = by_graph_id(store, np.maximum(query.num_vertices, store.view()[1]) - row)
    return dict(zip(sorted(store.view()[2].tolist()), row.tolist()))


class TestCoreStore:
    def test_intersection_row_matches_pairwise_computation(self, small_database, paper_g1):
        store = small_database.store
        query_branches = branch_multiset(paper_g1)
        sizes = by_graph_id(store, store.intersection_row(query_branches))
        from repro.core.gbd import branch_intersection_size

        for entry in small_database:
            expected = branch_intersection_size(query_branches, branch_multiset(entry.graph))
            assert sizes[entry.graph_id] == expected

    def test_gbd_row_matches_direct_gbd(self, small_database, paper_g1):
        store = small_database.store
        gbds = gbd_by_id(store, paper_g1)
        for entry in small_database:
            assert gbds[entry.graph_id] == graph_branch_distance(paper_g1, entry.graph)
            assert gbds[entry.graph_id] == small_database.gbd_to(paper_g1, entry.graph_id)

    def test_branch_bound_keeps_all_true_answers(self, small_database, paper_g1):
        store = small_database.store
        tau_hat = 2
        gbds = gbd_by_id(store, paper_g1)
        survivors = {graph_id for graph_id, gbd in gbds.items() if gbd <= max_gbd_for_ged(tau_hat)}
        # Any graph with GED <= tau_hat satisfies GBD <= 2*tau_hat and must survive.
        for graph_id, gbd in gbds.items():
            if gbd <= 2 * tau_hat:
                assert graph_id in survivors

    def test_postings_and_statistics(self, small_database, paper_g1):
        store = small_database.store
        assert store.num_keys > 0
        some_key = next(iter(branch_multiset(paper_g1)))
        postings = key_postings(store, some_key)
        assert any(graph_id == 2 for graph_id, _count in postings)
        assert key_postings(store, ("missing", ())) == []


class TestBulkLoads:
    def test_add_many_returns_contiguous_ids_and_bumps_revision(self, triangle, path_graph):
        database = GraphDatabase([triangle])
        before = database.revision
        ids = database.add_many([path_graph, triangle.copy(name="b")])
        assert ids == [1, 2]
        assert database.revision == before + 2

    def test_revision_counts_the_graphs_and_slices_what_came_after(self, triangle, path_graph):
        database = GraphDatabase([triangle, path_graph])
        revision = database.revision
        assert revision == len(database) == database.store.num_graphs == 2
        database.add_many([triangle.copy(name="c"), path_graph.copy(name="d")])
        assert [entry.graph.name for entry in database[revision:]] == ["c", "d"]
        assert database[database.revision:] == []

    def test_bulk_load_compacts_the_store_once(self, triangle, path_graph):
        database = GraphDatabase([triangle, path_graph])
        store = database.store
        gbd_by_id(store, triangle)  # force the initial compaction
        before = store.num_compactions

        database.add_many([triangle.copy(name=f"bulk{i}") for i in range(10)])
        assert store.num_graphs == 12  # appends buffered immediately
        assert store.num_compactions == before  # ...but not compacted yet
        gbds = gbd_by_id(store, triangle)
        assert store.num_compactions == before + 1  # one merge for 10 adds
        assert sum(1 for value in gbds.values() if value == 0) == 11


class TestAddManyIsAllOrNothing:
    """A batch with a bad item changes nothing; the next batch lands where its ids say."""

    @staticmethod
    def _graphs(count, seed):
        rng = random.Random(seed)
        return [
            random_labeled_graph(rng.randint(4, 8), rng.randint(3, 10), seed=rng)
            for _ in range(count)
        ]

    def test_a_bad_item_leaves_the_database_and_its_store_as_they_were(self):
        a, b, c, d, e = self._graphs(5, seed=1)
        database = GraphDatabase([a, b])
        store = database.store
        alphabets = database.num_vertex_labels, database.num_edge_labels
        gbds = gbd_by_id(store, a)

        with pytest.raises(DatasetError, match="item 1"):
            database.add_many([c, None, d])
        assert (len(database), database.revision, store.num_graphs) == (2, 2, 2)
        assert (database.num_vertex_labels, database.num_edge_labels) == alphabets
        assert gbd_by_id(store, a) == gbds

        # Every later graph is stored under the id it was given.
        assert database.add(e) == 2
        assert database.add_many([c, d]) == [3, 4]
        assert sorted(store.view()[2].tolist()) == [0, 1, 2, 3, 4]
        assert gbd_by_id(store, c)[3] == 0 and gbd_by_id(store, d)[4] == 0

    @pytest.mark.parametrize("backend", available_backends())
    def test_the_engine_answers_like_the_reference_before_and_after(self, backend):
        stored, late, queries = self._graphs(20, 2), self._graphs(6, 3), self._graphs(6, 4)
        database = GraphDatabase(stored, kernel_backend=backend)
        search = GBDASearch(database, max_tau=3, num_prior_pairs=80, seed=2).fit()
        engine = BatchQueryEngine.from_search(search, cache_size=None)
        queries = [SimilarityQuery(graph, tau, 0.3) for graph in queries for tau in (1, 3)]
        queries += [SimilarityQuery(graph, 0, 0.3) for graph in late]  # each finds itself, once added

        def answers():
            return [(answer.accepted_ids, answer.scores) for answer in map(engine.query, queries)]

        def reference():
            found = [query_reference(search, query) for query in queries]
            return [
                (one.answer.accepted_ids, {i: one.posteriors[i] for i in one.answer.accepted_ids})
                for one in found
            ]

        before = answers()
        assert before == reference()
        with pytest.raises(DatasetError, match="item 2"):
            search.database.add_many(late[:2] + ["not a graph"] + late[2:])
        assert len(search.database) == 20 and answers() == before

        assert search.database.add_many(late) == list(range(20, 26))
        after = answers()
        assert after == reference() and after != before
        assert all(20 + offset in after[-6 + offset][0] for offset in range(6))


class TestFootprint:
    def test_a_database_and_its_engine_track_about_one_object_per_graph(self):
        """One ``StoredGraph`` a graph: no per-graph multiset, no other tracked object.

        The garbage collector walks every tracked object on a full collection;
        what the corpus adds beyond its input graphs is the stored entries,
        and the store's arrays, which it does not track.
        """
        rng = random.Random(7)
        graphs = [
            random_labeled_graph(rng.randint(4, 9), rng.randint(3, 12), seed=rng)
            for _ in range(4000)
        ]
        search = GBDASearch(GraphDatabase(graphs[:200]), max_tau=2, num_prior_pairs=80, seed=1)
        estimator = search.fit().estimator
        query = SimilarityQuery(graphs[0], 1, 0.5)
        gc.collect()
        before = len(gc.get_objects())
        database = GraphDatabase(graphs)
        engine = BatchQueryEngine(database, estimator, max_tau=2)
        engine.query(query)
        gc.collect()
        per_graph = (len(gc.get_objects()) - before) / len(graphs)
        assert per_graph <= 1.05, per_graph


class TestDatabaseCatalog:
    def test_catalog_row_structure(self, small_database, paper_g1):
        catalog = DatabaseCatalog.from_database(small_database, queries=[paper_g1], scale_free=True)
        row = catalog.as_row()
        assert row["Data Set"] == "unit-test"
        assert row["|D|"] == 4
        assert row["|Q|"] == 1
        assert row["Vm"] == 4
        assert row["Scale-free"] == "Yes"

    def test_scale_free_flag_estimated_when_not_forced(self, small_database):
        catalog = DatabaseCatalog.from_database(small_database)
        assert catalog.scale_free in (True, False)


class TestQueryObjects:
    def test_similarity_query_validation(self, triangle):
        with pytest.raises(SearchError):
            SimilarityQuery(triangle, tau_hat=-1)
        with pytest.raises(SearchError):
            SimilarityQuery(triangle, tau_hat=1, gamma=1.5)

    def test_similarity_query_raises_query_error(self, triangle):
        """Invalid thresholds raise the dedicated QueryError (a SearchError)."""
        from repro.exceptions import QueryError

        with pytest.raises(QueryError):
            SimilarityQuery(triangle, tau_hat=-3)
        with pytest.raises(QueryError):
            SimilarityQuery(triangle, tau_hat=1, gamma=-0.1)
        with pytest.raises(QueryError):
            SimilarityQuery(triangle, tau_hat=1, gamma=1.0001)
        with pytest.raises(QueryError):
            SimilarityQuery(triangle, tau_hat=1.5)
        with pytest.raises(QueryError):
            SimilarityQuery(triangle, tau_hat="two")
        with pytest.raises(QueryError):
            SimilarityQuery(triangle, tau_hat=1, gamma="high")
        for infinite in (float("inf"), float("-inf")):
            with pytest.raises(QueryError):
                SimilarityQuery(triangle, tau_hat=infinite)
            with pytest.raises(QueryError):
                SimilarityQuery(triangle, tau_hat=1, top_k=infinite)
        for bad_k in (0, -1, float("nan"), 2.7, "3"):
            with pytest.raises(QueryError):
                SimilarityQuery(triangle, tau_hat=1, top_k=bad_k)

    def test_similarity_query_accepts_boundary_values(self, triangle):
        assert SimilarityQuery(triangle, tau_hat=0, gamma=0.0).gamma == 0.0
        assert SimilarityQuery(triangle, tau_hat=3, gamma=1.0).gamma == 1.0

    def test_similarity_query_normalises_numeric_types(self, triangle):
        """Integral floats / numeric strings are coerced to native numbers."""
        query = SimilarityQuery(triangle, tau_hat=2.0, gamma="0.5")
        assert query.tau_hat == 2 and type(query.tau_hat) is int
        assert query.gamma == 0.5 and type(query.gamma) is float

    def test_query_answer_helpers(self):
        answer = QueryAnswer(method="x", accepted_ids=frozenset({1, 2}), scores={1: 0.9})
        assert answer.size == 2
        assert 1 in answer.accepted_ids
        assert 3 not in answer.accepted_ids
        assert answer.scores.get(1) == 0.9
        assert answer.scores.get(3) is None
