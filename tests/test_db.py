"""Tests for the graph database layer: storage, branch index, catalog, queries."""

import random

import pytest

from repro.core.gbd import graph_branch_distance
from repro.core.search import GBDASearch
from repro.db.catalog import DatabaseCatalog
from repro.db.database import GraphDatabase
from repro.db.index import BranchInvertedIndex
from repro.db.kernels import available_backends
from repro.db.query import QueryAnswer, SimilarityQuery
from repro.exceptions import DatasetError, SearchError
from repro.graphs.generators import random_labeled_graph
from repro.graphs.graph import Graph
from repro.serving import BatchQueryEngine


@pytest.fixture
def small_database(triangle, path_graph, paper_g1, paper_g2):
    return GraphDatabase([triangle, path_graph, paper_g1, paper_g2], name="unit-test")


class TestGraphDatabase:
    def test_ids_are_assigned_in_order(self, small_database, triangle):
        assert len(small_database) == 4
        assert small_database[0].graph is triangle
        assert small_database[0].graph_id == 0

    def test_add_returns_id_and_extend_appends(self):
        database = GraphDatabase()
        first = database.add(random_labeled_graph(4, 4, seed=0))
        ids = database.extend([random_labeled_graph(4, 4, seed=1)])
        assert first == 0
        assert ids == [1]

    def test_branches_precomputed(self, small_database, paper_g1):
        from repro.core.branches import branch_multiset

        assert small_database[2].branches == branch_multiset(paper_g1)

    def test_label_alphabet_sizes(self, small_database):
        assert small_database.num_vertex_labels == 3  # A, B, C across all graphs
        assert small_database.num_edge_labels == 3

    def test_max_vertices_and_average_degree(self, small_database):
        assert small_database.max_vertices == 4
        assert small_database.average_degree > 0

    def test_gbd_to_matches_direct_computation(self, small_database, paper_g1, paper_g2):
        assert small_database.gbd_to(paper_g1, 3) == graph_branch_distance(paper_g1, paper_g2)

    def test_vgbd_to(self, small_database, paper_g1):
        assert small_database.vgbd_to(paper_g1, 3, weight=0.5) == pytest.approx(3.5)

    def test_out_of_range_id_rejected(self, small_database, paper_g1):
        with pytest.raises(DatasetError):
            small_database[99]

    def test_distinct_extended_orders_grouping(self, small_database, paper_g1):
        groups = small_database.distinct_extended_orders(paper_g1)
        assert set(groups) == {3, 4}
        assert sorted(sum(groups.values(), [])) == [0, 1, 2, 3]

    def test_stored_graph_name_fallback(self):
        database = GraphDatabase([Graph()])
        assert database[0].name == "g0"

    def test_iteration_and_graphs_accessor(self, small_database):
        assert len(list(small_database)) == 4
        assert len(small_database.graphs()) == 4
        assert len(small_database.entries()) == 4


class TestBranchInvertedIndex:
    def test_intersection_sizes_match_pairwise_computation(self, small_database, paper_g1):
        index = BranchInvertedIndex(small_database)
        sizes = index.intersection_sizes(paper_g1)
        from repro.core.branches import branch_multiset
        from repro.core.gbd import branch_intersection_size

        query_branches = branch_multiset(paper_g1)
        for entry in small_database:
            expected = branch_intersection_size(query_branches, entry.branches)
            assert sizes.get(entry.graph_id, 0) == expected

    def test_gbd_all_matches_direct_gbd(self, small_database, paper_g1):
        index = BranchInvertedIndex(small_database)
        gbds = index.gbd_all(paper_g1)
        for entry in small_database:
            assert gbds[entry.graph_id] == graph_branch_distance(paper_g1, entry.graph)

    def test_candidate_pruning_keeps_all_true_answers(self, small_database, paper_g1):
        index = BranchInvertedIndex(small_database)
        tau_hat = 2
        survivors = set(index.candidates_by_gbd_bound(paper_g1, tau_hat))
        # Any graph with GED <= tau_hat satisfies GBD <= 2*tau_hat and must survive.
        gbds = index.gbd_all(paper_g1)
        for graph_id, gbd in gbds.items():
            if gbd <= 2 * tau_hat:
                assert graph_id in survivors

    def test_postings_and_statistics(self, small_database, paper_g1):
        index = BranchInvertedIndex(small_database)
        assert index.num_distinct_branches > 0
        some_key = next(iter(small_database[2].branches))
        postings = index.postings(some_key)
        assert any(graph_id == 2 for graph_id, _count in postings)
        assert index.postings(("missing", ())) == []


class TestBatchNotifications:
    def test_extend_notifies_batched_subscribers_once(self, triangle, path_graph, paper_g1):
        database = GraphDatabase([triangle])
        single_calls = []
        batch_calls = []
        database.subscribe(single_calls.append)
        database.subscribe(lambda entries: batch_calls.append(list(entries)), batched=True)

        database.extend([path_graph, paper_g1, triangle.copy(name="t2")])
        # per-entry subscribers see every graph; batched ones exactly one call
        assert len(single_calls) == 3
        assert len(batch_calls) == 1
        assert len(batch_calls[0]) == 3

        database.add(triangle.copy(name="t3"))
        assert len(single_calls) == 4
        assert len(batch_calls) == 2
        assert len(batch_calls[1]) == 1

    def test_add_many_returns_contiguous_ids_and_bumps_revision(self, triangle, path_graph):
        database = GraphDatabase([triangle])
        before = database.revision
        ids = database.add_many([path_graph, triangle.copy(name="b")])
        assert ids == [1, 2]
        assert database.revision == before + 2

    def test_bulk_load_compacts_the_index_once(self, triangle, path_graph):
        database = GraphDatabase([triangle, path_graph])
        index = BranchInvertedIndex(database)
        index.gbd_all(triangle)  # force the initial compaction
        before = index.store.num_compactions

        database.extend([triangle.copy(name=f"bulk{i}") for i in range(10)])
        assert index.num_indexed_graphs == 12  # appends buffered immediately
        assert index.store.num_compactions == before  # ...but not compacted yet
        gbds = index.gbd_all(triangle)
        assert index.store.num_compactions == before + 1  # one merge for 10 adds
        assert sum(1 for value in gbds.values() if value == 0) == 11

    def test_unsubscribe_detaches_batched_callback(self, triangle):
        database = GraphDatabase([triangle])
        calls = []

        def hook(entries):
            calls.append(entries)

        database.subscribe(hook, batched=True)
        database.unsubscribe(hook)
        database.add(triangle.copy(name="late"))
        assert calls == []


class TestAddManyIsAllOrNothing:
    """A batch with a bad item changes nothing; the next batch lands where its ids say."""

    @staticmethod
    def _graphs(count, seed):
        rng = random.Random(seed)
        return [
            random_labeled_graph(rng.randint(4, 8), rng.randint(3, 10), seed=rng)
            for _ in range(count)
        ]

    def test_a_bad_item_leaves_the_database_and_its_index_as_they_were(self):
        a, b, c, d, e = self._graphs(5, seed=1)
        database = GraphDatabase([a, b])
        index = BranchInvertedIndex(database)
        batches = []
        database.subscribe(batches.append, batched=True)
        alphabets = database.num_vertex_labels, database.num_edge_labels
        gbds = index.gbd_all(a)

        with pytest.raises(DatasetError, match="item 1"):
            database.add_many([c, None, d])
        assert (len(database), database.revision, index.num_indexed_graphs) == (2, 2, 2)
        assert (database.num_vertex_labels, database.num_edge_labels) == alphabets
        assert batches == [] and index.gbd_all(a) == gbds

        # Every later graph is indexed at the row its id names.
        assert database.add(e) == 2
        assert database.add_many([c, d]) == [3, 4]
        assert index.store.global_ids().tolist() == [0, 1, 2, 3, 4]
        assert index.gbd_all(c)[3] == 0 and index.gbd_all(d)[4] == 0

    @pytest.mark.parametrize("backend", available_backends())
    def test_the_engine_answers_like_the_reference_before_and_after(self, backend):
        stored, late, queries = self._graphs(20, 2), self._graphs(6, 3), self._graphs(6, 4)
        search = GBDASearch(GraphDatabase(stored), max_tau=3, num_prior_pairs=80, seed=2).fit()
        engine = BatchQueryEngine.from_search(search, cache_size=None, kernel_backend=backend)
        queries = [SimilarityQuery(graph, tau, 0.3) for graph in queries for tau in (1, 3)]
        queries += [SimilarityQuery(graph, 0, 0.3) for graph in late]  # each finds itself, once added

        def answers():
            return [(answer.accepted_ids, answer.scores) for answer in map(engine.query, queries)]

        def reference():
            found = [search.query_reference(query) for query in queries]
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


class TestShardViews:
    def test_shards_partition_and_preserve_global_ids(self):
        graphs = [random_labeled_graph(4, 4, seed=i) for i in range(10)]
        database = GraphDatabase(graphs, name="shardable")
        shards = database.shard(3)
        assert [len(shard) for shard in shards] == [3, 3, 4]
        seen = [graph_id for shard in shards for graph_id in shard.graph_ids()]
        assert seen == list(range(10))
        # entries are shared, not copied, and reachable by their global id
        assert shards[2][9] is database[9]

    def test_shard_views_are_read_only(self):
        database = GraphDatabase([random_labeled_graph(4, 4, seed=0)])
        shard = database.shard(1)[0]
        with pytest.raises(DatasetError):
            shard.add(random_labeled_graph(4, 4, seed=1))
        with pytest.raises(DatasetError):
            shard.extend([random_labeled_graph(4, 4, seed=2)])

    def test_shard_rejects_foreign_ids_and_bad_counts(self):
        graphs = [random_labeled_graph(4, 4, seed=i) for i in range(4)]
        database = GraphDatabase(graphs)
        first, second = database.shard(2)
        with pytest.raises(DatasetError):
            first[3]  # id 3 lives in the second shard
        assert second[3].graph_id == 3
        with pytest.raises(DatasetError):
            database.shard(0)
        with pytest.raises(DatasetError):
            GraphDatabase().shard(2)

    def test_more_shards_than_graphs_clamps(self):
        database = GraphDatabase([random_labeled_graph(4, 4, seed=i) for i in range(2)])
        shards = database.shard(5)
        assert len(shards) == 2
        assert all(len(shard) == 1 for shard in shards)

    def test_shards_share_parent_label_alphabets(self):
        g1 = Graph.from_dicts({0: "A", 1: "B"}, {(0, 1): "x"})
        g2 = Graph.from_dicts({0: "C", 1: "D"}, {(0, 1): "y"})
        database = GraphDatabase([g1, g2])
        for shard in database.shard(2):
            assert shard.num_vertex_labels == database.num_vertex_labels
            assert shard.num_edge_labels == database.num_edge_labels


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
        assert answer.contains(1)
        assert not answer.contains(3)
        assert answer.score_of(1) == 0.9
        assert answer.score_of(3) is None
