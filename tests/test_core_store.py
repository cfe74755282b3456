"""The branch store the execution core reads: edge cases, and how it follows the database.

``ExecutionCore.store`` is the database's columnar store, the one Steps 2–4
read.  Its rows are by position; these tests re-index them by graph id
(``store_rows``) and hold them to the pairwise ``graph_branch_distance``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.branches import branch_multiset
from repro.core.gbd import graph_branch_distance, max_gbd_for_ged
from repro.core.plan import ExecutionCore
from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.query import SimilarityQuery
from repro.graphs.generators import random_labeled_graph
from repro.graphs.graph import Graph
from store_rows import by_graph_id


@pytest.fixture
def small_database(triangle, path_graph):
    return GraphDatabase([triangle, path_graph], name="store-small")


def core_over(database: GraphDatabase) -> ExecutionCore:
    """A core for its store alone: no query here reads a posterior."""
    return ExecutionCore(database, None, max_tau=0)


def intersections(store, query: Graph) -> np.ndarray:
    """``|B_Q ∩ B_G|`` per stored graph, by graph id."""
    return by_graph_id(store, store.intersection_row(branch_multiset(query)))


def gbds(store, query: Graph) -> np.ndarray:
    """``GBD(Q, G)`` per stored graph, by graph id, from one position row."""
    row = store.intersection_row(branch_multiset(query))
    return by_graph_id(store, np.maximum(query.num_vertices, store.view()[1]) - row)


class TestEdgeCases:
    def test_empty_query_graph(self, small_database):
        """An empty query shares nothing; every GBD equals |V_G|."""
        store = core_over(small_database).store
        empty = Graph(name="empty")
        assert not intersections(store, empty).any()
        row = gbds(store, empty)
        for entry in small_database:
            assert row[entry.graph_id] == entry.num_vertices
            assert row[entry.graph_id] == graph_branch_distance(empty, entry.graph)

    def test_query_sharing_zero_branches(self, small_database):
        """Disjoint label alphabets → zero intersections, GBD = max(|V_Q|, |V_G|)."""
        store = core_over(small_database).store
        stranger = Graph.from_dicts(
            {0: "Q1", 1: "Q2", 2: "Q3", 3: "Q1"},
            {(0, 1): "qq", (1, 2): "qq", (2, 3): "qq"},
            name="stranger",
        )
        assert not intersections(store, stranger).any()
        row = gbds(store, stranger)
        for entry in small_database:
            assert row[entry.graph_id] == max(stranger.num_vertices, entry.num_vertices)
        assert (row > max_gbd_for_ged(1)).all()  # the branch bound keeps none

    def test_gbd_row_agrees_with_pairwise_on_random_graphs(self):
        rng = random.Random(61)
        graphs = [
            random_labeled_graph(rng.randint(3, 9), rng.randint(2, 12), seed=rng)
            for _ in range(25)
        ]
        database = GraphDatabase(graphs)
        store = core_over(database).store
        for _ in range(10):
            query = random_labeled_graph(rng.randint(2, 10), rng.randint(1, 14), seed=rng)
            row = gbds(store, query)
            for entry in database:
                expected = graph_branch_distance(query, entry.graph)
                assert row[entry.graph_id] == expected
                assert row[entry.graph_id] == database.gbd_to(query, entry.graph_id)

    def test_gbd_row_is_dense_and_integer(self, small_database, triangle):
        store = core_over(small_database).store
        row = gbds(store, triangle)
        assert isinstance(row, np.ndarray)
        assert row.shape == (len(small_database),)
        assert row.dtype == np.int64
        assert row[0] == 0  # the triangle itself is stored at id 0


class TestIncrementalConsistency:
    def test_postings_follow_database_additions(self, small_database, triangle):
        """Graphs added after the store was built must be in it (staleness fix)."""
        core = core_over(small_database)
        assert core.store.num_graphs == 2

        new_id = small_database.add(triangle.copy(name="late-triangle"))
        assert core.store.num_graphs == 3
        row = gbds(core.store, triangle)
        assert row[new_id] == 0
        assert row[new_id] <= max_gbd_for_ged(0)

    def test_gbd_row_tracks_additions(self, small_database, triangle):
        core = core_over(small_database)
        before = gbds(core.store, triangle)
        new_id = small_database.add(triangle.copy(name="late"))
        after = gbds(core.store, triangle)
        assert len(after) == len(before) + 1
        assert after[new_id] == 0

    def test_pruning_search_sees_added_graphs(self):
        rng = random.Random(67)
        graphs = [
            random_labeled_graph(rng.randint(4, 7), rng.randint(3, 9), seed=rng)
            for _ in range(15)
        ]
        database = GraphDatabase(graphs)
        search = GBDASearch(
            database, max_tau=3, num_prior_pairs=60, seed=5, use_index_pruning=True
        ).fit()
        base = graphs[0]
        new_id = database.add(base.copy(name="late-duplicate"))
        result = search.query(SimilarityQuery(base, 2, 0.5))
        assert new_id in result.gbd_values
        assert result.gbd_values[new_id] == 0

    def test_the_core_reads_the_database_store(self, small_database):
        core = core_over(small_database)
        assert core.store is small_database.store
        assert core_over(small_database).store is core.store

    def test_store_survives_pickling(self, small_database, triangle):
        import pickle

        core = core_over(small_database)
        clone = pickle.loads(pickle.dumps(core))
        new_id = clone.database.add(triangle.copy(name="late"))
        assert clone.store.num_graphs == 3
        assert gbds(clone.store, triangle)[new_id] == 0


def test_gbd_lower_bound_row_bounds_gbd_row():
    rng = random.Random(67)
    graphs = [
        random_labeled_graph(rng.randint(3, 12), rng.randint(2, 16), seed=rng)
        for _ in range(30)
    ]
    database = GraphDatabase(graphs, name="store-bounds")
    store = core_over(database).store
    for _ in range(10):
        query = random_labeled_graph(rng.randint(2, 12), rng.randint(1, 16), seed=rng)
        bounds = store.gbd_lower_bound_row(query.num_vertices, branch_multiset(query))
        bounds = by_graph_id(store, bounds)
        row = gbds(store, query)
        assert bounds.shape == row.shape
        assert (bounds <= row).all()
        for entry in database:
            assert bounds[entry.graph_id] <= database.gbd_to(query, entry.graph_id)
