"""The compiled reducer's arguments follow the store snapshot they name.

A store snapshot carries the addresses of its arrays (``_Snapshot.arguments``)
and a posterior table its own (``PosteriorTable.arguments``): both are built
with the record they belong to and live exactly as long as it.  Each answer
below is held to the scalar per-pair loop
(:func:`repro.testing.oracles.query_reference`, and its γ = 0 ranking for
top-k) after the snapshot changed under the engine:

1. a write (``add_many``) publishes a new snapshot between two queries;
2. a reader pinned a view that a compaction superseded, and reads it again;
3. an engine travels through ``pickle`` and through ``save_engine`` /
   ``load_engine`` (addresses are never pickled: the loaded records derive
   their own);
4. a dropped engine leaves nothing alive: no module keeps a snapshot, a
   view's arrays or a table.

Both kernel backends; the module also runs under ASan/UBSan
(``tests/test_kernels_sanitized.py``).
"""

from __future__ import annotations

import gc
import pickle
import random
import weakref

import pytest

from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.kernels import available_backends
from repro.db.query import SimilarityQuery
from repro.graphs.generators import random_labeled_graph
from repro.serving import BatchQueryEngine
from repro.serving.snapshot import load_engine, save_engine
from repro.testing.oracles import query_reference, query_topk_reference

BACKENDS = available_backends()
backend_params = [
    pytest.param(
        name,
        marks=()
        if name in BACKENDS
        else pytest.mark.skip(reason="native kernel backend unavailable here"),
    )
    for name in ("numpy", "native")
]
TOP_K = 5


def _graphs(count, seed):
    rng = random.Random(seed)
    return [
        random_labeled_graph(rng.randint(4, 9), rng.randint(3, 12), seed=rng)
        for _ in range(count)
    ]


def _queries(seed):
    rng = random.Random(seed)
    return [
        SimilarityQuery(graph, rng.randint(0, 3), rng.choice([0.1, 0.3, 0.5, 0.9]))
        for graph in _graphs(6, seed)
    ]


def _search(backend, graphs):
    database = GraphDatabase(graphs, kernel_backend=backend)
    return GBDASearch(database, max_tau=3, num_prior_pairs=80, seed=4).fit()


def _assert_reference(engine, search, queries):
    """Every query's thresholded answer and top-k ranking are the per-pair loop's."""
    for query in queries:
        reference = query_reference(search, query)
        answer = engine.query(query)
        assert answer.accepted_ids == reference.answer.accepted_ids
        assert answer.scores == {
            graph_id: reference.posteriors[graph_id] for graph_id in answer.accepted_ids
        }
        assert engine.query_topk(query, TOP_K).ranking == query_topk_reference(
            search, query, TOP_K
        )


@pytest.mark.parametrize("backend", backend_params)
def test_a_write_between_two_queries_reads_the_new_snapshot(backend):
    search = _search(backend, _graphs(40, seed=1))
    engine = BatchQueryEngine.from_search(search, cache_size=None)
    queries = _queries(seed=2)
    _assert_reference(engine, search, queries)
    store = search.database.store
    before = store._published
    # Copies of the queries: each is then a GBD-0 hit of its own query.
    search.database.add_many([query.query_graph.copy() for query in queries])
    _assert_reference(engine, search, queries)
    assert store._published is not before
    assert store._published.arguments is not None or backend == "numpy"


@pytest.mark.parametrize("backend", backend_params)
def test_a_superseded_view_is_read_against_its_own_arrays(backend):
    search = _search(backend, _graphs(40, seed=3))
    engine = BatchQueryEngine.from_search(search, cache_size=None)
    core, store = engine._core, search.database.store
    queries = _queries(seed=4)
    old = store.view()
    distinct = old.ranges[0]
    rows = [
        (
            query.query_graph.num_vertices,
            query.branches(),
            core._table(query.tau_hat, query.query_graph.num_vertices, distinct),
            query.gamma,
        )
        for query in queries
    ]
    expected = [query_reference(search, query).answer.accepted_ids for query in queries]
    search.database.add_many(_graphs(12, seed=5))
    store.compact()
    assert store._published.csr is not old[0]
    _csr, _orders, old_ids = old
    for (hits, *_rest), accepted in zip(store.filter_verify_rows(rows, view=old), expected):
        assert frozenset(old_ids[hits].tolist()) == accepted
    # The current snapshot answers for every graph, the new ones included.
    _assert_reference(engine, search, queries)


@pytest.mark.parametrize("backend", backend_params)
def test_a_round_tripped_engine_derives_its_own_arguments(backend, tmp_path):
    search = _search(backend, _graphs(40, seed=6))
    engine = BatchQueryEngine.from_search(search)
    queries = _queries(seed=7)
    _assert_reference(engine, search, queries)  # tables and snapshot in use before pickling
    pickled = pickle.loads(pickle.dumps(engine))
    path = tmp_path / "engine.snapshot"
    save_engine(engine, path)
    loaded = load_engine(path)
    for copy in (pickled, loaded):
        mine, theirs = engine.database.store._published, copy.database.store._published
        assert theirs is not mine
        if mine.arguments is not None:
            assert theirs.arguments is not None
            assert set(theirs.arguments).isdisjoint(
                [mine.arguments[0], mine.arguments[3], mine.arguments[4]]
            )
        _assert_reference(copy, search, queries)
        for table, _covered in copy._core._tables.values():
            assert table.arguments[0] == table.offsets.ctypes.data
            assert table.arguments[2:4] == (table.phi.ctypes.data, table.best.ctypes.data)


@pytest.mark.parametrize("backend", backend_params)
def test_a_dropped_engine_leaves_its_arrays_to_the_collector(backend):
    """Nothing module-level keeps a store's arrays once its engine is gone."""
    search = _search(backend, _graphs(40, seed=8))
    engine = BatchQueryEngine.from_search(search)
    queries = _queries(seed=9)
    _assert_reference(engine, search, queries)
    engine.query_batch(queries)
    store = search.database.store
    positions = weakref.ref(store._published.csr[1])
    tables = [weakref.ref(table.phi) for table, _covered in engine._core._tables.values()]
    assert tables
    del engine, search, store
    gc.collect()
    assert positions() is None
    assert all(table() is None for table in tables)
