"""The ``|V_G|``-clustered store layout, end to end.

The store lays rows out in ascending ``|V_G|`` whatever order they arrived
in, so a store position is neither the arrival number nor the graph id.  The
named cases below are the arrivals that pull the three apart — sizes
descending, sizes shuffled, a store read between two ``add_many`` batches
that interleave into the ranges already laid out, and single ``add`` calls
with a read after each.  Each is answered by the hits-only reducer, by the
every-posterior path and by top-k, under both kernel backends and the wide
(int64) layout, against ``query_reference`` / ``query_topk_reference``.  A
count guard pins what the sparse plan of a thresholded query touches.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from repro.core.plan import ExecutionCore
from repro.core.search import GBDASearch
from repro.db import columnar
from repro.db.columnar import ColumnarBranchStore, PosteriorTable, _Snapshot
from repro.db.database import GraphDatabase
from repro.db.kernels import available_backends
from repro.db.query import SimilarityQuery
from repro.graphs.generators import random_labeled_graph
from repro.obs.metrics import get_registry
from repro.testing.oracles import query_reference

BACKENDS = available_backends()
#: ``_POSITION_DTYPE_LIMIT`` per layout: int32 positions, or int64 past five rows.
LAYOUTS = {"compact": int(np.iinfo(np.int32).max), "wide": 5}


@pytest.fixture(
    params=[
        pytest.param(
            (backend, layout),
            id=f"{backend}-{layout}",
            marks=()
            if backend in BACKENDS
            else pytest.mark.skip(reason="native kernel backend unavailable here"),
        )
        for backend in ("numpy", "native")
        for layout in LAYOUTS
    ]
)
def backend(request, monkeypatch):
    name, layout = request.param
    monkeypatch.setattr(columnar, "_POSITION_DTYPE_LIMIT", LAYOUTS[layout])
    return name


def _graphs(count, seed, low=3, high=12):
    rng = random.Random(seed)
    return [
        random_labeled_graph(rng.randint(low, high), rng.randint(2, 14), seed=rng)
        for _ in range(count)
    ]


def _queries(stored, seed):
    """Random graphs and planted copies of stored ones, τ̂ 0–2, γ from loose to tight."""
    rng = random.Random(seed)
    graphs = _graphs(5, seed) + [graph.copy() for graph in rng.sample(stored, 3)]
    return [
        SimilarityQuery(graph, rng.randint(0, 2), rng.choice([0.3, 0.6, 0.9]))
        for graph in graphs
    ]


def _fit(graphs, backend):
    database = GraphDatabase(graphs, kernel_backend=backend)
    return GBDASearch(database, max_tau=2, num_prior_pairs=60, seed=3).fit()


def _expected(search, query, ids):
    """``(accepted, accepted scores, every posterior, every GBD)`` of the loop over ``ids``."""
    reference = query_reference(search, query)
    posteriors = {gid: reference.posteriors[gid] for gid in ids}
    accepted = {gid for gid in reference.answer.accepted_ids if gid in posteriors}
    gbds = {gid: reference.gbd_values[gid] for gid in ids}
    return accepted, {gid: posteriors[gid] for gid in accepted}, posteriors, gbds


def _ranking(posteriors, k):
    return sorted(posteriors.items(), key=lambda pair: (-pair[1], pair[0]))[:k]


def _check(search, core, queries):
    """Every online path of ``core`` against the scalar loop of ``search``."""
    database = core.database
    ids = [entry.graph_id for entry in database]
    core.warm(range(3), sorted({entry.num_vertices for entry in database} | set(range(1, 13))))
    for query in queries:
        accepted, scores, posteriors, gbds = _expected(search, query, ids)
        ids_hit, scores_hit = core.execute_pruned(query)
        assert set(ids_hit) == accepted
        assert dict(zip(ids_hit, scores_hit)) == scores
        full = core.execute(query)
        assert full.scores_dict("candidates") == posteriors
        assert dict(zip(full.graph_ids.tolist(), full.gbds.tolist())) == gbds
        assert full.accepted_id_set() == accepted
        for k in (1, 4, len(ids) + 2):
            assert core.execute_topk(query, k) == _ranking(posteriors, k)


def _core(search):
    return ExecutionCore(search.database, search.estimator, max_tau=2)


def _positions_are_not_ids(core):
    _csr, orders, global_ids = core.store.view()
    assert (np.diff(orders) >= 0).all()
    arrival = [entry.graph_id for entry in core.database]
    assert global_ids.tolist() != arrival


def test_sizes_arriving_in_descending_order(backend):
    graphs = sorted(_graphs(40, seed=11), key=lambda graph: -graph.num_vertices)
    search = _fit(graphs, backend)
    core = _core(search)
    _check(search, core, _queries(graphs, seed=12))
    _positions_are_not_ids(core)
    # Within one order arrival decides, so each range's ids ascend.
    store = core.store
    _csr, _orders, global_ids = store.view()
    bounds = store.order_ranges()[1]
    for first, last in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        assert (np.diff(global_ids[first:last]) > 0).all()


def test_sizes_arriving_shuffled(backend):
    graphs = _graphs(40, seed=21)
    random.Random(22).shuffle(graphs)
    search = _fit(graphs, backend)
    core = _core(search)
    _check(search, core, _queries(graphs, seed=23))
    _positions_are_not_ids(core)


def test_a_read_between_two_interleaving_add_many(backend):
    graphs = _graphs(30, seed=41, low=5, high=8)
    search = _fit(graphs, backend)
    database, core = search.database, _core(search)
    queries = _queries(graphs, seed=42)
    _check(search, core, queries)
    # Below and above every stored size, then among them: the second batch
    # interleaves into ranges the first already moved.
    database.add_many(_graphs(6, seed=43, low=2, high=4) + _graphs(6, seed=44, low=9, high=12))
    _check(search, core, queries)
    database.add_many(_graphs(8, seed=45, low=3, high=10))
    _check(search, core, queries)
    store = core.store
    assert store.num_compactions == 3
    # The layout from scratch: graph ids (arrival) stably sorted by order.
    scratch = np.argsort([entry.num_vertices for entry in database], kind="stable")
    assert np.array_equal(store.view()[2], scratch)


def test_single_adds_between_reads(backend):
    graphs = _graphs(20, seed=61, low=6, high=9)
    search = _fit(graphs, backend)
    database, core = search.database, _core(search)
    queries = _queries(graphs, seed=62)
    _check(search, core, queries)
    # One graph at a time with a read after each: a size below the stored
    # ones, one above, one among them, then a copy of a stored graph.
    arrivals = (
        _graphs(1, seed=63, low=2, high=3)
        + _graphs(1, seed=64, low=11, high=12)
        + _graphs(1, seed=65, low=7, high=7)
        + [graphs[0].copy()]
    )
    for graph in arrivals:
        database.add(graph)
        _check(search, core, queries)
    _positions_are_not_ids(core)
    assert len(core.store.view()[2]) == len(database) == 24


# --------------------------------------------------------------------------- #
# what the sparse plan touches
# --------------------------------------------------------------------------- #
def _entries(count, seed):
    """Rows of orders 2–9 over eight keys, arriving shuffled."""
    rng = random.Random(seed)
    entries = []
    for graph_id in range(count):
        order = rng.randint(2, 9)
        branches = Counter(("k", rng.randint(0, 7)) for _ in range(order))
        entries.append(_Row(graph_id, branches))
    return entries


class _Row:
    def __init__(self, graph_id, branches):
        self.graph_id, self.branches = graph_id, branches
        self.num_vertices = sum(branches.values())


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            name,
            marks=() if name in BACKENDS else pytest.mark.skip(reason="native unavailable"),
        )
        for name in ("numpy", "native")
    ],
)
def test_a_sparse_plan_reads_only_its_eligible_ranges_and_builds_nothing_d_long(
    name, monkeypatch
):
    """Counts outside the eligible ranges never matter, and no array is ``D`` long.

    The same store twice, the second with the count of every posting of an
    ineligible row zeroed: the sparse plan's hits are the same, the dense
    plan's are not — the poison is there to be read, and the sparse plan
    never reads it.
    """
    monkeypatch.setattr(columnar, "sparse_row_budget", lambda postings, rows: rows)
    entries = _entries(600, seed=51)
    store = ColumnarBranchStore([entry.branches for entry in entries], backend=name)
    csr, orders, global_ids = store.view()
    distinct, bounds = store.order_ranges()
    query = Counter({("k", 1): 2, ("k", 4): 1, ("k", 6): 1})
    # Two ranges in reach (orders 4 and 5): a table that accepts every GBD of
    # theirs and none of the others', read by a query of the smallest order,
    # so that every row's extended order is its own.
    table = PosteriorTable.from_rows(
        {order: np.full(order + 1, float(order in (4, 5))) for order in range(10)}
    )
    eligible_rows = np.isin(orders, [4, 5])

    poisoned_counts = csr[2].copy()
    poisoned_counts[~eligible_rows[csr[1]]] = 0
    poisoned = ColumnarBranchStore([entry.branches for entry in entries], backend=name)
    poisoned.compact()
    poisoned._published = _Snapshot(
        (csr[0], csr[1], poisoned_counts, csr[3]), orders, global_ids
    )

    calls = get_registry().get("repro_kernel_calls_total")
    before = {labels: child.value for labels, child in calls.series()}
    built = []
    spied = ("zeros", "ones", "full", "arange", "repeat", "concatenate", "bincount", "cumsum")
    with monkeypatch.context() as patched:
        for function in spied:
            original = getattr(np, function)

            def spy(*args, _original=original, **kwargs):
                result = _original(*args, **kwargs)
                built.append(np.size(result))
                return result

            patched.setattr(np, function, spy)
        clean = store.filter_verify_rows([(2, query, table, 0.5)])[0]
        dirty = poisoned.filter_verify_rows([(2, query, table, 0.5)])[0]
    after = {labels: child.value for labels, child in calls.series()}
    assert {
        labels[0]: after[labels] - before.get(labels, 0)
        for labels in after
        if after[labels] != before.get(labels, 0)
    } == {"filter_verify_rows": 2}  # no dense ``row`` call beside them
    assert clean[4] is True and clean[3] == int(eligible_rows.sum()) < len(orders) // 3
    assert clean[0].tolist() == np.flatnonzero(eligible_rows).tolist()  # every row a hit
    for a, b in zip(clean[:2], dirty[:2]):
        assert np.array_equal(a, b)
    assert max(built, default=0) < len(orders)

    # The dense plan under a table that accepts every row: the poisoned rows
    # are hits, and their GBDs show the poison was read.
    monkeypatch.setattr(columnar, "sparse_row_budget", lambda postings, rows: 0)
    accept_all = PosteriorTable.from_rows({order: np.ones(order + 1) for order in range(10)})
    dense_clean = store.filter_verify_rows([(2, query, accept_all, 0.5)])[0]
    dense_dirty = poisoned.filter_verify_rows([(2, query, accept_all, 0.5)])[0]
    assert dense_clean[4] is dense_dirty[4] is False
    assert not np.array_equal(dense_clean[1], dense_dirty[1])
