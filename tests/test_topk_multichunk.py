"""Top-k over stores of tens of thousands of rows.

The cross-path parity suite ranks 25 graphs, so its top-k never leaves the
first order group or two.  The two stores here are 64 and 16 times ``CHUNK``
(512 rows, the unit these sizes and the larger ``k`` are written in) wide:

* **uniform** — every graph has four vertices, so a query has one posterior
  bound for the whole store: the bounds never end the scan, the scores take
  a handful of values, and the k-th place is almost always decided by graph
  id.  The one order group is past the sparse budget, so the reducer walks
  the dense row at once.
* **mixed** — paths of 3–34 vertices, 32 order groups of 256 rows: a small
  query's bound is zero for most sizes (rows that join the ranking
  unverified, at 0.0) and the k-th best score ends the scan after the first
  group.

Every ranking is compared with :meth:`GBDASearch.query_topk_reference` (the
scalar per-pair loop, sorted) under both kernel backends, with and without
the branch-bound candidate restriction; the work done is bounded by counts
— kernel calls and verified candidates — not by the clock.
"""

from __future__ import annotations

import random

import pytest

from repro.core import plan
from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.kernels import available_backends
from repro.db.query import SimilarityQuery
from repro.graphs.graph import Graph
from repro.obs.metrics import get_registry
from repro.serving import BatchQueryEngine

MAX_TAU = 2
CHUNK = 512
BACKEND_PARAMS = [
    pytest.param(
        name,
        marks=()
        if name in available_backends()
        else pytest.mark.skip(reason="native kernel backend unavailable here"),
    )
    for name in ("numpy", "native")
]
STORE_SIZES = {"uniform": 64 * CHUNK, "mixed": 16 * CHUNK}


def _path(labels, name=None) -> Graph:
    """A path whose vertices carry ``labels``; every edge is labeled ``x``."""
    graph = Graph(name=name)
    for vertex, label in enumerate(labels):
        graph.add_vertex(vertex, label)
    for vertex in range(1, len(labels)):
        graph.add_edge(vertex - 1, vertex, "x")
    return graph


def _stored_path(rng: random.Random, num_vertices: int) -> Graph:
    """Endpoints ``A``, inner vertices ``A``/``B``: four branch keys in all."""
    inner = [rng.choice("AB") for _ in range(num_vertices - 2)]
    return _path(["A", *inner, "A"])


#: A stored shape, a near miss, a label no stored graph has (one query key
#: outside the vocabulary), and a query that matches nothing at all.
QUERIES = [
    _path("AABA", name="stored-shape"),
    _path("ABBBA", name="five"),
    _path("ACBA", name="unknown-key"),
    _path("ZZZ", name="no-match"),
]
_BUILT = {}
_REFERENCE = {}


def _built(store: str, pruning: bool, backend: str):
    """``(search, engine)`` over one of the two stores, built once each."""
    key = (store, pruning)
    if key not in _BUILT:
        rng = random.Random(17)
        count = STORE_SIZES[store]
        if store == "uniform":
            graphs = [_stored_path(rng, 4) for _ in range(count)]
        else:
            graphs = [_stored_path(rng, 3 + index % 32) for index in range(count)]
        search = GBDASearch(
            GraphDatabase(graphs, name=store),
            max_tau=MAX_TAU,
            num_prior_pairs=120,
            seed=3,
            use_index_pruning=pruning,
        ).fit()
        _BUILT[key] = (search, {})
    search, engines = _BUILT[key]
    if backend not in engines:
        engines[backend] = BatchQueryEngine.from_search(
            search, cache_size=None, kernel_backend=backend
        )
    return search, engines[backend]


def _reference(search, store: str, pruning: bool, query: SimilarityQuery):
    """The whole reference ranking of one query (every ``k`` is a prefix of it)."""
    key = (store, pruning, query.query_graph.name, query.tau_hat)
    if key not in _REFERENCE:
        _REFERENCE[key] = search.query_topk_reference(query, len(search.database) + 1)
    return _REFERENCE[key]


@pytest.mark.parametrize("backend", BACKEND_PARAMS)
@pytest.mark.parametrize("pruning", [False, True])
@pytest.mark.parametrize("store", ["uniform", "mixed"])
def test_rankings_equal_the_reference(store, pruning, backend):
    search, engine = _built(store, pruning, backend)
    num_rows = len(search.database)
    for tau_hat in range(MAX_TAU + 1):
        for graph in QUERIES:
            query = SimilarityQuery(graph, tau_hat, 0.5)
            expected = _reference(search, store, pruning, query)
            for k in (1, 10, 3 * CHUNK, num_rows + 7):
                ranking = engine.query_topk(query, k).ranking
                assert ranking == expected[:k], (graph.name, tau_hat, k)


@pytest.mark.parametrize("backend", BACKEND_PARAMS)
def test_ties_at_the_kth_place_and_zero_bound_fill(backend):
    """The two semantics the stores were built to stress really occur."""
    search, engine = _built("uniform", False, backend)
    ranking = engine.query_topk(SimilarityQuery(QUERIES[0], 1, 0.5), 10).ranking
    full = _reference(search, "uniform", False, SimilarityQuery(QUERIES[0], 1, 0.5))
    assert full[9][1] == full[10][1], "the 10th and 11th place tie on score"
    assert [graph_id for graph_id, _ in ranking] == sorted(g for g, _ in ranking)

    # Exact matches only (τ̂ = 0) and a query key no stored graph has: every
    # bound is zero, nothing is verified, ids fill the ranking at 0.0.
    search, engine = _built("mixed", False, backend)
    before = engine.prune_counters["candidates_verified"]
    ranking = engine.query_topk(SimilarityQuery(QUERIES[2], 0, 0.5), 3 * CHUNK).ranking
    assert ranking == [(graph_id, 0.0) for graph_id in range(3 * CHUNK)]
    assert engine.prune_counters["candidates_verified"] == before


@pytest.mark.parametrize("backend", BACKEND_PARAMS)
def test_uniform_store_is_one_pass(backend):
    """Bounds that never end the scan cost one kernel call and D verifications."""
    _search, engine = _built("uniform", False, backend)
    num_rows = STORE_SIZES["uniform"]
    query = SimilarityQuery(QUERIES[0], MAX_TAU, 0.5)
    calls = get_registry().get("repro_kernel_calls_total")
    before = {labels: child.value for labels, child in calls.series()}
    verified = engine.prune_counters["candidates_verified"]
    dense_passes = engine.prune_counters["dense_passes"]
    engine.query_topk(query, 10)
    made = {
        labels: child.value - before.get(labels, 0)
        for labels, child in calls.series()
        if child.value != before.get(labels, 0)
    }
    assert made == {("row", backend): 1}  # the whole reducer is that one call
    # every row's bound reaches the k-th best, and no row is verified twice
    assert engine.prune_counters["candidates_verified"] - verified == num_rows
    assert engine.prune_counters["dense_passes"] - dense_passes == 1


@pytest.mark.parametrize("backend", BACKEND_PARAMS)
def test_mixed_store_verifies_a_fraction(backend):
    """Zero bounds and the k-th best score keep a top-10 under a quarter of the store."""
    _search, engine = _built("mixed", False, backend)
    num_rows = STORE_SIZES["mixed"]
    for tau_hat in range(MAX_TAU + 1):
        for graph in QUERIES:
            before = engine.prune_counters["candidates_verified"]
            engine.query_topk(SimilarityQuery(graph, tau_hat, 0.5), 10)
            verified = engine.prune_counters["candidates_verified"] - before
            assert verified < num_rows // 4, (graph.name, tau_hat)


class _DecreasingPosterior:
    """Φ = 1 / (1 + GBD): positive everywhere and strictly decreasing.

    The fitted model of these regular stores clamps to 1.0 up to GBD = 2 τ̂
    and is 0 beyond, so there the scan ends when the positive bounds do.
    Under this one every row has a positive bound and only the k-th best
    verified score can end the scan.
    """

    def posterior(self, gbd_value, tau_hat, extended_order):
        return 1.0 / (1 + gbd_value)

    def posterior_row(self, tau_hat, extended_order):
        return [self.posterior(gbd, tau_hat, extended_order) for gbd in range(extended_order + 1)]


@pytest.mark.parametrize("backend", BACKEND_PARAMS)
def test_kth_best_score_ends_the_scan(backend):
    search, _engine = _built("mixed", False, backend)
    database = search.database
    core = plan.ExecutionCore(
        database, _DecreasingPosterior(), max_tau=MAX_TAU, kernel_backend=backend
    )
    graph = QUERIES[0]
    expected = sorted(
        (
            (entry.graph_id, 1.0 / (1 + database.gbd_to(graph, entry.graph_id)))
            for entry in database
        ),
        key=lambda item: (-item[1], item[0]),
    )
    for k in (1, 10, 3 * CHUNK, len(database) + 7):
        before = core.filter_counters.candidates_verified
        assert core.execute_topk(SimilarityQuery(graph, 1, 0.5), k) == expected[:k]
        verified = core.filter_counters.candidates_verified - before
        if k <= 10:
            # exact matches fill the ranking inside the query's own size
            # group, and no other group's bound reaches their score
            assert verified == len(database) // 32
        else:
            assert min(k, len(database)) <= verified <= len(database)
