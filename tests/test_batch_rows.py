"""A batch is the per-query loop: heterogeneous batches against one query at a time.

:meth:`ExecutionCore.execute_batch` hands all of its queries to one store call
(:meth:`ColumnarBranchStore.filter_verify_rows`), thresholded and top-k rows
alike; on the native backend that is one C call, which appends every query's
hits to one buffer and returns how many queries it finished, and the wrapper
calls again from there when the buffer filled first.  The property holds a
batch to the loop of single queries — :meth:`ExecutionCore.execute_pruned`
per thresholded row, :meth:`ExecutionCore.execute_topk` per top-k row: ids,
scores, order and the :class:`FilterCounters` deltas — and both to the
scalar per-pair loop (:func:`repro.testing.oracles.query_reference`, and its
sorted γ = 0 scores for a ranking), for batches that mix:

* τ̂, γ and ``|V_Q|``, including queries larger than every stored graph;
* queries none of whose branch keys the store knows;
* queries all of whose rows fall to the bound;
* queries on the dense and on the sparse plan;
* top-k rows with k ∈ {1, 3, 10, > D}, rankings whose tail of zero scores is
  filled by graph id, and top-k rows that differ only in γ;
* γ = 0 queries, every row of which is a hit, and top-k rows with k > D,
  enough of them to overflow the buffer so that the resume path runs.

Both kernel backends; the module also runs under ASan/UBSan
(``tests/test_kernels_sanitized.py``).
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import ExecutionCore, FilterCounters
from repro.core.search import GBDASearch
from repro.db import columnar
from repro.db.columnar import TopK
from repro.db.database import GraphDatabase
from repro.db.kernels import available_backends
from repro.db.query import SimilarityQuery
from repro.graphs.generators import random_labeled_graph
from repro.graphs.graph import Graph
from repro.testing.oracles import query_reference, query_topk_reference

MAX_TAU = 3
#: Stored graphs have 4..LARGEST vertices; a "large" query has more.
LARGEST = 9
#: Stored graphs: every store below has this many rows.
NUM_GRAPHS = 40
#: Ranking sizes a top-k row draws: ``None`` is a thresholded row.
TOP_KS = (None, None, None, 1, 3, 10, NUM_GRAPHS + 5)
BACKENDS = available_backends()
#: ``sparse_row_budget`` stand-ins: the cost model itself, both plans in one
#: store, every query on the sparse plan, every query on the dense plan.
PLANS = {
    "by cost": None,
    "half": lambda postings, rows: rows // 2,
    "sparse": lambda postings, rows: rows,
    "dense": lambda postings, rows: 0,
}
_CORES = {}


def _core(backend: str) -> ExecutionCore:
    """One core per backend over the same 40 graphs and the same fitted model."""
    if not _CORES:
        rng = random.Random(11)
        graphs = [
            random_labeled_graph(rng.randint(4, LARGEST), rng.randint(3, 12), seed=rng)
            for _ in range(NUM_GRAPHS)
        ]
        search = _CORES["search"] = GBDASearch(
            GraphDatabase(graphs, name="batch-rows"), max_tau=MAX_TAU, num_prior_pairs=80, seed=4
        ).fit()
        for name in BACKENDS:
            database = GraphDatabase(graphs, name="batch-rows", kernel_backend=name)
            _CORES[name] = ExecutionCore(database, search.estimator, max_tau=MAX_TAU)
    return _CORES[backend]


def _unknown_graph(num_vertices: int) -> Graph:
    """A path whose labels no stored graph has: not one branch key is known."""
    graph = Graph()
    for vertex in range(num_vertices):
        graph.add_vertex(vertex, "unseen")
    for vertex in range(1, num_vertices):
        graph.add_edge(vertex - 1, vertex, "unseen")
    return graph


def _query(
    core: ExecutionCore, kind: str, seed: int, tau_hat: int, gamma: float, top_k=None
):
    rng = random.Random(seed)
    if kind == "stored":
        graph = core.database[rng.randrange(len(core.database))].graph
    elif kind == "unknown":
        graph = _unknown_graph(rng.randint(1, 8))
    else:
        order = rng.randint(LARGEST + 1, LARGEST + 5) if kind == "large" else rng.randint(2, 10)
        graph = random_labeled_graph(order, rng.randint(order - 1, 2 * order), seed=rng)
    return SimilarityQuery(graph, tau_hat, gamma, top_k=top_k)


def _with_counters(core: ExecutionCore, action):
    """``(action(), the FilterCounters fields it moved)``."""
    before = dataclasses.replace(core.filter_counters)
    result = action()
    after = core.filter_counters
    return result, {
        field.name: getattr(after, field.name) - getattr(before, field.name)
        for field in dataclasses.fields(FilterCounters)
    }


def _one(core: ExecutionCore, query):
    """A query alone: its ranking, or its hits."""
    if query.top_k is None:
        return core.execute_pruned(query)
    return core.execute_topk(query, query.top_k)


def _assert_batch_is_the_loop(core: ExecutionCore, queries, *, pass_branches: bool = False):
    branches = [query.branches() for query in queries] if pass_branches else None
    batched, batch_counts = _with_counters(
        core, lambda: core.execute_batch(queries, query_branches=branches)
    )
    looped, loop_counts = _with_counters(core, lambda: [_one(core, query) for query in queries])
    assert batched == looped  # ids, scores and order, bit for bit, in input order
    assert batch_counts == loop_counts
    assert batch_counts["candidates_generated"] == len(queries) * len(core.database)
    search = _CORES["search"]  # the same graphs and model, read by the per-pair loop
    for query, answer in zip(queries, batched):
        if query.top_k is not None:
            assert answer == query_topk_reference(search, query, query.top_k)
            continue
        ids, scores = answer
        reference = query_reference(search, query)
        expected = {
            graph_id: reference.posteriors[graph_id] for graph_id in reference.answer.accepted_ids
        }
        assert dict(zip(ids, scores)) == expected
        assert dict(zip(ids, scores)) == core.execute(query).scores_dict("accepted")
    return batched


class _CountingLibrary:
    """The loaded kernel library, counting the calls of the batch reducer."""

    def __init__(self, library) -> None:
        self._library = library
        self.batch_calls = 0

    def repro_filter_verify_rows(self, *args):
        self.batch_calls += 1
        return self._library.repro_filter_verify_rows(*args)

    def __getattr__(self, name):
        return getattr(self._library, name)


def _counting_library(backend: str, monkeypatch):
    """The native library behind a call counter, or ``None`` on the NumPy backend."""
    if backend != "native":
        return None
    from repro.db.kernels import native

    library = _CountingLibrary(native._library())
    monkeypatch.setattr(native, "_lib", library)
    return library


query_specs = st.tuples(
    st.sampled_from(["random", "random", "stored", "large", "unknown"]),
    st.integers(0, 10_000),
    st.integers(0, MAX_TAU),
    st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]),
    st.sampled_from(TOP_KS),
)


@settings(max_examples=60, deadline=None)
@given(
    backend=st.sampled_from(BACKENDS),
    specs=st.lists(query_specs, min_size=1, max_size=9),
    plan=st.sampled_from(sorted(PLANS)),
    pass_branches=st.booleans(),
    regamma=st.sampled_from([None, 0.0, 0.7]),
)
def test_a_batch_answers_and_counts_like_its_queries_one_by_one(
    backend, specs, plan, pass_branches, regamma
):
    core = _core(backend)
    queries = [_query(core, *spec) for spec in specs]
    if regamma is not None:
        # Every top-k row again, its γ changed: a ranking ignores γ.
        queries += [
            SimilarityQuery(query.query_graph, query.tau_hat, regamma, top_k=query.top_k)
            for query in queries
            if query.top_k is not None
        ]
    with pytest.MonkeyPatch.context() as patch:
        if PLANS[plan] is not None:
            patch.setattr(columnar, "sparse_row_budget", PLANS[plan])
        _assert_batch_is_the_loop(core, queries, pass_branches=pass_branches)


@pytest.mark.parametrize("backend", BACKENDS)
def test_one_batch_covers_every_kind_of_row(backend):
    """The mix the property draws from, in one batch, each case seen to happen."""
    core = _core(backend)
    queries = [
        _query(core, "large", 1, 2, 0.5),
        _query(core, "unknown", 2, 1, 0.2),
        _query(core, "random", 3, 0, 1.0),  # no GBD is acceptable: the bound prunes all
        _query(core, "stored", 4, 1, 0.5),
        _query(core, "random", 5, 3, 0.0),
        _query(core, "stored", 6, 0, 0.9),
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columnar, "sparse_row_budget", PLANS["half"])
        found = core.store.filter_verify_rows(
            [
                (
                    query.query_graph.num_vertices,
                    query.branches(),
                    core._table(
                        query.tau_hat, query.query_graph.num_vertices,
                        core.store.view().ranges[0],
                    ),
                    query.gamma,
                )
                for query in queries
            ]
        )
        plans = [sparse for *_rest, sparse in found]
        assert None in plans and True in plans and False in plans
        assert found[2][3] == 0 and len(found[2][0]) == 0  # all pruned, nothing verified
        assert queries[0].query_graph.num_vertices > LARGEST
        assert not queries[1].branches().keys() & set(core.store._key_ids)
        _assert_batch_is_the_loop(core, queries)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_gamma_zero_batch_overflows_the_hit_buffer_and_resumes(backend, monkeypatch):
    """γ = 0 accepts every verified row: each query hits all D rows on the dense
    plan, and a buffer with room for two such queries is emptied and refilled."""
    core = _core(backend)
    queries = [_query(core, "random", seed, seed % (MAX_TAU + 1), 0.0) for seed in range(7)]
    queries.insert(3, _query(core, "random", 99, 0, 1.0))  # an all-pruned row in between
    library = _counting_library(backend, monkeypatch)
    monkeypatch.setattr(columnar, "sparse_row_budget", PLANS["dense"])
    batched = _assert_batch_is_the_loop(core, queries)
    num_rows = len(core.database)
    assert [len(ids) for ids, _scores in batched] == [num_rows] * 3 + [0] + [num_rows] * 4
    if library is not None:
        # one call for the batch, ceil(7 / 2) as the buffer fills; one per looped query
        assert library.batch_calls == 4 + len(queries)


@pytest.mark.parametrize("backend", BACKENDS)
def test_one_mixed_batch_covers_every_kind_of_top_k_row(backend):
    """Top-k rows of every size beside thresholded ones, each case seen to happen."""
    core = _core(backend)
    ranked = [
        _query(core, "random", 7, 0, 0.5, NUM_GRAPHS + 5),  # τ̂ = 0: mostly zero bounds
        _query(core, "stored", 8, 2, 0.9, 1),
        _query(core, "stored", 9, 1, 0.2, 3),
        _query(core, "large", 10, 3, 0.5, 10),
        _query(core, "unknown", 11, 1, 0.5, 3),
    ]
    twin = SimilarityQuery(ranked[1].query_graph, 2, 0.0, top_k=1)  # differs only in γ
    pruned = _query(core, "random", 3, 0, 1.0)  # no GBD is acceptable: the bound prunes all
    plain = _query(core, "stored", 4, 1, 0.5)
    queries = [ranked[0], pruned, *ranked[1:3], twin, plain, *ranked[3:]]
    distinct = core.store.view().ranges[0]
    rows = [(pruned.query_graph.num_vertices, pruned.branches(), core._table(
        0, pruned.query_graph.num_vertices, distinct), 1.0)]
    for query in ranked:
        num_query_vertices = query.query_graph.num_vertices
        table = core._table(query.tau_hat, num_query_vertices, distinct)
        rows.append((num_query_vertices, query.branches(), table, TopK(query.top_k)))
    found = core.store.filter_verify_rows(rows)
    assert found[0][3] == 0 and len(found[0][0]) == 0  # all pruned, nothing verified
    # k > D: every row ranked, the ones no group visit reached at 0.0
    assert len(found[1][0]) == NUM_GRAPHS and found[1][3] < NUM_GRAPHS
    assert [len(row[0]) for row in found[2:]] == [1, 3, 10, 3]
    batched = _assert_batch_is_the_loop(core, queries)
    tail = [graph_id for graph_id, score in batched[0] if score == 0.0]
    assert len(tail) >= NUM_GRAPHS - found[1][3] and tail == sorted(tail)  # filled by id
    assert batched[queries.index(twin)] == batched[2]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("gamma_row", [False, True])
def test_top_k_rows_overflow_the_hit_buffer_and_resume(backend, gamma_row, monkeypatch):
    """A top-k row with k > D hands back all D rows: a buffer with room for two
    such rows (2·D) is emptied and refilled, with top-k rows alone and with a
    γ = 0 row among them."""
    core = _core(backend)
    queries = [
        _query(core, "random", seed, seed % (MAX_TAU + 1), 0.5, NUM_GRAPHS + 5)
        for seed in range(6)
    ]
    if gamma_row:
        queries[2] = _query(core, "random", 98, 1, 0.0)  # D hits on the dense plan
    library = _counting_library(backend, monkeypatch)
    monkeypatch.setattr(columnar, "sparse_row_budget", PLANS["dense"])
    batched = _assert_batch_is_the_loop(core, queries)
    sizes = [
        len(answer) if query.top_k else len(answer[0]) for query, answer in zip(queries, batched)
    ]
    assert sizes == [NUM_GRAPHS] * len(queries)
    if library is not None:
        # one call for the batch, ceil(6 / 2) as the buffer fills; one per looped query
        assert library.batch_calls == 3 + len(queries)
