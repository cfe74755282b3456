"""Metamorphic relations of the online stage: checks that do not share the definition.

The parity suites hold every online path to the scalar per-pair loop
(:func:`repro.testing.oracles.query_reference`); a defect in the definition
they share would pass them all.  The relations here need no reference: they
compare the engine's answers with each other.  Writing ``A(τ̂, γ)`` for the
accepted set of one query graph,

* ``A(τ̂, γ) ⊆ A(τ̂ + 1, γ)`` — a looser GED threshold adds one non-negative
  term to Φ, so it never drops a graph;
* ``A(τ̂, γ′) ⊆ A(τ̂, γ)`` for ``γ < γ′`` — a lower probability threshold
  never drops a graph;
* *top-k is a prefix*: for every ``k``, ``query_topk(k)`` is the first ``k``
  of the γ = 0 answer's posteriors ranked by ``(-score, graph id)`` — the
  k-best reducer (bounds, group order, heap, cut-off) against the threshold
  reducer's every posterior, whatever γ the top-k query carries.

They are checked on small generated stores under each kernel backend, with
``engine.query`` / ``engine.query_topk``.  A second engine over the same model then answers the
same queries as one permuted ``query_batch`` — for the prefix relation a
batch mixing top-k and thresholded rows: its answers must be the same
permutation of the single answers.  Its caches (tables, thresholds,
results) fill in the permuted order, so an answer that depends on what an
engine was asked before shows up here even where it keeps both relations.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.kernels import available_backends
from repro.db.query import SimilarityQuery
from repro.graphs.generators import random_labeled_graph
from repro.serving import BatchQueryEngine

MAX_TAU = 4
GAMMAS = (0.0, 0.2, 0.5, 0.8, 0.95, 1.0)
BACKEND_PARAMS = [
    pytest.param(
        name,
        marks=()
        if name in available_backends()
        else pytest.mark.skip(reason="native kernel backend unavailable here"),
    )
    for name in ("numpy", "native")
]

# A reproducible random labeled graph: (vertices, extra edges, seed).
graph_params = st.tuples(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=10**6),
)


def _graph(params):
    vertices, extra_edges, seed = params
    return random_labeled_graph(vertices, vertices - 1 + extra_edges, seed=seed)


@pytest.mark.parametrize("backend", BACKEND_PARAMS)
@settings(max_examples=25, deadline=None)
@given(
    stored=st.lists(graph_params, min_size=4, max_size=14),
    asked=st.lists(graph_params, min_size=1, max_size=2),
    member=st.integers(min_value=0),
    fit_seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
def test_answers_grow_with_tau_and_shrink_with_gamma(
    backend, stored, asked, member, fit_seed, data
):
    graphs = [_graph(params) for params in stored]
    database = GraphDatabase(graphs, kernel_backend=backend)
    search = GBDASearch(database, max_tau=MAX_TAU, num_prior_pairs=40, seed=fit_seed).fit()
    engine = BatchQueryEngine.from_search(search)
    # A stored graph among the query graphs keeps some answers non-empty.
    query_graphs = [_graph(params) for params in asked] + [graphs[member % len(graphs)]]
    grid = [
        (index, tau_hat, gamma)
        for index in range(len(query_graphs))
        for tau_hat in range(MAX_TAU + 1)
        for gamma in GAMMAS
    ]
    queries = [SimilarityQuery(query_graphs[index], tau, gamma) for index, tau, gamma in grid]
    single = [engine.query(query) for query in queries]
    accepted = {cell: answer.accepted_ids for cell, answer in zip(grid, single)}

    for index, tau_hat, gamma in grid:
        here = accepted[index, tau_hat, gamma]
        if tau_hat < MAX_TAU:
            assert here <= accepted[index, tau_hat + 1, gamma], (index, tau_hat, gamma)
        for looser in (g for g in GAMMAS if g < gamma):
            assert here <= accepted[index, tau_hat, looser], (index, tau_hat, gamma, looser)

    order = data.draw(st.permutations(range(len(queries))), label="batch order")
    fresh = BatchQueryEngine.from_search(search)
    batch = fresh.query_batch([queries[position] for position in order])
    for answer, position in zip(batch, order):
        assert answer.accepted_ids == single[position].accepted_ids, grid[position]
        assert answer.scores == single[position].scores, grid[position]


@pytest.mark.parametrize("backend", BACKEND_PARAMS)
@settings(max_examples=25, deadline=None)
@given(
    stored=st.lists(graph_params, min_size=4, max_size=14),
    asked=st.lists(graph_params, min_size=1, max_size=2),
    member=st.integers(min_value=0),
    fit_seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
def test_top_k_is_a_prefix_of_the_gamma_zero_ranking(
    backend, stored, asked, member, fit_seed, data
):
    graphs = [_graph(params) for params in stored]
    database = GraphDatabase(graphs, kernel_backend=backend)
    search = GBDASearch(database, max_tau=MAX_TAU, num_prior_pairs=40, seed=fit_seed).fit()
    engine = BatchQueryEngine.from_search(search)
    query_graphs = [_graph(params) for params in asked] + [graphs[member % len(graphs)]]
    cells = [
        (index, tau_hat) for index in range(len(query_graphs)) for tau_hat in range(MAX_TAU + 1)
    ]
    full = {}
    for index, tau_hat in cells:
        # γ = 0 accepts every graph: the threshold reducer hands back every posterior.
        scores = engine.query(SimilarityQuery(query_graphs[index], tau_hat, 0.0)).scores
        assert set(scores) == set(range(len(graphs)))
        full[index, tau_hat] = sorted(scores.items(), key=lambda item: (-item[1], item[0]))

    ranked = [
        SimilarityQuery(
            query_graphs[index], tau_hat, GAMMAS[(index + tau_hat + k) % len(GAMMAS)], top_k=k
        )
        for index, tau_hat in cells
        for k in range(1, len(graphs) + 2)
    ]
    for query in ranked:
        index = query_graphs.index(query.query_graph)
        expected = full[index, query.tau_hat][: query.top_k]
        assert engine.query_topk(query).ranking == expected, (index, query.tau_hat, query.top_k)

    thresholded = [SimilarityQuery(query_graphs[index], tau_hat, 0.5) for index, tau_hat in cells]
    queries = ranked + thresholded
    order = data.draw(st.permutations(range(len(queries))), label="batch order")
    fresh = BatchQueryEngine.from_search(search)
    batch = fresh.query_batch([queries[position] for position in order])
    for answer, position in zip(batch, order):
        query = queries[position]
        index = query_graphs.index(query.query_graph)
        if query.top_k is None:
            assert answer.scores == engine.query(query).scores, (index, query.tau_hat)
        else:
            expected = full[index, query.tau_hat][: query.top_k]
            assert answer.ranking == expected, (index, query.tau_hat, query.top_k)
