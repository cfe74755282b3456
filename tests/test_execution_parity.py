"""Cross-path parity: every online execution path returns identical answers.

There are three ways to answer one similarity query —

* :meth:`GBDASearch.query` (thin wrapper over the :class:`ExecutionCore`),
* :func:`repro.testing.oracles.query_reference` (the literal per-pair
  Algorithm 1 loop),
* :meth:`BatchQueryEngine.query` and :meth:`BatchQueryEngine.query_batch` —
  the engine's one plan, filter-and-verify (γ-threshold inversion + GBD
  lower-bound elimination), which answers with the accepted graphs and
  their posteriors —

and this property test drives all of them across seeds, γ/τ̂ grids and query
shapes, asserting bit-identical accepted sets and posterior scores
everywhere.  The search's branch-bound pruning (``use_index_pruning``) is
checked on the search's own paths, against the reference loop under the
same pruning; the engine, which does not serve a pruning search, is held to
the unpruned reference.  The top-k mode is verified against the first ``k``
entries of the full γ=0 reference ranking (ties broken by graph id).
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.kernels import available_backends
from repro.db.query import SimilarityQuery
from repro.graphs.generators import random_labeled_graph
from repro.serving import BatchQueryEngine
from repro.testing.oracles import query_reference, query_topk_reference

MAX_TAU = 3
#: Both kernel backends when the native one builds here, else just numpy —
#: the parity property then covers every online path under each backend.
BACKENDS = available_backends()
#: For ``pytest.mark.parametrize`` legs: a skipped ``native`` leg (instead of
#: a silently absent one) when this machine has no working C toolchain.
BACKEND_PARAMS = [
    pytest.param(
        name,
        marks=()
        if name in BACKENDS
        else pytest.mark.skip(reason="native kernel backend unavailable here"),
    )
    for name in ("numpy", "native")
]
_FITTED_CACHE = {}


def _fitted(seed: int, pruning: bool, backend: str = BACKENDS[0]):
    """Build (once per configuration) ``(search, engine, plain search)``.

    The engine is built from the plain (unpruned) search of the same seed,
    database and backend — a pruning search cannot be served — so with
    ``pruning`` the search and the engine share identical priors, and the
    engine's answers are the plain search's.
    """
    key = (seed, pruning, backend)
    if key not in _FITTED_CACHE:
        if pruning:
            _plain, engine, plain = _fitted(seed, False, backend)
            search = GBDASearch(
                engine.database,
                max_tau=MAX_TAU,
                num_prior_pairs=80,
                seed=seed,
                use_index_pruning=True,
            ).fit()
        else:
            rng = random.Random(100 + seed)
            graphs = [
                random_labeled_graph(rng.randint(4, 9), rng.randint(3, 12), seed=rng)
                for _ in range(25)
            ]
            database = GraphDatabase(graphs, name=f"parity-{seed}", kernel_backend=backend)
            search = plain = GBDASearch(
                database, max_tau=MAX_TAU, num_prior_pairs=80, seed=seed
            ).fit()
            engine = BatchQueryEngine.from_search(search, cache_size=None)
        _FITTED_CACHE[key] = (search, engine, plain)
    return _FITTED_CACHE[key]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.sampled_from([0, 1]),
    pruning=st.booleans(),
    backend=st.sampled_from(BACKENDS),
    query_seed=st.integers(min_value=0, max_value=40),
    tau_hat=st.integers(min_value=0, max_value=MAX_TAU),
    gamma=st.sampled_from([0.05, 0.3, 0.5, 0.75, 0.9]),
)
def test_all_online_paths_agree(seed, pruning, backend, query_seed, tau_hat, gamma):
    search, engine, plain = _fitted(seed, pruning, backend)
    qrng = random.Random(query_seed)
    query = SimilarityQuery(
        random_labeled_graph(qrng.randint(3, 10), qrng.randint(2, 14), seed=qrng),
        tau_hat,
        gamma,
    )

    reference = query_reference(search, query)
    wrapped = search.query(query)
    # batch the query together with a decoy so the batch path really runs
    # a multi-row batch (decoy shares τ̂; different graph and γ)
    decoy = SimilarityQuery(
        random_labeled_graph(4, 4, seed=query_seed + 1), tau_hat, 0.5
    )
    single = engine.query(query)
    batched = engine.query_batch([decoy, query])[1]

    assert wrapped.answer.accepted_ids == reference.answer.accepted_ids
    # posterior scores are bit-identical, not merely approximately equal
    assert wrapped.posteriors == reference.posteriors
    assert wrapped.gbd_values == reference.gbd_values

    # the engine answers Algorithm 1 without the branch bound: the plain loop's
    served = reference if not pruning else query_reference(plain, query)
    expected_ids = served.answer.accepted_ids
    assert single.accepted_ids == expected_ids
    assert batched.accepted_ids == expected_ids
    expected_accepted_scores = {gid: served.posteriors[gid] for gid in expected_ids}
    assert single.scores == expected_accepted_scores
    assert batched.scores == expected_accepted_scores

    # top-k mode: exactly the first k of the γ=0 reference ranking
    k = 1 + (query_seed % 7)
    assert search.query_topk(query, k).ranking == query_topk_reference(search, query, k)
    assert engine.query_topk(query, k).ranking == query_topk_reference(plain, query, k)


@pytest.mark.parametrize("backend", BACKEND_PARAMS)
@pytest.mark.parametrize("pruning", [False, True])
def test_query_batch_returns_input_order(pruning, backend):
    search, engine, plain = _fitted(0, pruning, backend)
    qrng = random.Random(7)
    queries = [
        SimilarityQuery(
            random_labeled_graph(qrng.randint(3, 9), qrng.randint(2, 12), seed=qrng),
            qrng.randint(0, MAX_TAU),
            qrng.choice([0.25, 0.5, 0.9]),
        )
        for _ in range(17)
    ]
    answers = engine.query_batch(queries)
    assert len(answers) == len(queries)
    for query, answer in zip(queries, answers):
        assert answer.accepted_ids == plain.query(query).answer.accepted_ids
        # the branch bound only ever removes graphs from an answer
        assert search.query(query).answer.accepted_ids <= answer.accepted_ids


def _on_threads(engine, queries, num_workers):
    """``engine.query`` over ``queries`` from a pool of ``num_workers`` threads."""
    with ThreadPoolExecutor(max_workers=num_workers) as pool:
        return list(pool.map(engine.query, queries))


def _executor_queries(seed, count, top_k=False):
    qrng = random.Random(seed)
    return [
        SimilarityQuery(
            random_labeled_graph(qrng.randint(3, 9), qrng.randint(2, 12), seed=qrng),
            qrng.randint(0, MAX_TAU),
            qrng.choice([0.3, 0.5, 0.8]),
            top_k=qrng.randint(1, 6) if top_k else None,
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize("backend", BACKEND_PARAMS)
@pytest.mark.parametrize("pruning", [False, True])
def test_thread_executor_matches_reference(pruning, backend):
    """The engine behind a 3-thread pool answers like ``query_reference``."""
    search, engine, plain = _fitted(2, pruning, backend)
    queries = _executor_queries(11, 9)
    references = [query_reference(plain, query) for query in queries]

    answers = _on_threads(engine, queries, 3)
    for answer, reference in zip(answers, references):
        expected_ids = reference.answer.accepted_ids
        assert answer.accepted_ids == expected_ids
        assert answer.scores == {gid: reference.posteriors[gid] for gid in expected_ids}
    for query in queries:  # the search's own paths, under its pruning
        reference = query_reference(search, query)
        assert search.query(query).posteriors == reference.posteriors


@pytest.mark.parametrize("num_workers", [1, 3])
def test_executor_topk_matches_reference(num_workers):
    search, engine, plain = _fitted(1, True)
    queries = _executor_queries(13, 8, top_k=True)
    answers = _on_threads(engine, queries, num_workers)
    for query, answer in zip(queries, answers):
        ranked = query_topk_reference(plain, query, query.top_k)
        assert answer.ranking == ranked
        assert answer.accepted_ids == frozenset(gid for gid, _ in ranked)
        # the pruning search ranks its branch-bound candidates only
        assert search.query_topk(query).ranking == query_topk_reference(
            search, query, query.top_k
        )


@pytest.mark.parametrize("backend", BACKEND_PARAMS)
@pytest.mark.parametrize("pruning", [False, True])
def test_bound_filter_never_prunes_an_accepted_graph(pruning, backend):
    """The γ-threshold inversion is sound: pruned-out rows are never accepted.

    (The accepted-set equality of the property test implies this; asserting
    it directly on the counters documents the filter really fires.)
    """
    _search, engine, plain = _fitted(0, pruning, backend)
    before = engine.prune_counters
    qrng = random.Random(99)
    for _ in range(10):
        query = SimilarityQuery(
            random_labeled_graph(qrng.randint(3, 12), qrng.randint(2, 16), seed=qrng),
            qrng.randint(0, MAX_TAU),
            qrng.choice([0.5, 0.9, 0.99]),
        )
        assert (
            engine.query(query).accepted_ids
            == query_reference(plain, query).answer.accepted_ids
        )
    after = engine.prune_counters
    generated = after["candidates_generated"] - before["candidates_generated"]
    pruned = after["candidates_pruned"] - before["candidates_pruned"]
    verified = after["candidates_verified"] - before["candidates_verified"]
    assert generated == pruned + verified > 0


def test_topk_on_query_routes_through_every_path():
    """``SimilarityQuery(top_k=...)`` is honoured by query/query_batch/threads."""
    search, engine, _plain = _fitted(0, False)
    qrng = random.Random(5)
    queries = [
        SimilarityQuery(
            random_labeled_graph(qrng.randint(3, 9), qrng.randint(2, 12), seed=qrng),
            qrng.randint(0, MAX_TAU),
            0.5,
            top_k=qrng.randint(1, 6),
        )
        for _ in range(6)
    ]
    expected = [query_topk_reference(search, q, q.top_k) for q in queries]

    for query, ranked in zip(queries, expected):
        assert engine.query(query).ranking == ranked
    for answer, ranked in zip(engine.query_batch(queries), expected):
        assert answer.ranking == ranked
        assert answer.accepted_ids == frozenset(gid for gid, _ in ranked)
        assert answer.scores == dict(ranked)

    for answer, ranked in zip(_on_threads(engine, queries, 2), expected):
        assert answer.ranking == ranked
