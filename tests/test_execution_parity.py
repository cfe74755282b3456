"""Cross-path parity: every online execution path returns identical answers.

There are three ways to answer one similarity query —

* :meth:`GBDASearch.query` (thin wrapper over the :class:`ExecutionCore`),
* :meth:`GBDASearch.query_reference` (the literal per-pair Algorithm 1 loop),
* :meth:`BatchQueryEngine.query` (vectorized single-query serving) and
  :meth:`BatchQueryEngine.query_batch` (true batched matrix scoring) — each
  in both the pruned filter-and-verify form (``pruned_execution=True``, the
  default: γ-threshold inversion + GBD lower-bound elimination) and the
  unpruned dense form —

and this property test drives all of them across seeds, γ/τ̂ grids, query
shapes, and pruning on/off, asserting bit-identical accepted sets and
posterior scores everywhere.  The top-k mode is verified against the first
``k`` entries of the full γ=0 reference ranking (ties broken by graph id).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.kernels import available_backends
from repro.db.query import SimilarityQuery
from repro.graphs.generators import random_labeled_graph
from repro.serving import BatchQueryEngine

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
    """Build (once per configuration) a fitted search + engines."""
    key = (seed, pruning, backend)
    if key not in _FITTED_CACHE:
        rng = random.Random(100 + seed)
        graphs = [
            random_labeled_graph(rng.randint(4, 9), rng.randint(3, 12), seed=rng)
            for _ in range(25)
        ]
        database = GraphDatabase(graphs, name=f"parity-{seed}")
        search = GBDASearch(
            database,
            max_tau=MAX_TAU,
            num_prior_pairs=80,
            seed=seed,
            use_index_pruning=pruning,
        ).fit()
        engine = BatchQueryEngine.from_search(
            search, keep_scores="all", cache_size=None, kernel_backend=backend
        )
        # default engine: accepted-only scores, pruned filter-and-verify path
        default_engine = BatchQueryEngine.from_search(
            search, cache_size=None, kernel_backend=backend
        )
        unpruned_engine = BatchQueryEngine.from_search(
            search, cache_size=None, pruned_execution=False, kernel_backend=backend
        )
        _FITTED_CACHE[key] = (search, engine, default_engine, unpruned_engine)
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
    search, engine, default_engine, unpruned_engine = _fitted(seed, pruning, backend)
    qrng = random.Random(query_seed)
    query = SimilarityQuery(
        random_labeled_graph(qrng.randint(3, 10), qrng.randint(2, 14), seed=qrng),
        tau_hat,
        gamma,
    )

    reference = search.query_reference(query)
    wrapped = search.query(query)
    single = engine.query(query)
    # batch the query together with a decoy so the matrix path really runs
    # a multi-row group (decoy shares τ̂; different graph and γ)
    decoy = SimilarityQuery(
        random_labeled_graph(4, 4, seed=query_seed + 1), tau_hat, 0.5
    )
    batched = engine.query_batch([decoy, query])[1]
    # pruned filter-and-verify (default engine) vs explicit unpruned engine
    pruned_single = default_engine.query(query)
    pruned_batch = default_engine.query_batch([decoy, query])[1]
    unpruned = unpruned_engine.query(query)

    expected_ids = reference.answer.accepted_ids
    assert wrapped.answer.accepted_ids == expected_ids
    assert single.accepted_ids == expected_ids
    assert batched.accepted_ids == expected_ids
    assert pruned_single.accepted_ids == expected_ids
    assert pruned_batch.accepted_ids == expected_ids
    assert unpruned.accepted_ids == expected_ids

    # posterior scores are bit-identical, not merely approximately equal
    assert wrapped.posteriors == reference.posteriors
    assert wrapped.gbd_values == reference.gbd_values
    assert single.scores == reference.posteriors
    assert batched.scores == reference.posteriors
    expected_accepted_scores = {gid: reference.posteriors[gid] for gid in expected_ids}
    assert pruned_single.scores == expected_accepted_scores
    assert pruned_batch.scores == expected_accepted_scores
    assert unpruned.scores == expected_accepted_scores

    # top-k mode: exactly the first k of the γ=0 reference ranking
    k = 1 + (query_seed % 7)
    expected_topk = search.query_topk_reference(query, k)
    assert search.query_topk(query, k).ranking == expected_topk
    assert default_engine.query_topk(query, k).ranking == expected_topk


@pytest.mark.parametrize("backend", BACKEND_PARAMS)
@pytest.mark.parametrize("pruning", [False, True])
def test_query_batch_returns_input_order(pruning, backend):
    search, engine, _default, _unpruned = _fitted(0, pruning, backend)
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
        assert answer.accepted_ids == search.query(query).answer.accepted_ids


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
    """Every engine behind a 3-thread executor answers like ``query_reference``."""
    from repro.serving import ServingExecutor

    search, engine, default_engine, unpruned_engine = _fitted(2, pruning, backend)
    queries = _executor_queries(11, 9)
    references = [search.query_reference(query) for query in queries]

    def answers(serving_engine):
        return ServingExecutor(serving_engine, num_workers=3).map(queries)

    for answer, reference in zip(answers(engine), references):
        assert answer.accepted_ids == reference.answer.accepted_ids
        assert answer.scores == reference.posteriors
    for answer, reference in zip(answers(default_engine), references):
        expected_ids = reference.answer.accepted_ids
        assert answer.accepted_ids == expected_ids
        assert answer.scores == {gid: reference.posteriors[gid] for gid in expected_ids}
    for answer, reference in zip(answers(unpruned_engine), references):
        assert answer.accepted_ids == reference.answer.accepted_ids


@pytest.mark.parametrize("num_workers", [1, 3])
def test_executor_topk_matches_reference(num_workers):
    from repro.serving import ServingExecutor

    search, _engine, default_engine, _unpruned = _fitted(1, True)
    queries = _executor_queries(13, 8, top_k=True)
    answers = ServingExecutor(default_engine, num_workers=num_workers).map(queries)
    for query, answer in zip(queries, answers):
        ranked = search.query_topk_reference(query, query.top_k)
        assert answer.ranking == ranked
        assert answer.accepted_ids == frozenset(gid for gid, _ in ranked)


@pytest.mark.parametrize("backend", BACKEND_PARAMS)
@pytest.mark.parametrize("pruning", [False, True])
def test_bound_filter_never_prunes_an_accepted_graph(pruning, backend):
    """The γ-threshold inversion is sound: pruned-out rows are never accepted.

    (The accepted-set equality of the property test implies this; asserting
    it directly on the counters documents the filter really fires.)
    """
    search, _engine, default_engine, _unpruned = _fitted(0, pruning, backend)
    before = default_engine.prune_counters
    qrng = random.Random(99)
    for _ in range(10):
        query = SimilarityQuery(
            random_labeled_graph(qrng.randint(3, 12), qrng.randint(2, 16), seed=qrng),
            qrng.randint(0, MAX_TAU),
            qrng.choice([0.5, 0.9, 0.99]),
        )
        assert (
            default_engine.query(query).accepted_ids
            == search.query_reference(query).answer.accepted_ids
        )
    after = default_engine.prune_counters
    generated = after["candidates_generated"] - before["candidates_generated"]
    pruned = after["candidates_pruned"] - before["candidates_pruned"]
    verified = after["candidates_verified"] - before["candidates_verified"]
    assert generated == pruned + verified > 0


def test_topk_on_query_routes_through_every_path():
    """``SimilarityQuery(top_k=...)`` is honoured by query/query_batch/executor."""
    from repro.serving import ServingExecutor

    search, _engine, default_engine, _unpruned = _fitted(0, False)
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
    expected = [search.query_topk_reference(q, q.top_k) for q in queries]

    for query, ranked in zip(queries, expected):
        assert default_engine.query(query).ranking == ranked
    for answer, ranked in zip(default_engine.query_batch(queries), expected):
        assert answer.ranking == ranked
        assert answer.accepted_ids == frozenset(gid for gid, _ in ranked)
        assert answer.scores == dict(ranked)

    executor = ServingExecutor(default_engine, num_workers=2)
    for answer, ranked in zip(executor.map(queries), expected):
        assert answer.ranking == ranked
