"""A budget of Python calls per warm query: the fixed cost of one store call stays cut.

A lone query is a batch of one through the engine, the execution core, the
store and the kernel wrapper, and every Python function it passes through
costs a frame whether the batch holds one row or thirty-two.  Wall clock on a
shared machine cannot see a few extra calls; a count can, and it repeats
exactly.  Counted are the ``call`` events of ``sys.setprofile`` whose code
lies in the ``repro`` package — not C functions, the standard library or
NumPy, so the count does not move with their versions — for one
``engine.query``, one ``engine.query_topk(·, 5)`` and one eight-row
``engine.query_batch``, each with its queries' branches already extracted
and the result cache cleared first.

The ceilings are the counts of the current code, per kernel backend.  A
change that raises one must raise the ceiling here and say why in
CHANGES.md.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

import repro
from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.kernels import available_backends
from repro.db.query import SimilarityQuery
from repro.graphs.generators import random_labeled_graph
from repro.serving import BatchQueryEngine

PACKAGE = str(Path(repro.__file__).resolve().parent)
BACKENDS = available_backends()
#: backend -> (one query, one top-k query, one batch of eight) — the most
#: Python calls each may make inside the package.
CEILINGS = {
    "native": (42, 44, 170),
    "numpy": (43, 58, 203),
}
backend_params = [
    pytest.param(
        name,
        marks=()
        if name in BACKENDS
        else pytest.mark.skip(reason="native kernel backend unavailable here"),
    )
    for name in ("numpy", "native")
]


def _engine_and_queries(backend):
    rng = random.Random(5)
    graphs = [
        random_labeled_graph(rng.randint(4, 9), rng.randint(3, 12), seed=rng)
        for _ in range(60)
    ]
    database = GraphDatabase(graphs, kernel_backend=backend)
    search = GBDASearch(database, max_tau=3, num_prior_pairs=80, seed=4).fit()
    engine = BatchQueryEngine.from_search(search)
    rng = random.Random(9)
    queries = [
        SimilarityQuery(
            random_labeled_graph(rng.randint(4, 9), rng.randint(3, 12), seed=rng), 2, 0.5
        )
        for _ in range(8)
    ]
    for query in queries:
        query.branches()
    # Warm: the posterior rows every query reads are filled, the library loaded.
    engine.query_batch(queries)
    for query in queries:
        engine.query(query)
        engine.query_topk(query, 5)
    return engine, queries


def _python_calls(engine, call) -> int:
    """The package's Python frames entered by ``call()``, the cache cleared first."""
    engine.cache.clear()
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("backend", backend_params)
def test_a_warm_query_stays_inside_its_python_call_budget(backend):
    engine, queries = _engine_and_queries(backend)
    counts = tuple(
        _python_calls(engine, call)
        for call in (
            lambda: engine.query(queries[0]),
            lambda: engine.query_topk(queries[0], 5),
            lambda: engine.query_batch(queries),
        )
    )
    # The count is exact: a second pass repeats it.
    assert _python_calls(engine, lambda: engine.query(queries[0])) == counts[0]
    ceilings = CEILINGS[backend]
    assert all(count <= ceiling for count, ceiling in zip(counts, ceilings)), (
        f"Python calls (query, query_topk, query_batch of 8) on {backend}: {counts}, "
        f"ceilings {ceilings}"
    )
