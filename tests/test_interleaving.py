"""Writes, reads and refits at once, held to the scalar oracle.

One writer grows the database with ``add_many`` (planted copies of the
queries among the new graphs, so answers change as it goes), one thread
refits the offline model and publishes an engine built on each new version,
and two readers ask thresholded and top-k queries of whichever engine is
current.  Nothing tells the engines about the writes: they read the
database's own store, and their caches are keyed by revision.

Every answer is checked afterwards against the per-pair loop under the
estimator of the engine that gave it: it must be the oracle's answer over the
first ``n`` graphs for some ``n`` between the revisions read just before and
just after the call (ids are arrival order, so a prefix is a set of ids).
Every refit's new samples are checked against ``graph_branch_distance`` of the
pairs it drew.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.core.gbd import graph_branch_distance
from repro.db.database import GraphDatabase
from repro.db.kernels import available_backends
from repro.db.query import SimilarityQuery
from repro.graphs.generators import random_labeled_graph
from repro.offline import OfflineFitter
from repro.offline.fitter import _draw_partners

MAX_TAU = 2
PARTNERS = 4


def _graphs(count, seed):
    rng = random.Random(seed)
    return [
        random_labeled_graph(rng.randint(4, 9), rng.randint(3, 12), seed=rng)
        for _ in range(count)
    ]


def _oracle(estimator, query, graphs):
    """Posterior of every graph, by the per-pair loop."""
    graph = query.query_graph
    return [
        estimator.posterior(
            graph_branch_distance(graph, stored),
            query.tau_hat,
            max(graph.num_vertices, stored.num_vertices),
        )
        for stored in graphs
    ]


def _answers_some_prefix(answer, query, posteriors, low, high):
    """Whether ``answer`` is the oracle's over the first ``n`` graphs, ``low <= n <= high``."""
    for n in range(low, high + 1):
        prefix = list(enumerate(posteriors[:n]))
        if query.top_k is not None:
            ranked = sorted(prefix, key=lambda pair: (-pair[1], pair[0]))[: query.top_k]
            if answer.ranking == ranked:
                return True
        else:
            accepted = {i: p for i, p in prefix if p >= query.gamma}
            if answer.accepted_ids == frozenset(accepted) and answer.scores == accepted:
                return True
    return False


BACKENDS = [
    pytest.param(
        name,
        marks=()
        if name in available_backends()
        else pytest.mark.skip(reason="native kernel backend unavailable here"),
    )
    for name in ("numpy", "native")
]


@pytest.mark.parametrize("backend", BACKENDS)
def test_add_many_queries_and_refits_interleave(backend):
    stored, queries_graphs = _graphs(40, seed=3), _graphs(4, seed=4)
    queries = [
        SimilarityQuery(graph, tau, 0.3, top_k=top_k)
        for graph in queries_graphs + stored[:2]
        for tau, top_k in ((0, None), (2, None), (1, 5))
    ]
    # Ten batches of six: fresh graphs and exact copies of the query graphs.
    fresh = _graphs(40, seed=5)
    batches = [
        fresh[4 * b : 4 * b + 4] + [queries_graphs[b % 4].copy(), stored[b % 2].copy()]
        for b in range(10)
    ]
    database = GraphDatabase(stored, kernel_backend=backend)
    fitter = OfflineFitter(
        database, max_tau=MAX_TAU, num_prior_pairs=80, seed=1, refit_pairs_per_graph=PARTNERS
    ).fit()
    current = [fitter.build_engine(cache_size=16)]
    refits, reads, failures = [], [], []
    writing = threading.Event()
    writing.set()

    def guarded(work):
        def run():
            try:
                work()
            except BaseException as exc:  # noqa: BLE001 - reported by the main thread
                failures.append(exc)
                writing.clear()

        return threading.Thread(target=run)

    def write():
        for batch in batches:
            database.add_many(batch)
            time.sleep(0.01)  # room for reads and a refit between two batches
        writing.clear()

    def refit():
        while writing.is_set():
            revision, version, samples = fitter.fitted_revision, fitter.version, len(fitter._samples)
            if fitter.refit():
                refits.append((revision, fitter.fitted_revision, version, samples))
                current[0] = fitter.build_engine(cache_size=16)

    def read(seed):
        rng = random.Random(seed)
        while writing.is_set() or len(reads) < 40:
            engine, query = current[0], rng.choice(queries)
            before = database.revision
            answer = engine.query(query)
            reads.append((engine.estimator, query, answer, before, database.revision))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [guarded(write), guarded(refit), guarded(lambda: read(7)), guarded(lambda: read(8))]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        writing.clear()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
    graphs = database.graphs()
    assert len(graphs) == 100 and database.store.num_graphs == 100
    assert refits and reads

    oracles = {}
    for estimator, query, answer, before, after in reads:
        key = (id(estimator), id(query))
        if key not in oracles:
            oracles[key] = _oracle(estimator, query, graphs)
        assert _answers_some_prefix(answer, query, oracles[key], before, after), (
            query.tau_hat, query.top_k, before, after
        )

    # Each refit drew its pairs from the graphs of its own revision.
    base_seed = 1 * 1_000_003
    for revision, fitted, version, samples in refits:
        rng = random.Random(base_seed + version)
        expected = [
            graph_branch_distance(graphs[graph_id], graphs[partner])
            for graph_id in range(revision, fitted)
            for partner in _draw_partners(rng, fitted, graph_id, PARTNERS)
        ]
        assert fitter._samples[samples : samples + len(expected)] == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_read_as_the_store_takes_a_batch_names_only_listed_graphs(backend, monkeypatch):
    # The first read after the store buffers a batch compacts it: every row
    # it can see must already be a graph the database lists, or an answer
    # names an id that ``database[id]`` refuses and a cache key's revision
    # undercounts the rows its answer covers.
    stored, (planted,) = _graphs(20, seed=3), _graphs(1, seed=4)
    database = GraphDatabase(stored, kernel_backend=backend)
    fitter = OfflineFitter(database, max_tau=MAX_TAU, num_prior_pairs=40, seed=1).fit()
    engine = fitter.build_engine(cache_size=None)
    queries = [SimilarityQuery(planted, 0, 0.3), SimilarityQuery(planted, 1, 0.3, top_k=5)]
    extend, reads = database.store.extend, []

    def extend_then_read(*args, **kwargs):
        extend(*args, **kwargs)
        reads.extend((database.revision, engine.query(query)) for query in queries)

    monkeypatch.setattr(database.store, "extend", extend_then_read)
    (new_id,) = database.add_many([planted.copy()])
    assert len(reads) == 2
    for revision, answer in reads:
        assert answer.accepted_ids <= set(range(revision))
        assert new_id in answer.accepted_ids  # the planted copy is visible
