"""A reload that lowers ``max_tau`` fails only the queries it strands.

The service checks τ̂ against the serving engine at admission, and the
micro-batcher resolves the engine once per flush: a query admitted before a
reload can reach a flush scored by an engine whose priors stop below its τ̂.
That query alone is answered ``BAD_REQUEST``, as admission would have answered
it; the queries batched with it are scored on the new engine.
"""

from __future__ import annotations

import random
import socket
import threading
import time

from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.query import SimilarityQuery
from repro.graphs.generators import random_labeled_graph
from repro.serving import BatchQueryEngine, load_engine, save_engine
from repro.service import ServiceClient, start_service_thread
from repro.service.protocol import (
    ERROR_BAD_REQUEST,
    decode_answer,
    query_request,
    recv_frame,
    send_frame,
)


class _HeldEngine:
    """``engine`` behind a scorer that holds its batches until ``release`` is set.

    The micro-batcher never holds a query back on its own: a queue forms only
    behind a batch that is still being scored, so holding the first batch is
    how a test gets queries waiting across a reload.
    """

    def __init__(self, engine) -> None:
        self._engine = engine
        self.scoring = threading.Event()
        self.release = threading.Event()

    def query_batch(self, queries, **kwargs):
        self.scoring.set()
        assert self.release.wait(30), "the test never released the scorer"
        return self._engine.query_batch(queries, **kwargs)

    def __getattr__(self, name):
        return getattr(self._engine, name)


def _wait_until(condition, timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    return condition()


def test_a_reload_that_lowers_max_tau_fails_only_the_stranded_query(tmp_path):
    rng = random.Random(31)
    graphs = [
        random_labeled_graph(rng.randint(5, 9), rng.randint(5, 12), seed=rng) for _ in range(40)
    ]
    database = GraphDatabase(graphs, name="reload-max-tau")
    engines = {
        max_tau: BatchQueryEngine.from_search(
            GBDASearch(database, max_tau=max_tau, num_prior_pairs=100, seed=2).fit()
        )
        for max_tau in (3, 2)
    }
    path = tmp_path / "max_tau_2.snapshot"
    save_engine(engines[2], path)
    first = SimilarityQuery(graphs[0], 1, 0.5)
    stranded = SimilarityQuery(graphs[1], 3, 0.5)  # admitted under max_tau = 3
    kept = SimilarityQuery(graphs[2], 1, 0.5)
    held = _HeldEngine(engines[3])
    handle = start_service_thread(held, max_batch=8)
    try:
        with socket.create_connection(handle.address, timeout=10) as sock:
            send_frame(sock, query_request(1, first))
            assert held.scoring.wait(10)
            send_frame(sock, query_request(2, stranded))
            send_frame(sock, query_request(3, kept))
            batcher = handle.service.batcher
            assert _wait_until(lambda: batcher.queue_depth == 2)
            with ServiceClient(*handle.address) as admin:
                assert admin.reload(str(path))["reload_count"] == 1
            held.release.set()
            replies = {frame["id"]: frame for frame in (recv_frame(sock) for _ in range(3))}
        assert batcher.batches_flushed == 2 and batcher.largest_batch == 2
    finally:
        held.release.set()
        handle.stop()

    answer = decode_answer(replies[1]["answer"])
    assert answer.accepted_ids == engines[3].query(first).accepted_ids  # before the swap
    assert replies[2]["kind"] == "error"
    assert replies[2]["error"]["code"] == ERROR_BAD_REQUEST
    assert "exceeds the served model's maximum 2" in replies[2]["error"]["message"]
    answer = decode_answer(replies[3]["answer"])
    expected = load_engine(path).query(kept)
    assert answer.accepted_ids == expected.accepted_ids and answer.scores == expected.scores
