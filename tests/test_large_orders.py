"""Posterior tables sized by what is stored: graphs of 10⁴ and 10⁵ vertices.

Each τ̂'s :class:`~repro.db.columnar.PosteriorTable` holds one row per
extended order it has met, ``Σ (e + 1)`` cells, so a few large graphs beside
small ones cost a few rows, not a matrix square in the largest order.  The
checks run in a child process whose address space is capped at 4 GB
(``resource.setrlimit(RLIMIT_AS)``, a limit on that process alone): a table
that grew with the square of 10⁵ would need ≈ 75 GiB there and fail with
``MemoryError``.  (Not under the sanitised kernel leg, whose AddressSanitizer
runtime reserves more address space than the cap at start-up.)

* Two stored graphs of 10⁵ vertices (2·10⁵ edges) beside 30 of 12: a
  thresholded and a top-k query answer as the per-pair reference loops do,
  and so does a query graph of 10⁵ isolated vertices.
* The same at 10⁴ vertices: one 12-vertex query at τ̂ = 3 leaves a table of
  at most 1 MB.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_CHILD = r"""
import json, os, random, resource, sys

# AddressSanitizer reserves terabytes of shadow address space up front, so
# under the sanitised kernel leg the cap cannot apply; the reads are checked.
if "libasan" not in os.environ.get("LD_PRELOAD", ""):
    resource.setrlimit(resource.RLIMIT_AS, (4 * 2**30, 4 * 2**30))

from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.query import SimilarityQuery
from repro.graphs.generators import random_labeled_graph
from repro.graphs.graph import Graph
from repro.serving import BatchQueryEngine
from repro.testing.oracles import query_reference, query_topk_reference


def setup(num_vertices):
    rng = random.Random(7)
    graphs = [random_labeled_graph(12, 16, seed=rng) for _ in range(30)]
    graphs += [random_labeled_graph(num_vertices, 2 * num_vertices, seed=rng) for _ in range(2)]
    search = GBDASearch(
        GraphDatabase(graphs, name=f"large-{num_vertices}"), max_tau=3, num_prior_pairs=60, seed=5
    ).fit()
    return graphs, search, BatchQueryEngine.from_search(search, cache_size=None)


facts = {}
graphs, search, engine = setup(10**5)
query = SimilarityQuery(graphs[3].copy(), 3, 0.5)
facts["thresholded"] = (
    sorted(engine.query(query).accepted_ids)
    == sorted(query_reference(search, query).answer.accepted_ids)
)
facts["top_k"] = engine.query_topk(query, 5).ranking == query_topk_reference(search, query, 5)
isolated = Graph()
for vertex in range(10**5):
    isolated.add_vertex(vertex, "A")
wide = SimilarityQuery(isolated, 3, 0.0)
answer = engine.query(wide)
reference = query_reference(search, wide)
facts["isolated"] = answer.scores == {
    graph_id: reference.posteriors[graph_id] for graph_id in reference.answer.accepted_ids
}
facts["answered"] = len(answer.accepted_ids)
facts["rows"] = engine.num_cached_tables

graphs, search, engine = setup(10**4)
engine.query(SimilarityQuery(graphs[3].copy(), 3, 0.5))
facts["table_bytes"] = {
    tau_hat: sum(array.nbytes for array in table)
    for tau_hat, (table, _covered) in engine._core._tables.items()
}
print(json.dumps(facts))
"""


@pytest.fixture(scope="module")
def facts():
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
        # One BLAS thread: its buffers count against the address-space cap.
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    child = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True, timeout=600
    )
    assert child.returncode == 0, child.stderr[-3000:]
    return json.loads(child.stdout.strip().splitlines()[-1])


def test_a_table_at_ten_thousand_vertices_holds_at_most_a_megabyte(facts):
    assert facts["table_bytes"] and max(facts["table_bytes"].values()) <= 2**20


def test_a_hundred_thousand_vertices_answer_like_the_reference_loops(facts):
    assert facts["thresholded"] and facts["top_k"]


def test_a_query_of_a_hundred_thousand_isolated_vertices_is_answered(facts):
    assert facts["isolated"] and facts["answered"] == 32
    # one row per extended order met: 12 and 10⁵, the isolated query's own too
    assert facts["rows"] == 2
