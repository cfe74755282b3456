"""repro — reproduction of "An Efficient Probabilistic Approach for Graph Similarity Search".

The library implements GBDA (Graph Branch Distance Approximation): a
probabilistic filter for graph similarity search under Graph Edit Distance.
The top level holds what the quickstarts import; every other name lives in
its layer's package and is imported from there:

* :mod:`repro.graphs` — the graph substrate (edit operations, generators,
  validation, :mod:`repro.graphs.io` interchange);
* :mod:`repro.core` — branches, GBD, the priors, the probabilistic model and
  the execution core;
* :mod:`repro.db` — the graph database, its columnar branch store and
  queries;
* :mod:`repro.offline` — incremental prior refits;
* :mod:`repro.serving` — the batched, snapshot-backed query engine;
* :mod:`repro.service` — the asyncio TCP server and its clients (loaded
  only when imported);
* :mod:`repro.obs` — metrics, traces, logs, SLOs and the profiler;
* :mod:`repro.baselines`, :mod:`repro.datasets`, :mod:`repro.evaluation`,
  :mod:`repro.experiments` — the competitors and the harness that
  regenerates the paper's tables and figures.

Quickstart
----------
>>> from repro import Graph, GraphDatabase, GBDASearch, SimilarityQuery
>>> g1 = Graph.from_dicts({0: "A", 1: "B"}, {(0, 1): "x"})
>>> g2 = Graph.from_dicts({0: "A", 1: "B"}, {(0, 1): "y"})
>>> database = GraphDatabase([g1, g2])
>>> search = GBDASearch(database, max_tau=3, num_prior_pairs=10).fit()
>>> answer = search.search(g1, tau_hat=1, gamma=0.5)

Serving quickstart
------------------
The offline stage (``fit``) is paid once; the serving engine then answers
query batches with vectorized posterior-table lookups and can be persisted
to disk and reloaded in milliseconds:

>>> from repro import BatchQueryEngine
>>> engine = BatchQueryEngine.from_search(search)
>>> batch = [SimilarityQuery(g1, 1, 0.5), SimilarityQuery(g2, 1, 0.5)]
>>> answers = engine.query_batch(batch)
>>> len(answers)
2
>>> engine.save("/tmp/gbda.snapshot")                       # doctest: +SKIP
>>> served = BatchQueryEngine.load("/tmp/gbda.snapshot")    # doctest: +SKIP
"""

from repro.graphs.graph import Graph
from repro.core.gbd import graph_branch_distance
from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.query import SimilarityQuery
from repro.offline import OfflineFitter
from repro.serving import BatchQueryEngine
from repro.baselines import exact_ged
from repro.obs import register_build_info

__version__ = "1.8.0"


def _resolved_kernel_backend() -> str:
    """Best-effort concrete kernel backend for the build-info labels."""
    try:
        from repro.db.kernels import resolve_backend

        return resolve_backend("auto")
    except Exception:
        return "unknown"


#: ``repro_build_info`` is registered once at import so every scrape —
#: including one taken before any query ran — identifies the build.
register_build_info(__version__, _resolved_kernel_backend())

__all__ = [
    "Graph",
    "GraphDatabase",
    "GBDASearch",
    "SimilarityQuery",
    "BatchQueryEngine",
    "OfflineFitter",
    "graph_branch_distance",
    "exact_ged",
    "__version__",
]
