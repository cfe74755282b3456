"""repro — reproduction of "An Efficient Probabilistic Approach for Graph Similarity Search".

The library implements GBDA (Graph Branch Distance Approximation): a
probabilistic filter for graph similarity search under Graph Edit Distance.
Its three layers are exposed here for convenience:

* the graph substrate (:class:`~repro.graphs.Graph` and edit operations),
* the GBDA core (:func:`~repro.core.graph_branch_distance`,
  :class:`~repro.core.GBDASearch`, priors, and the probabilistic model),
* the competitor baselines and the evaluation harness used to regenerate the
  paper's tables and figures,
* the serving layer (:mod:`repro.serving`): a batched, vectorized,
  snapshot-backed query engine for production-style workloads,
* the offline layer (:mod:`repro.offline`): vectorized EM, pair GBDs read
  off the database's branch store, and incremental prior refits via
  :class:`~repro.offline.fitter.OfflineFitter`,
* the service layer (:mod:`repro.service`): an asyncio TCP server that
  micro-batches concurrent remote clients into ``query_batch`` calls, with
  admission control and zero-downtime snapshot hot swap,
* the observability layer (:mod:`repro.obs`): a low-overhead metrics
  registry instrumenting all of the above, distributed per-query stage
  waterfalls (one trace id from client to core), structured event
  logging, burn-rate SLOs, an on-demand sampling profiler, a slow-query
  log, and Prometheus text exposition.

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

from repro.graphs.graph import Graph, VIRTUAL_LABEL
from repro.core.gbd import graph_branch_distance, variant_graph_branch_distance
from repro.core.branches import Branch, branches_of, branch_multiset
from repro.core.search import GBDASearch, SearchResult
from repro.core.variants import GBDAV1Search, GBDAV2Search
from repro.core.gbd_prior import GBDPrior
from repro.core.ged_prior import GEDPrior
from repro.core.estimator import GBDAEstimator
from repro.core.plan import ExecutionCore
from repro.db.database import GraphDatabase
from repro.db.columnar import ColumnarBranchStore
from repro.db.query import SimilarityQuery, QueryAnswer
from repro.offline import OfflineFitter
from repro.serving import (
    BatchQueryEngine,
    QueryResultCache,
    load_engine,
    save_engine,
)
from repro.service import (
    AsyncServiceClient,
    CircuitBreaker,
    Deadline,
    HedgePolicy,
    RetryPolicy,
    ServiceClient,
    SimilarityService,
    start_service_thread,
)
from repro.obs import (
    MetricsRegistry,
    SamplingProfiler,
    SLOEngine,
    SlowQueryLog,
    TraceContext,
    Tracer,
    build_info,
    get_logger,
    get_registry,
    prometheus_text,
    register_build_info,
    set_enabled,
)
from repro.baselines import (
    AStarGED,
    BranchFilterGED,
    EstimatorSearch,
    GreedySortGED,
    LSAPGED,
    SeriationGED,
    exact_ged,
)
from repro.datasets.registry import Dataset, build_dataset
from repro.exceptions import (
    CircuitOpenError,
    ConnectionLostError,
    DeadlineExceededError,
    ProtocolError,
    QueryError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    ServingError,
    SnapshotCorruptError,
    SnapshotError,
)

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
    "VIRTUAL_LABEL",
    "Branch",
    "branches_of",
    "branch_multiset",
    "graph_branch_distance",
    "variant_graph_branch_distance",
    "GBDASearch",
    "SearchResult",
    "GBDAV1Search",
    "GBDAV2Search",
    "GBDPrior",
    "GEDPrior",
    "GBDAEstimator",
    "ExecutionCore",
    "GraphDatabase",
    "ColumnarBranchStore",
    "SimilarityQuery",
    "QueryAnswer",
    "OfflineFitter",
    "BatchQueryEngine",
    "QueryResultCache",
    "save_engine",
    "load_engine",
    "SimilarityService",
    "ServiceClient",
    "AsyncServiceClient",
    "start_service_thread",
    "RetryPolicy",
    "CircuitBreaker",
    "HedgePolicy",
    "Deadline",
    "MetricsRegistry",
    "Tracer",
    "TraceContext",
    "SlowQueryLog",
    "SLOEngine",
    "SamplingProfiler",
    "get_registry",
    "get_logger",
    "prometheus_text",
    "set_enabled",
    "register_build_info",
    "build_info",
    "AStarGED",
    "exact_ged",
    "LSAPGED",
    "GreedySortGED",
    "SeriationGED",
    "BranchFilterGED",
    "EstimatorSearch",
    "Dataset",
    "build_dataset",
    "ReproError",
    "QueryError",
    "ServingError",
    "SnapshotError",
    "SnapshotCorruptError",
    "ServiceError",
    "ServiceOverloadedError",
    "DeadlineExceededError",
    "ConnectionLostError",
    "CircuitOpenError",
    "ProtocolError",
    "__version__",
]
