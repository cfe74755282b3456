"""Unified query-execution core for the online stage of Algorithm 1.

Steps 2–4 of Algorithm 1 — GBD from the branch multisets, ``Pr[GED <= τ̂ |
GBD]`` read off priors that depend only on ``(ϕ, τ̂, |V'1|)``, one comparison
with γ — are decided per (query, graph) pair, so :class:`ExecutionCore`
implements them once, as one pipeline a query goes through:

* **bound** — a GBD lower bound per distinct ``|V_G|`` of one store
  snapshot, from per-graph norms (O(1) each, no postings read).  The
  thresholded path compares it with the ``(τ̂, γ)`` acceptance rule inverted
  into a max-acceptable GBD (:meth:`acceptance_threshold`); top-k turns it
  into a posterior upper bound.  Unpruned execution is the same pipeline
  with every order eligible.
* **candidates** — the rows of the orders that survive the bound.
* **verify** — the candidates' exact ``|B_Q ∩ B_G|``, by sparse index probes
  or by one dense walk of the query's posting segments, whichever the query's
  own posting lengths make cheaper
  (:func:`~repro.db.columnar.sparse_row_budget`: no tuning constant, the same
  choice under both kernel backends).
* **reduce** — two reducers over the same scored candidates.  *Threshold*:
  posterior ``>= γ``.  *k-best* (:meth:`execute_topk`): whole order groups in
  descending bound order are offered to a running top ``k`` whose k-th score
  ends the scan between two groups.

For callers that only need the accepted graphs (:meth:`execute_pruned`, the
serving engine's default) *bound*, *verify* and *reduce* are **one store
call**: :meth:`ColumnarBranchStore.filter_verify_row
<repro.db.columnar.ColumnarBranchStore.filter_verify_row>` takes the
per-order thresholds, the τ̂ posterior table, γ and the branch-bound cap and
returns the *hits* — the accepted rows' store positions and GBDs — so nothing
``D`` long is produced or walked here; what is left is their ids and one table
lookup each.  The ``bound_filter`` stage histogram therefore covers that whole
call (bound, verification and the γ comparison) and the second stage —
``verify`` after the sparse plan, ``score_dense`` after the dense one — the
hits' ids and scores only.  Likewise all of top-k is one call
(:meth:`~repro.db.columnar.ColumnarBranchStore.filter_verify_topk`: bounds,
group order, verification, k-best and cut-off) that hands back at most ``k``
scored rows, ranked here.  Asked to keep every posterior
(:meth:`execute`, what ``keep_scores="all"`` and :meth:`GBDASearch.query
<repro.core.search.GBDASearch.query>` need) the threshold reducer scores the
dense row in NumPy, for every row.

Posteriors come from two interchangeable, bit-identical strategies, chosen
once per query by estimated cost (:meth:`_use_tables`).  *Tables*: dense
``(τ̂, |V'1|)`` posterior vectors from :meth:`GBDAEstimator.posterior_row`
(each entry is the scalar :meth:`GBDAEstimator.posterior`), stacked into
order-indexed lookup matrices — the table the store call compares with γ, on
the very doubles the per-pair loop compares.  *Direct*: evaluate only the
distinct ``(GBD, |V'1|)`` pairs actually present (cached across queries) —
never worse than the per-pair loop.

A batch is a loop.  Two queries of a batch share nothing but lookup-table
rows, which are cached across calls anyway, so :meth:`execute_batch` runs
its rows through the pipeline one by one, in input order: a row is a batch
of one, and what a batch saves lies outside the core (one cache-probe pass,
one thread hand-over and one trace per flush), not in a matrix kernel.
Every path returns accepted sets and scores bit-identical to the scalar
``query_reference`` loop; :class:`FilterCounters` tracks what the bounds
saved, counted per query on every path.

Thread-safety: queries may run concurrently from threads sharing one engine
(the serving executor's ``"thread"`` mode).  The lookup-table caches are
published as immutable ``(array, frozenset-of-filled-orders)`` pairs swapped
atomically under a writer lock, so a reader either sees a table that
provably contains every row it needs or takes the lock and fills the gap —
never a torn or half-filled table.

Because the core reads positions and *global* graph ids from the store, it
works unchanged over id-preserving shard views
(:meth:`~repro.db.database.GraphDatabase.shard`): per-shard
:class:`CandidateScores` speak the global id space and merge by union.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.core.estimator import GBDAEstimator
from repro.core.gbd import max_gbd_for_ged
from repro.db.database import GraphDatabase
from repro.db.index import BranchInvertedIndex
from repro.db.kernels import numpy_impl
from repro.db.query import SimilarityQuery
from repro.exceptions import SearchError
from repro.obs.metrics import DEFAULT_RATIO_BUCKETS, get_registry
from repro.obs.trace import QueryTrace, activated, active_trace

__all__ = ["CandidateScores", "ExecutionCore", "FilterCounters"]

# Metric children are bound once at import time (see repro.obs.metrics) and
# deliberately *not* stored on core instances — cores are pickled into pool
# workers, whose own import of this module rebinds against the worker-local
# registry; the executor folds worker deltas back via MetricsRegistry.merge.
_STAGE_SECONDS = get_registry().histogram(
    "repro_stage_seconds", "Execution-core stage durations in seconds", ("stage",)
)
_PLAN_CHOICES = get_registry().counter(
    "repro_plan_choices_total", "Verification plans picked by the selectivity cost model", ("plan",)
)
_PLAN_SELECTIVITY = get_registry().histogram(
    "repro_plan_selectivity",
    "Fraction of generated candidates actually verified, per scoring pass",
    ("plan",),
    buckets=DEFAULT_RATIO_BUCKETS,
)
_STAGES = {
    stage: _STAGE_SECONDS.labels(stage=stage)
    for stage in ("bound_filter", "verify", "score_dense", "topk")
}
#: ``sparse -> (plan counter, selectivity histogram)`` of a verification pass.
_PLAN_METRICS = {
    sparse: (_PLAN_CHOICES.labels(plan=plan), _PLAN_SELECTIVITY.labels(plan=plan))
    for sparse, plan in ((False, "dense"), (True, "sparse"))
}


def _record_stage(name: str, started: float) -> None:
    """Observe one stage's duration and mirror it into the active trace.

    Core stages land at depth 1 of the batch-level trace the engine
    activates (see :mod:`repro.obs.trace`), nesting under the engine's own
    depth-0 spans when grafted into a sampled query's waterfall.
    """
    seconds = time.perf_counter() - started
    _STAGES[name].observe(seconds)
    trace = active_trace()
    if trace is not None:
        trace.add(name, seconds, depth=1)


#: A published lookup table: the dense matrix plus the orders whose rows
#: are guaranteed filled *in that matrix* (immutable, swapped atomically).
_Table = Tuple[np.ndarray, FrozenSet[int]]

#: Fill factor: build table rows only when their one-time cost (Σ |V'1|+1
#: posterior evaluations) is within this multiple of the direct per-pair
#: work of the current call — serving workloads cross the bar immediately,
#: one-shot large-τ̂ experiment queries never pay for rows they don't use.
_TABLE_COST_FACTOR = 4


def _ranked(ids: np.ndarray, scores: np.ndarray) -> List[Tuple[int, float]]:
    """``(id, score)`` pairs by descending score, ascending id under ties."""
    order = np.lexsort((ids, -scores))
    return list(zip(ids[order].tolist(), scores[order].tolist()))


@dataclass
class FilterCounters:
    """Cumulative filter-effectiveness counters of one execution core.

    ``candidates_generated`` counts every (query, graph) pair a query was
    answerable over, ``candidates_pruned`` the pairs eliminated by O(1)
    bound arithmetic before any postings traversal (or by top-k early
    termination), and ``candidates_verified`` the pairs actually scored.
    ``dense_passes`` / ``sparse_passes`` record which strategy the cost
    model picked per verification pass.
    """

    candidates_generated: int = 0
    candidates_pruned: int = 0
    candidates_verified: int = 0
    dense_passes: int = 0
    sparse_passes: int = 0

    @property
    def prune_rate(self) -> float:
        """Fraction of generated candidates eliminated without scoring."""
        if self.candidates_generated <= 0:
            return 0.0
        return self.candidates_pruned / self.candidates_generated

    def as_dict(self) -> Dict[str, float]:
        """Flat summary (for stats objects / benchmark JSON)."""
        return {**asdict(self), "prune_rate": self.prune_rate}


@dataclass
class CandidateScores:
    """Per-candidate output of one query's online stage.

    From :meth:`ExecutionCore.execute` every array spans the whole store,
    aligned on store positions (``graph_ids`` is then the identity map of an
    unsharded database).  From the accepted-only reducer
    (:meth:`ExecutionCore.execute_pruned` on the tables side) nothing ``D``
    long exists: ``graph_ids`` / :attr:`positions` hold the accepted rows,
    their scores are in :attr:`accepted_items`, and the per-candidate arrays
    are ``None``.
    """

    graph_ids: np.ndarray
    gbds: Optional[np.ndarray] = None
    posteriors: Optional[np.ndarray] = None
    accepted: Optional[np.ndarray] = None
    #: Boolean survival mask of the branch lower-bound filter, or ``None``
    #: when pruning was off (every graph was scored).
    eligible: Optional[np.ndarray] = None
    #: Accepted (ids, posteriors) lists of the accepted-only reducer — what
    #: its consumers read (also through :meth:`accepted_id_set`).
    accepted_items: Optional[Tuple[List[int], List[float]]] = None
    #: Store positions of the rows ``graph_ids`` covers, or ``None`` when it
    #: spans the whole store.
    positions: Optional[np.ndarray] = None

    def candidate_positions(self) -> np.ndarray:
        """Positions that were actually scored (all, unless pruning masked some)."""
        if self.gbds is None:
            raise ValueError(
                "the scored rows were not materialised (scored with need='accepted')"
            )
        if self.eligible is None:
            return np.arange(len(self.gbds))
        return np.flatnonzero(self.eligible)

    def accepted_id_set(self) -> frozenset:
        """The accepted global graph ids as a frozenset."""
        if self.accepted_items is not None:
            return frozenset(self.accepted_items[0])
        return frozenset(self.graph_ids[self.accepted].tolist())

    def scores_dict(self, which: str = "candidates") -> Dict[int, float]:
        """Posterior scores keyed by global id: ``"candidates"`` or ``"accepted"``."""
        if which == "accepted" and self.accepted_items is not None:
            return dict(zip(*self.accepted_items))
        if self.posteriors is None:
            raise ValueError(
                "per-candidate posteriors were not materialised "
                "(scored with need='accepted')"
            )
        if which == "accepted":
            positions = np.flatnonzero(self.accepted)
        else:
            positions = self.candidate_positions()
        return dict(
            zip(self.graph_ids[positions].tolist(), self.posteriors[positions].tolist())
        )


class ExecutionCore:
    """Single implementation of Algorithm 1's online steps over a database.

    Parameters
    ----------
    database:
        The graph database (or id-preserving shard view) to score.
    estimator:
        A :class:`GBDAEstimator` built from fitted Λ2/Λ3 priors.
    max_tau:
        Largest similarity threshold supported by the priors.
    error_class:
        Exception type raised on invalid thresholds — :class:`SearchError`
        for the search wrapper, :class:`ServingError` for the engine.
    index:
        Optional pre-built :class:`BranchInvertedIndex`; built lazily on
        first use otherwise.
    kernel_backend:
        Columnar kernel backend of the lazily-built index (``"auto"`` |
        ``"numpy"`` | ``"native"`` — see :mod:`repro.db.kernels`).  Ignored
        when a pre-built ``index`` is supplied.  Neither answers nor plan
        choices depend on it.
    """

    def __init__(
        self,
        database: GraphDatabase,
        estimator: GBDAEstimator,
        *,
        max_tau: int,
        error_class: Type[Exception] = SearchError,
        index: Optional[BranchInvertedIndex] = None,
        kernel_backend: str = "auto",
    ) -> None:
        self.database = database
        self.estimator = estimator
        self.max_tau = int(max_tau)
        self.error_class = error_class
        self.kernel_backend = str(kernel_backend)
        self._index = index
        self._tables: Dict[Tuple[int, int], np.ndarray] = {}
        # Published (matrix, frozen filled-order set) pairs per τ̂ — see the
        # module docstring for the concurrency protocol.
        self._luts: Dict[int, _Table] = {}
        self._bound_luts: Dict[int, _Table] = {}  # top-k suffix-max bounds
        self._table_lock = threading.Lock()
        # Direct-evaluation cache: (τ̂, |V'1|, ϕ) -> posterior.  Writes are
        # idempotent (same float recomputed), so no lock is needed.
        self._pair_cache: Dict[Tuple[int, int, int], float] = {}
        # Memo of _use_tables calls that found every row already filled —
        # tables only ever grow, so a fully-covered verdict stays true.
        self._tables_ready: set = set()
        # (snapshot's order vector, {|V_Q|: the D-length max(|V_Q|, |V_G|) row}) of
        # the snapshot last seen — see _orders_row.
        self._snapshot_rows: Tuple[Optional[np.ndarray], Dict] = (None, {})
        # (τ̂, γ, |V_Q|, |distinct|, pruning) -> (capped threshold vector,
        # posterior table) of the thresholded path — see _pruned_thresholds.
        self._pruned_thresholds_cache: Dict[Tuple, Tuple[np.ndarray, np.ndarray]] = {}
        # γ-threshold inversion cache: (τ̂, γ) -> order-indexed max acceptable
        # GBD; -2 marks a not-yet-inverted order.  Fills are idempotent (derived
        # from the posterior vectors), so no lock is needed; see
        # _threshold_lookup.
        self._threshold_arrays: Dict[Tuple[int, float], np.ndarray] = {}
        #: Cumulative filter-effectiveness counters across every query this
        #: core answered (updated under a dedicated lock; see FilterCounters).
        self.filter_counters = FilterCounters()
        self._counter_lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_table_lock"]  # locks are not picklable
        del state["_counter_lock"]
        state["_snapshot_rows"] = (None, {})  # rebuilt against the worker's store
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._table_lock = threading.Lock()
        self._counter_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # index and posterior tables
    # ------------------------------------------------------------------ #
    @property
    def index(self) -> Optional[BranchInvertedIndex]:
        """The branch index, or ``None`` when no query has needed it yet."""
        return self._index

    def ensure_index(self) -> BranchInvertedIndex:
        """Return the branch index, building it on first use."""
        if self._index is None:
            self._index = BranchInvertedIndex(self.database, backend=self.kernel_backend)
        return self._index

    @property
    def tables(self) -> Dict[Tuple[int, int], np.ndarray]:
        """The materialised ``(τ̂, |V'1|) -> posterior vector`` cache."""
        return self._tables

    def posterior_vector(self, tau_hat: int, extended_order: int) -> np.ndarray:
        """Return the dense posterior vector for one ``(τ̂, |V'1|)`` pair.

        ``vector[ϕ] = Pr[GED <= τ̂ | GBD = ϕ]`` for ``ϕ in 0..|V'1|``;
        computed on first use via :meth:`GBDAEstimator.posterior_row` and
        cached for the lifetime of the core.  (A concurrent duplicate
        computation is idempotent — both threads store the same floats.)
        """
        key = (int(tau_hat), max(int(extended_order), 1))
        vector = self._tables.get(key)
        if vector is None:
            vector = np.asarray(self.estimator.posterior_row(key[0], key[1]), dtype=np.float64)
            self._tables[key] = vector
        return vector

    def validate_tau(self, tau_hat: int) -> None:
        """Reject thresholds beyond the pre-computed priors."""
        if tau_hat > self.max_tau:
            raise self.error_class(
                f"τ̂={tau_hat} exceeds the pre-computed maximum {self.max_tau}; "
                "re-run the offline stage with a larger max_tau"
            )

    # ------------------------------------------------------------------ #
    # order-row caches (derived from one store snapshot per query)
    # ------------------------------------------------------------------ #
    def _orders_row(self, db_orders: np.ndarray, num_query_vertices: int) -> np.ndarray:
        """Cached dense ``max(|V_Q|, |V_G|)`` row for one query size.

        The memo is keyed on the identity of the snapshot's order vector (one
        object per published snapshot, held here so its id cannot be
        recycled): the first call that sees a new snapshot drops the rows of
        the superseded one, so a write stream never strands dead rows.
        Entries are idempotent, so threads racing on one snapshot — or briefly
        replacing each other's memo across two — only ever recompute.
        """
        memo = self._snapshot_rows
        if memo[0] is not db_orders:
            memo = self._snapshot_rows = (db_orders, {})
        rows = memo[1]
        row = rows.get(num_query_vertices)
        if row is None:
            if len(rows) > 256:
                rows.clear()
            row = rows[num_query_vertices] = np.maximum(num_query_vertices, db_orders)
        return row

    def _count(
        self, generated: int, pruned: int, verified: int, *, sparse: Optional[bool] = None
    ) -> None:
        """Fold one pass's filter-effectiveness numbers into the counters."""
        with self._counter_lock:
            counters = self.filter_counters
            counters.candidates_generated += generated
            counters.candidates_pruned += pruned
            counters.candidates_verified += verified
            if sparse is True:
                counters.sparse_passes += 1
            elif sparse is False:
                counters.dense_passes += 1
        if sparse is not None:
            plan, selectivity = _PLAN_METRICS[sparse]
            plan.inc()
            if generated:
                selectivity.observe(verified / generated)

    # ------------------------------------------------------------------ #
    # γ-threshold inversion: (τ̂, γ) acceptance as a max-acceptable GBD
    # ------------------------------------------------------------------ #
    def acceptance_threshold(self, tau_hat: int, gamma: float, extended_order: int) -> int:
        """Largest GBD an accepted graph of this extended order can have.

        Inverts the Step-4 rule ``Φ(ϕ) >= γ`` into ``ϕ <= threshold``: the
        returned value is ``max{ϕ : posterior(ϕ, τ̂, |V'1|) >= γ}`` (or -1
        when no GBD is acceptable).  Taking the *maximum* accepting ϕ keeps
        the inversion sound even where the tabulated posterior is not
        monotone in ϕ — a candidate whose GBD lower bound exceeds the
        threshold provably cannot be accepted, whatever its exact GBD.
        :meth:`_threshold_lookup` keeps the results per ``(τ̂, γ)``.
        """
        accepting = np.flatnonzero(self.posterior_vector(tau_hat, extended_order) >= float(gamma))
        return int(accepting[-1]) if accepting.size else -1

    def _pruned_thresholds(
        self, query: SimilarityQuery, extended: np.ndarray, use_pruning: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(thresholds, lut)`` of one query shape: what the store call reads.

        ``thresholds`` is the max acceptable GBD per distinct order — Step 4
        inverted (:meth:`acceptance_threshold`, vectorized), further capped by
        the branch bound ``2 τ̂`` under ``use_pruning`` — and ``lut`` the τ̂
        posterior table with a row for each of the shape's extended orders
        (:meth:`_lut_for`; filled rows never change, so a table that covered
        the shape once covers it for good).  One query shape ``(τ̂, γ, |V_Q|,
        pruning)`` over one snapshot always produces the same pair, so it is
        built once and reused — a repeat costs one dict probe, however many
        orders the store has — and because the *same array objects* recur, the
        native backend's per-array address cache applies to them too.
        ``len(extended)`` identifies the distinct-order set: the store is
        append-only, so the set only ever grows.
        """
        cache = self._pruned_thresholds_cache
        tau_hat, gamma = query.tau_hat, query.gamma
        key = (tau_hat, gamma, query.query_graph.num_vertices, len(extended), use_pruning)
        cached = cache.get(key)
        if cached is None:
            if len(cache) > 256:
                cache.clear()
            thresholds = self._threshold_lookup(tau_hat, gamma, extended)[extended]
            if use_pruning:
                thresholds = np.minimum(thresholds, max_gbd_for_ged(tau_hat))
            cached = cache[key] = (
                np.ascontiguousarray(thresholds, dtype=np.int64),
                self._lut_for(tau_hat, extended.tolist()),
            )
        return cached

    def _threshold_lookup(
        self, tau_hat: int, gamma: float, extended_orders: np.ndarray
    ) -> np.ndarray:
        """Dense ``order -> max acceptable GBD`` array covering the given orders.

        The hot-path form of :meth:`acceptance_threshold`: one cached
        ``int64`` vector per ``(τ̂, γ)``, filled lazily only for the orders
        actually requested (-2 marks an order not inverted yet) and indexed
        with a single numpy take per query.  Fills are idempotent, so
        concurrent readers are safe without a lock.
        """
        key = (int(tau_hat), float(gamma))
        max_order = int(extended_orders[-1]) if len(extended_orders) else 1
        lookup = self._threshold_arrays.get(key)
        if lookup is None or len(lookup) <= max_order:
            grown = np.full(max_order + 2, -2, dtype=np.int64)
            if lookup is not None:
                grown[: len(lookup)] = lookup
            lookup = grown
            self._threshold_arrays[key] = lookup
        for order in extended_orders[lookup[extended_orders] == -2].tolist():
            lookup[order] = self.acceptance_threshold(tau_hat, gamma, order)
        return lookup

    # ------------------------------------------------------------------ #
    # posterior strategies: dense tables vs direct pair evaluation
    # ------------------------------------------------------------------ #
    def _use_tables(self, tau_hat: int, needed_orders: List[int], num_scored: int) -> bool:
        """Whether filling table rows beats direct evaluation for this call.

        A missing ``(τ̂, |V'1|)`` row costs ``|V'1| + 1`` scalar posterior
        evaluations; direct evaluation costs at most one per scored cell.
        Rows pay off when their one-time cost is within
        ``_TABLE_COST_FACTOR`` times the direct work — always true for
        serving-sized databases, never for one-shot large-τ̂ queries over a
        handful of graphs (the paper-experiment shape).
        """
        # Hot path: once every needed row exists the answer can never flip
        # back (tables only grow), so the scan is skipped on repeat calls.
        # The key holds the exact order list — different lists never collide.
        ready_key = (tau_hat, tuple(needed_orders))
        if ready_key in self._tables_ready:
            return True
        if len(self._tables_ready) > 512:
            self._tables_ready = set()  # bound the memo like the sibling caches
        missing = sum(
            order + 1
            for order in needed_orders
            if (tau_hat, max(order, 1)) not in self._tables
        )
        if missing == 0:
            self._tables_ready.add(ready_key)
        return missing <= _TABLE_COST_FACTOR * num_scored

    def _posteriors_direct(
        self, tau_hat: int, orders: np.ndarray, gbds: np.ndarray
    ) -> np.ndarray:
        """Posteriors for exactly the distinct ``(|V'1|, ϕ)`` pairs present.

        Never evaluates a pair the per-pair reference loop would not have
        evaluated; repeated pairs (across graphs, queries, and calls) are
        served from the idempotent pair cache.  Values come from the same
        :meth:`GBDAEstimator.posterior` as the table rows — bit-identical
        either way.
        """
        if orders.size == 0:
            return np.zeros(orders.shape, dtype=np.float64)
        base = int(orders.max()) + 2  # gbd <= order < base, so codes are unique
        codes = (orders.astype(np.int64) * base + gbds).ravel()
        unique_codes, inverse = np.unique(codes, return_inverse=True)
        cache = self._pair_cache
        posterior = self.estimator.posterior
        values = np.empty(len(unique_codes), dtype=np.float64)
        for slot, code in enumerate(unique_codes.tolist()):
            order, gbd = divmod(code, base)
            key = (tau_hat, order, gbd)
            value = cache.get(key)
            if value is None:
                value = posterior(gbd, tau_hat, order)
                cache[key] = value
            values[slot] = value
        return values[inverse].reshape(orders.shape)

    def _published_table(
        self, registry: Dict, registry_key, tau_hat: int, needed_orders: List[int], derive, dtype
    ) -> np.ndarray:
        """Return a published lookup matrix covering ``needed_orders``.

        Row ``order`` holds ``derive(posterior_vector(τ̂, order))``.  Fast
        path: the current ``(matrix, filled)`` publication already covers
        every needed row — return it without locking (the frozenset travels
        with the exact matrix it describes, so the pair can never be torn).
        Slow path: take the writer lock, copy-and-extend, fill the missing
        rows, and publish a new pair.  Rows are only ever read after
        appearing in a publication's frozenset, so in-place fills before
        publishing are invisible.
        """
        max_order = max(needed_orders) if needed_orders else 1
        published = registry.get(registry_key)
        if published is not None:
            matrix, filled = published
            if matrix.shape[0] > max_order and filled.issuperset(needed_orders):
                return matrix
        with self._table_lock:
            matrix, filled = registry.get(registry_key, (None, frozenset()))
            missing = [order for order in needed_orders if order not in filled]
            if matrix is None or matrix.shape[0] <= max_order:
                grown = np.zeros((max_order + 1, max_order + 2), dtype=dtype)
                if matrix is not None:
                    grown[: matrix.shape[0], : matrix.shape[1]] = matrix
                matrix = grown
            for order in missing:
                vector = self.posterior_vector(tau_hat, order)
                matrix[order, : len(vector)] = derive(vector)
            registry[registry_key] = (matrix, filled | set(missing))
            return matrix

    def _lut_for(self, tau_hat: int, needed_orders: List[int]) -> np.ndarray:
        """``lut[order, gbd]`` posterior matrix for τ̂ (rows as needed)."""
        return self._published_table(
            self._luts, tau_hat, tau_hat, needed_orders, lambda vector: vector, np.float64
        )

    def _bound_lut_for(self, tau_hat: int, needed_orders: List[int]) -> np.ndarray:
        """``lut[order, ϕ] = max posterior over GBD >= ϕ`` for τ̂ (rows as needed).

        Read at a GBD *lower bound* it upper-bounds the true posterior: the
        admissible bound of top-k early termination.
        """
        return self._published_table(
            self._bound_luts,
            tau_hat,
            tau_hat,
            needed_orders,
            lambda vector: np.maximum.accumulate(vector[::-1])[::-1],
            np.float64,
        )

    # ------------------------------------------------------------------ #
    # Steps 2–4 of Algorithm 1: one pipeline, two reducers
    # ------------------------------------------------------------------ #
    def _open(self, query: SimilarityQuery, query_branches: Optional[Counter], call_rows: int = 1):
        """First steps of every path: one snapshot, the query's orders, tables or direct.

        Returns ``(branches, store, snapshot, extended, needed_orders,
        use_tables)``.  ``snapshot`` is the store's coherent ``(csr,
        db_orders, global_ids)`` view: a concurrent database addition becomes
        visible between queries, never mid-computation.  ``extended`` is
        ``max(|V_Q|, |V_G|)`` per distinct ``|V_G|`` of the snapshot and
        ``needed_orders`` the same as a list — the lookup-table rows the query
        can touch.  ``use_tables`` is the tables-vs-direct posterior choice
        (:meth:`_use_tables`), consulted here and nowhere else; the direct work
        table rows are weighed against is that of the whole call, the
        ``call_rows`` queries of an :meth:`execute_batch`.
        """
        self.validate_tau(query.tau_hat)
        branches = query.branches() if query_branches is None else query_branches
        store = self.ensure_index().store
        snapshot = store.view()
        distinct = store.order_partition(snapshot[0])[0]
        extended = np.maximum(query.query_graph.num_vertices, distinct)
        needed_orders = extended.tolist()
        use_tables = self._use_tables(query.tau_hat, needed_orders, call_rows * len(snapshot[1]))
        return branches, store, snapshot, extended, needed_orders, use_tables

    def _threshold(
        self,
        query: SimilarityQuery,
        query_branches: Optional[Counter],
        use_pruning: bool,
        bounded: bool,
        call_rows: int = 1,
    ) -> CandidateScores:
        """One query through the pipeline, reduced by the γ threshold.

        With ``bounded`` the ``(τ̂, γ)`` acceptance rule is inverted into a
        per-order max-acceptable-GBD threshold (:meth:`acceptance_threshold`,
        further capped by the branch bound ``2 τ̂`` when ``use_pruning`` is
        on), and every candidate whose GBD *lower bound* exceeds it is
        eliminated with O(1) arithmetic before any postings traversal — once
        per *distinct* ``|V_G|``, since the bound depends on a row only
        through its order.  The same store call
        (:meth:`ColumnarBranchStore.filter_verify_row`) verifies the
        survivors, by block probes or one dense walk, and compares their
        posteriors with γ: it returns the accepted rows, and all that is left
        here is their ids and scores.  Without ``bounded`` — or on the direct
        side of the tables choice, a one-shot workload where inverting the
        thresholds would cost more posterior evaluations than it saves —
        every order is eligible: verification is the dense row and the
        reducer keeps every posterior.
        """
        started = time.perf_counter()
        branches, store, snapshot, extended, needed_orders, use_tables = self._open(
            query, query_branches, call_rows
        )
        csr, db_orders, global_ids = snapshot
        tau_hat, gamma = query.tau_hat, query.gamma
        num_query_vertices = query.query_graph.num_vertices
        num_rows = len(db_orders)
        if bounded and use_tables:
            thresholds, lut = self._pruned_thresholds(query, extended, use_pruning)
            hits, gbds, _eligible, verified, sparse = store.filter_verify_row(
                num_query_vertices,
                branches,
                thresholds,
                lut,
                gamma,
                max_gbd_for_ged(tau_hat) if use_pruning else None,
                view=(csr, num_rows),
            )
            # A query whose every row fell to the bound ran neither plan.
            self._count(num_rows, num_rows - verified, verified, sparse=sparse)
            _record_stage("bound_filter", started)
            started = time.perf_counter()
            ids = global_ids[hits]
            orders = np.maximum(num_query_vertices, db_orders[hits])
            scores = lut.take(orders * lut.shape[1] + gbds)
            scored = CandidateScores(
                ids, accepted_items=(ids.tolist(), scores.tolist()), positions=hits
            )
            _record_stage("score_dense" if sparse is False else "verify", started)
            return scored
        intersections = store.intersection_row(branches, view=(csr, num_rows))
        self._count(num_rows, 0, num_rows, sparse=False)
        orders = self._orders_row(db_orders, num_query_vertices)
        gbds = orders - intersections
        if use_tables:
            lut = self._lut_for(tau_hat, needed_orders)
            posteriors = lut.take(orders * lut.shape[1] + gbds)
        else:
            posteriors = self._posteriors_direct(tau_hat, orders, gbds)
        accepted = posteriors >= gamma
        within_branch_bound = None
        if use_pruning:
            within_branch_bound = gbds <= max_gbd_for_ged(tau_hat)
            accepted &= within_branch_bound
        scored = CandidateScores(global_ids, gbds, posteriors, accepted, within_branch_bound)
        _record_stage("score_dense", started)
        return scored

    def execute(
        self,
        query: SimilarityQuery,
        *,
        query_branches: Optional[Counter] = None,
        use_pruning: bool = False,
    ) -> CandidateScores:
        """Score one query against every database graph; keep every posterior."""
        return self._threshold(query, query_branches, use_pruning, bounded=False)

    def execute_pruned(
        self,
        query: SimilarityQuery,
        *,
        query_branches: Optional[Counter] = None,
        use_pruning: bool = False,
    ) -> CandidateScores:
        """Filter-and-verify form of :meth:`execute` for accepted-only callers.

        Accepted sets and scores are bit-identical to :meth:`execute` (and
        hence to ``query_reference``); per-candidate posteriors are *not*
        materialised, so the result is meant for consumers of
        :attr:`CandidateScores.accepted_items` — see :meth:`_threshold`.
        """
        return self._threshold(query, query_branches, use_pruning, bounded=True)

    def execute_batch(
        self,
        queries: Sequence[SimilarityQuery],
        *,
        query_branches: Optional[Sequence[Counter]] = None,
        use_pruning: bool = False,
        need: str = "full",
        pruned: bool = False,
    ) -> List[CandidateScores]:
        """Score a batch of queries; return per-query results in input order.

        A row is a batch of one: each query goes through the same pipeline
        as a single call — :meth:`execute_pruned`'s when the caller is
        ``pruned`` and only needs the accepted graphs' scores
        (``need="accepted"``), :meth:`execute`'s otherwise — so answers,
        filter counters and per-row stage histograms are those of the
        per-query loop.  Every τ̂ is validated before any row is scored.
        Under an active trace (a sampled flush) the rows' stage durations are
        folded by stage name into one span per stage, laid end to end from
        the start of the call: the flush's waterfall, not 2 × rows spans.
        """
        queries = list(queries)
        for query in queries:
            self.validate_tau(query.tau_hat)
        if query_branches is None:
            query_branches = [None] * len(queries)
        bounded = pruned and need == "accepted"
        trace = active_trace()
        rows_trace = None if trace is None else QueryTrace()
        started = time.perf_counter()
        with activated(rows_trace):
            results = [
                self._threshold(query, branches, use_pruning, bounded, len(queries))
                for query, branches in zip(queries, query_branches)
            ]
        if trace is not None:
            offset = started - trace.started_at
            for name, seconds in rows_trace.stage_seconds(depth=1).items():
                trace.add(name, seconds, depth=1, offset=offset)
                offset += seconds
        return results

    def execute_topk(
        self,
        query: SimilarityQuery,
        k: int,
        *,
        query_branches: Optional[Counter] = None,
        use_pruning: bool = False,
    ) -> List[Tuple[int, float]]:
        """Rank the database by posterior; return the top ``k`` (id, Φ) pairs.

        The ranking is exactly the first ``k`` entries of the full γ=0
        scoring sorted by ``(-posterior, graph id)`` — deterministic under
        ties.  One store call (:meth:`ColumnarBranchStore.filter_verify_topk
        <repro.db.columnar.ColumnarBranchStore.filter_verify_topk>`) is the
        whole pass, bound → ordered candidates → verify → reduce: each
        distinct ``|V_G|`` gets a posterior *upper* bound from its GBD lower
        bound (:meth:`_bound_lut_for`), whole order groups are verified in
        descending bound order — by block probes, or from one dense walk once
        probing would cost as much — and offered to a k-best heap whose k-th
        score cuts off the groups no longer in reach; nothing ``D`` long is
        built here.  On the direct side of the tables choice (a one-shot
        workload) every row is scored and reduced once.  With ``use_pruning``
        the ranking covers only the branch-bound candidate set (``GBD <= 2 τ̂``).
        """
        started = time.perf_counter()
        branches, store, snapshot, _extended, needed_orders, use_tables = self._open(
            query, query_branches
        )
        k = int(k)
        if k < 1:
            raise self.error_class("top_k must be a positive integer")
        csr, db_orders, global_ids = snapshot
        num_rows = len(db_orders)
        if num_rows == 0:
            return []
        num_query_vertices = query.query_graph.num_vertices
        tau_hat = query.tau_hat
        # The branch-bound cap on a ranked row's GBD (``use_pruning`` only).
        cap = max_gbd_for_ged(tau_hat) if use_pruning else None
        view = (csr, num_rows)
        if use_tables:
            ids, scores, verified, sparse = store.filter_verify_topk(
                num_query_vertices,
                branches,
                self._lut_for(tau_hat, needed_orders),
                self._bound_lut_for(tau_hat, needed_orders),
                cap,
                k,
                view=view,
            )
        else:
            # One-shot workload: score everything directly, reduce once.
            orders_row = self._orders_row(db_orders, num_query_vertices)
            gbds = orders_row - store.intersection_row(branches, view=view)
            posteriors = self._posteriors_direct(tau_hat, orders_row, gbds)
            rows = gbds <= cap if use_pruning else slice(None)
            ids, scores = numpy_impl.k_best(global_ids[rows], posteriors[rows], k)
            verified, sparse = num_rows, False
        # A query none of whose order groups was ranked in ran neither plan.
        self._count(num_rows, num_rows - verified, verified, sparse=sparse)
        _record_stage("topk", started)
        return _ranked(ids, scores)

    def warm(
        self, tau_hats: Iterable[int], extended_orders: Optional[Iterable[int]] = None
    ) -> int:
        """Pre-compute posterior vectors ahead of traffic; return the table count.

        ``extended_orders`` defaults to the distinct vertex counts present
        in the database — the exact orders hit by queries no larger than the
        largest stored graph; larger queries extend the tables lazily.
        """
        if extended_orders is None:
            extended_orders = sorted({entry.num_vertices for entry in self.database})
        orders = list(extended_orders)
        for tau_hat in tau_hats:
            self.validate_tau(tau_hat)
            for order in orders:
                self.posterior_vector(tau_hat, order)
        return len(self._tables)

    def __repr__(self) -> str:
        return (
            f"<ExecutionCore |D|={len(self.database)} max_tau={self.max_tau} "
            f"tables={len(self._tables)} index={'built' if self._index else 'lazy'}>"
        )
