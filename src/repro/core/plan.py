"""Unified query-execution core for the online stage of Algorithm 1.

Steps 2–4 of Algorithm 1 (GBD computation, posterior lookup, γ-thresholding)
used to be implemented twice — once as the per-pair Python loop of
:meth:`~repro.core.search.GBDASearch.query` and again, vectorized, in the
serving engine's ``_score``.  :class:`ExecutionCore` implements them exactly
once:

* **candidate generation** — all GBDs come from the columnar branch index
  (:meth:`~repro.db.index.BranchInvertedIndex.gbd_array` /
  :meth:`~repro.db.index.BranchInvertedIndex.gbd_matrix`), with the optional
  branch lower-bound filter (``GBD > 2 τ̂`` ⇒ ``GED > τ̂``) applied as a
  mask instead of a separate scan — the pruned path no longer recomputes
  any GBD;
* **posterior lookup** — two interchangeable, bit-identical strategies,
  chosen per call by estimated cost.  *Tables*: dense ``(τ̂, |V'1|)``
  posterior vectors from :meth:`GBDAEstimator.posterior_row` (each entry is
  the scalar :meth:`GBDAEstimator.posterior`), stacked into order-indexed
  lookup matrices plus, per ``(τ̂, γ)``, boolean acceptance matrices — one
  fancy index classifies a whole GBD matrix.  *Direct*: evaluate only the
  distinct ``(GBD, |V'1|)`` pairs actually present (cached across queries)
  — never worse than the per-pair loop, which keeps one-shot workloads
  with large τ̂ and few graphs fast while serving workloads amortise the
  tables;
* **γ-thresholding** — one vectorized comparison (or the acceptance matrix
  directly).

:meth:`execute` scores one query and returns dense per-graph results;
:meth:`execute_batch` scores a τ̂/γ-sorted batch through one ``(Q, D)``
intersection pass and contiguous group views, optionally skipping the full
posterior materialisation when the caller only needs accepted graphs and
their scores (``need="accepted"`` — the serving engine's default mode).

On top of these sits the **pruned filter-and-verify layer**
(:meth:`execute_pruned` and the ``pruned=True`` batch mode): the ``(τ̂,
γ)`` acceptance rule is inverted into a per-order max-acceptable-GBD
threshold (:meth:`acceptance_threshold`), candidates whose GBD *lower
bound* — computed from per-graph norms in O(1) each — exceeds it are
eliminated before any postings traversal, and a selectivity cost model
picks dense or sparse index-driven verification for the survivors.
:meth:`execute_topk` ranks by posterior with bound-based early
termination.  All pruned paths return bit-identical accepted sets and
scores; :class:`FilterCounters` tracks their effectiveness.

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
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.core.estimator import GBDAEstimator
from repro.core.gbd import max_gbd_for_ged
from repro.db.database import GraphDatabase
from repro.db.index import BranchInvertedIndex
from repro.db.query import SimilarityQuery
from repro.exceptions import SearchError
from repro.obs.metrics import DEFAULT_RATIO_BUCKETS, get_registry
from repro.obs.trace import active_trace

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
_STAGE_SCORE_DENSE = _STAGE_SECONDS.labels(stage="score_dense")
_STAGE_BOUND_FILTER = _STAGE_SECONDS.labels(stage="bound_filter")
_STAGE_VERIFY = _STAGE_SECONDS.labels(stage="verify")
_STAGE_BATCH_SCORE = _STAGE_SECONDS.labels(stage="batch_score")
_STAGE_TOPK = _STAGE_SECONDS.labels(stage="topk")
_PLAN_DENSE = _PLAN_CHOICES.labels(plan="dense")
_PLAN_SPARSE = _PLAN_CHOICES.labels(plan="sparse")
_SELECTIVITY_DENSE = _PLAN_SELECTIVITY.labels(plan="dense")
_SELECTIVITY_SPARSE = _PLAN_SELECTIVITY.labels(plan="sparse")


def _record_stage(stage_child, name: str, started: float) -> None:
    """Observe one stage's duration and mirror it into the active trace.

    Core stages land at depth 1 of the batch-level trace the engine
    activates (see :mod:`repro.obs.trace`), nesting under the engine's own
    depth-0 spans when grafted into a sampled query's waterfall.
    """
    seconds = time.perf_counter() - started
    stage_child.observe(seconds)
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

#: Selectivity bar of the pruned-execution cost model: the sparse,
#: index-driven candidate generation ((key, order)-block probes and
#: compacted bincounts) wins only when the bound filter leaves at most
#: ``D / _SPARSE_COST_FACTOR`` candidates; above that the dense kernels'
#: contiguous memory traffic amortises better than per-block gathers.
_SPARSE_COST_FACTOR = 8

#: The same bar under the compiled kernel backend.  The fused C filter-verify
#: call has no per-stage allocation or numpy dispatch overhead, so the sparse
#: plan stays profitable up to twice the candidate volume — the bar only
#: decides plan choice, never answers.
_SPARSE_COST_FACTOR_NATIVE = 4

#: First chunk of the top-k verification loop, doubled every round: candidates
#: are verified in upper-bound order, so the loop can stop as soon as the k-th
#: best verified posterior dominates every remaining bound.
_TOPK_CHUNK = 512

#: How many repeat queries of one (τ̂, γ, |V_Q|, snapshot) shape reuse a
#: memoized dense-plan decision before the selectivity estimate is re-run —
#: bounds the damage of one unusually broad query poisoning its shape.
_DENSE_SIGNATURE_TTL = 32


def _k_best(kept, ids: np.ndarray, scores: np.ndarray, k: int):
    """Fold scored rows into ``kept``: the first ``k`` under ``(-score, id)``, unsorted.

    Top-k's reducer; exact chunk by chunk because the ranking is a prefix of
    a total order.  The k-th score comes from a full sort: ``np.partition``
    degenerates when one score dominates (a store of uniform sizes) — 0.7 ms
    against 0.04 ms for the SIMD sort on 40 000 scores.
    """
    ids = np.concatenate((kept[0], ids))
    scores = np.concatenate((kept[1], scores))
    if len(ids) <= k:
        return ids, scores
    kth_score = np.sort(scores)[-k]
    keep = np.flatnonzero(scores > kth_score)
    tied = np.flatnonzero(scores == kth_score)
    short = k - len(keep)  # places left for the smallest ids among the tied
    keep = np.concatenate((keep, tied[np.argpartition(ids[tied], short - 1)[:short]]))
    return ids[keep], scores[keep]


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
        return {
            "candidates_generated": self.candidates_generated,
            "candidates_pruned": self.candidates_pruned,
            "candidates_verified": self.candidates_verified,
            "dense_passes": self.dense_passes,
            "sparse_passes": self.sparse_passes,
            "prune_rate": self.prune_rate,
        }


@dataclass
class CandidateScores:
    """Dense per-position output of one query's online stage.

    All arrays are aligned on store positions; ``graph_ids`` maps positions
    to global database ids (the identity for an unsharded database).
    """

    graph_ids: np.ndarray
    gbds: np.ndarray
    #: Per-position posteriors, or ``None`` when the caller asked for the
    #: accepted-only fast path (``need="accepted"``) — the accepted graphs'
    #: posteriors are then in :attr:`accepted_items`.
    posteriors: Optional[np.ndarray]
    accepted: np.ndarray
    #: Boolean survival mask of the branch lower-bound filter, or ``None``
    #: when pruning was off (every graph was scored).
    eligible: Optional[np.ndarray]
    #: Pre-extracted accepted (ids, posteriors) lists, filled by the batched
    #: path (one group-level ``nonzero`` instead of per-query scans).
    accepted_items: Optional[Tuple[List[int], List[float]]] = None
    #: Store positions of the rows the arrays cover, or ``None`` when they
    #: span the whole store.  The pruned filter-and-verify paths materialise
    #: arrays only for bound-surviving candidates and record them here;
    #: their consumers read :attr:`accepted_items` / :meth:`accepted_id_set`.
    positions: Optional[np.ndarray] = None

    def candidate_positions(self) -> np.ndarray:
        """Positions that were actually scored (all, unless pruning masked some)."""
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
        if which == "accepted":
            if self.accepted_items is not None:
                return dict(zip(*self.accepted_items))
            positions = np.flatnonzero(self.accepted)
        else:
            positions = self.candidate_positions()
        if self.posteriors is None:
            raise ValueError(
                "per-candidate posteriors were not materialised "
                "(scored with need='accepted')"
            )
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
        when a pre-built ``index`` is supplied.  Plan choice adapts to the
        resolved backend (the fused native kernels move the sparse/dense
        cost bar), but answers never depend on it.
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
        # Published (matrix, frozen filled-order set) pairs per τ̂ (resp.
        # per (τ̂, γ) for the boolean acceptance variants) — see the module
        # docstring for the concurrency protocol.
        self._luts: Dict[int, _Table] = {}
        self._bound_luts: Dict[int, _Table] = {}  # top-k suffix-max bounds
        self._accept_luts: Dict[Tuple[int, float], _Table] = {}
        self._table_lock = threading.Lock()
        # Direct-evaluation cache: (τ̂, |V'1|, ϕ) -> posterior.  Writes are
        # idempotent (same float recomputed), so no lock is needed.
        self._pair_cache: Dict[Tuple[int, int, int], float] = {}
        # Memo of _use_tables calls that found every row already filled —
        # tables only ever grow, so a fully-covered verdict stays true.
        self._tables_ready: set = set()
        # (τ̂, γ, |V_Q|, snapshot) signatures whose cost model chose the
        # dense plan — repeat queries of the same shape skip the bound
        # estimation (plan choice never affects answers).  Each entry is a
        # countdown: the estimate is re-run periodically, so one broad query
        # cannot permanently disable pruning for selective queries that
        # merely share its shape.
        self._dense_signatures: Dict[Tuple, int] = {}
        # (snapshot's order vector, {key: D-length row derived from it}) of
        # the snapshot last seen — see _row_memo.
        self._snapshot_rows: Tuple[Optional[np.ndarray], Dict] = (None, {})
        # (τ̂, γ, |V_Q|, |distinct|, pruning) -> (extended, capped threshold)
        # vector pairs of the pruned path — see _pruned_thresholds.
        self._pruned_thresholds_cache: Dict[Tuple, Tuple[np.ndarray, np.ndarray]] = {}
        # γ-threshold inversion cache: (τ̂, γ) -> {order: max acceptable GBD}.
        # Entries are idempotent (derived from the posterior vectors), so no
        # lock is needed; see acceptance_threshold.
        self._gbd_thresholds: Dict[Tuple[int, float], Dict[int, int]] = {}
        # Dense order-indexed form of the same inversion (hot-path lookup);
        # -2 marks a not-yet-inverted order, filled idempotently on demand.
        self._threshold_arrays: Dict[Tuple[int, float], np.ndarray] = {}
        #: Cumulative filter-effectiveness counters across every query this
        #: core answered (updated under a dedicated lock; see FilterCounters).
        self.filter_counters = FilterCounters()
        self._counter_lock = threading.Lock()
        # Bounded per-(τ̂, γ) selectivity observations: running totals of
        # generated/bound-surviving cells and plan choices per parameter
        # shape — the feed a learned self-tuning execution layer will train
        # on (see selectivity_report).  Plain picklable data.
        self._selectivity_obs: Dict[Tuple[int, float], Dict[str, float]] = {}

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
            self._index = BranchInvertedIndex(
                self.database, backend=getattr(self, "kernel_backend", "auto")
            )
        return self._index

    def _sparse_cost_factor(self) -> int:
        """Selectivity divisor of the sparse-vs-dense plan choice.

        Resolved once from the store's kernel backend (the fused native
        kernels keep the sparse plan profitable at twice the candidate
        volume) and cached as a plain int — the cache rides along when the
        core is pickled into pool workers.
        """
        factor = getattr(self, "_sparse_factor", None)
        if factor is None:
            backend = self.ensure_index().store.backend
            factor = (
                _SPARSE_COST_FACTOR_NATIVE
                if backend == "native"
                else _SPARSE_COST_FACTOR
            )
            self._sparse_factor = factor
        return factor

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
    def _row_memo(self, db_orders: np.ndarray) -> Dict:
        """Memo of the D-length rows derived from one store snapshot.

        Keyed on the identity of the snapshot's order vector (one object per
        published snapshot, held here so its id cannot be recycled): the
        first call that sees a new snapshot drops the rows of the superseded
        one, so a write stream never strands dead rows.  Entries are
        idempotent, so threads racing on one snapshot — or briefly replacing
        each other's memo across two — only ever recompute.
        """
        memo = self._snapshot_rows
        if memo[0] is not db_orders:
            memo = self._snapshot_rows = (db_orders, {})
        return memo[1]

    def _orders_row(self, db_orders: np.ndarray, num_query_vertices: int) -> np.ndarray:
        """Cached dense ``max(|V_Q|, |V_G|)`` row for one query size."""
        memo = self._row_memo(db_orders)
        row = memo.get(num_query_vertices)
        if row is None:
            if len(memo) > 256:
                memo.clear()
            row = memo[num_query_vertices] = np.maximum(num_query_vertices, db_orders)
        return row

    def _order_codes(self, db_orders: np.ndarray, distinct: np.ndarray) -> np.ndarray:
        """Cached ``position -> index into distinct orders`` map of a snapshot."""
        memo = self._row_memo(db_orders)
        codes = memo.get("codes")
        if codes is None:
            codes = memo["codes"] = np.searchsorted(distinct, db_orders)
        return codes

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
        if sparse is True:
            _PLAN_SPARSE.inc()
            if generated:
                _SELECTIVITY_SPARSE.observe(verified / generated)
        elif sparse is False:
            _PLAN_DENSE.inc()
            if generated:
                _SELECTIVITY_DENSE.observe(verified / generated)

    def _observe_selectivity(
        self, tau_hat: int, gamma: float, generated: int, survived: int, plan: str
    ) -> None:
        """Fold one pruned pass's bound-filter outcome into the (τ̂, γ) store."""
        with self._counter_lock:
            if len(self._selectivity_obs) > 256:
                self._selectivity_obs = {}
            key = (int(tau_hat), float(gamma))
            entry = self._selectivity_obs.get(key)
            if entry is None:
                entry = {"passes": 0, "generated": 0, "survived": 0, "dense": 0, "sparse": 0}
                self._selectivity_obs[key] = entry
            entry["passes"] += 1
            entry["generated"] += int(generated)
            entry["survived"] += int(survived)
            if plan in ("dense", "sparse"):
                entry[plan] += 1

    def selectivity_report(self) -> List[Dict[str, float]]:
        """Observed per-(τ̂, γ) bound-filter selectivity, one row per shape.

        Each row aggregates every pruned pass this core ran at one
        parameter shape: how many (query, graph) cells the bound filter
        saw, how many survived it, and which verification plan the cost
        model picked — exactly the signal a learned plan chooser needs.
        """
        with self._counter_lock:
            items = [(key, dict(entry)) for key, entry in self._selectivity_obs.items()]
        rows = []
        for (tau_hat, gamma), entry in sorted(items):
            generated = entry["generated"]
            rows.append(
                {
                    "tau_hat": tau_hat,
                    "gamma": gamma,
                    "passes": entry["passes"],
                    "generated": generated,
                    "survived": entry["survived"],
                    "selectivity": entry["survived"] / generated if generated else 0.0,
                    "dense_passes": entry["dense"],
                    "sparse_passes": entry["sparse"],
                }
            )
        return rows

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
        Cached per ``(τ̂, γ, |V'1|)`` for the lifetime of the core.
        """
        key = (int(tau_hat), float(gamma))
        per_order = self._gbd_thresholds.setdefault(key, {})
        order = max(int(extended_order), 1)
        threshold = per_order.get(order)
        if threshold is None:
            accepting = np.flatnonzero(
                self.posterior_vector(tau_hat, order) >= float(gamma)
            )
            threshold = int(accepting[-1]) if accepting.size else -1
            per_order[order] = threshold
        return threshold

    def _thresholds_for(
        self, tau_hat: int, gamma: float, extended_orders: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`acceptance_threshold` over an array of orders."""
        return self._threshold_lookup(tau_hat, gamma, extended_orders)[extended_orders]

    def _pruned_thresholds(
        self,
        tau_hat: int,
        gamma: float,
        num_query_vertices: int,
        distinct: np.ndarray,
        use_pruning: bool,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(extended, capped thresholds)`` per-distinct-order pair.

        One query shape ``(τ̂, γ, |V_Q|, pruning)`` over one snapshot always
        produces the same two small vectors, so they are built once and
        reused — and because the *same array objects* recur, the native
        backend's per-array address cache applies to the thresholds too.
        ``len(distinct)`` identifies the distinct-order set: the store is
        append-only, so the set only ever grows.
        """
        cache = getattr(self, "_pruned_thresholds_cache", None)
        if cache is None:
            cache = self._pruned_thresholds_cache = {}
        key = (
            int(tau_hat),
            float(gamma),
            int(num_query_vertices),
            len(distinct),
            bool(use_pruning),
        )
        cached = cache.get(key)
        if cached is None:
            if len(cache) > 256:
                cache.clear()
            extended = np.maximum(num_query_vertices, distinct)
            thresholds = self._thresholds_for(tau_hat, gamma, extended)
            if use_pruning:
                thresholds = np.minimum(thresholds, max_gbd_for_ged(tau_hat))
            cached = (extended, np.ascontiguousarray(thresholds, dtype=np.int64))
            cache[key] = cached
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
        requested = np.asarray(extended_orders, dtype=np.int64)
        for order in requested[lookup[requested] == -2].tolist():
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
        self,
        registry: Dict,
        registry_key,
        needed_orders: List[int],
        fill_row,
        dtype,
    ) -> np.ndarray:
        """Return a published lookup matrix covering ``needed_orders``.

        Fast path: the current ``(matrix, filled)`` publication already
        covers every needed row — return it without locking (the frozenset
        travels with the exact matrix it describes, so the pair can never
        be torn).  Slow path: take the writer lock, copy-and-extend, fill
        the missing rows via ``fill_row(matrix, order)``, and publish a new
        pair.  Rows are only ever read after appearing in a publication's
        frozenset, so in-place fills before publishing are invisible.
        """
        max_order = max(needed_orders) if needed_orders else 1
        published = registry.get(registry_key)
        if published is not None:
            matrix, filled = published
            if matrix.shape[0] > max_order and filled.issuperset(needed_orders):
                return matrix
        with self._table_lock:
            published = registry.get(registry_key)
            if published is None:
                matrix = None
                filled = frozenset()
            else:
                matrix, filled = published
            missing = [order for order in needed_orders if order not in filled]
            if matrix is None or matrix.shape[0] <= max_order:
                grown = np.zeros((max_order + 1, max_order + 2), dtype=dtype)
                if matrix is not None:
                    grown[: matrix.shape[0], : matrix.shape[1]] = matrix
                matrix = grown
            for order in missing:
                fill_row(matrix, order)
            registry[registry_key] = (matrix, filled | set(missing))
            return matrix

    def _lut_for(self, tau_hat: int, needed_orders: List[int]) -> np.ndarray:
        """``lut[order, gbd]`` posterior matrix for τ̂ (rows as needed)."""
        tau_hat = int(tau_hat)

        def fill_row(matrix, order):
            vector = self.posterior_vector(tau_hat, order)
            matrix[order, : len(vector)] = vector

        return self._published_table(self._luts, tau_hat, needed_orders, fill_row, np.float64)

    def _bound_lut_for(self, tau_hat: int, needed_orders: List[int]) -> np.ndarray:
        """``lut[order, ϕ] = max posterior over GBD >= ϕ`` for τ̂ (rows as needed).

        Read at a GBD *lower bound* it upper-bounds the true posterior: the
        admissible bound of top-k early termination.
        """
        tau_hat = int(tau_hat)

        def fill_row(matrix, order):
            vector = self.posterior_vector(tau_hat, order)
            matrix[order, : len(vector)] = np.maximum.accumulate(vector[::-1])[::-1]

        return self._published_table(self._bound_luts, tau_hat, needed_orders, fill_row, np.float64)

    def _accept_lut_for(
        self, tau_hat: int, gamma: float, needed_orders: List[int]
    ) -> np.ndarray:
        """Boolean ``lut[order, gbd] = (Φ >= γ)`` acceptance matrix.

        Derived row-by-row from :meth:`posterior_vector`, so decisions are
        exactly Step 4's ``posterior >= γ`` — but a whole GBD matrix is
        classified by one (cheap, boolean) fancy index without
        materialising its posteriors.
        """
        tau_hat = int(tau_hat)
        gamma = float(gamma)

        def fill_row(matrix, order):
            vector = self.posterior_vector(tau_hat, order)
            matrix[order, : len(vector)] = vector >= gamma

        return self._published_table(
            self._accept_luts, (tau_hat, gamma), needed_orders, fill_row, bool
        )

    # ------------------------------------------------------------------ #
    # Steps 2–4 of Algorithm 1
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: SimilarityQuery,
        *,
        query_branches: Optional[Counter] = None,
        use_pruning: bool = False,
    ) -> CandidateScores:
        """Score one query against every database graph; return dense results."""
        self.validate_tau(query.tau_hat)
        started = time.perf_counter()
        graph = query.query_graph
        branches = query.branches() if query_branches is None else query_branches
        store = self.ensure_index().store
        # One coherent snapshot per query: a concurrent database addition
        # becomes visible between queries, never mid-computation.
        csr, db_orders, global_ids = store.view()
        num_query_vertices = graph.num_vertices
        orders = self._orders_row(db_orders, num_query_vertices)
        gbds = orders - store.intersection_row(branches, view=(csr, len(db_orders)))
        needed_orders = np.maximum(
            num_query_vertices, store.order_partition(csr)[0]
        ).tolist()
        if self._use_tables(query.tau_hat, needed_orders, len(gbds)):
            lut = self._lut_for(query.tau_hat, needed_orders)
            posteriors = lut.take(orders * lut.shape[1] + gbds)
        else:
            posteriors = self._posteriors_direct(query.tau_hat, orders, gbds)
        eligible = gbds <= max_gbd_for_ged(query.tau_hat) if use_pruning else None
        accepted = posteriors >= query.gamma
        if eligible is not None:
            accepted &= eligible
        self._count(len(gbds), 0, len(gbds), sparse=False)
        _record_stage(_STAGE_SCORE_DENSE, "score_dense", started)
        return CandidateScores(global_ids, gbds, posteriors, accepted, eligible)

    def execute_pruned(
        self,
        query: SimilarityQuery,
        *,
        query_branches: Optional[Counter] = None,
        use_pruning: bool = False,
    ) -> CandidateScores:
        """Filter-and-verify variant of :meth:`execute` for accepted-only callers.

        The ``(τ̂, γ)`` acceptance rule is inverted into a per-order
        max-acceptable-GBD threshold (:meth:`acceptance_threshold`, further
        capped by the branch bound ``2 τ̂`` when ``use_pruning`` is on), and
        every candidate whose GBD *lower bound* exceeds it is eliminated
        with O(1) arithmetic before any postings traversal.  The bound is
        the per-graph-norm math of
        :meth:`ColumnarBranchStore.gbd_lower_bound_row`, evaluated once per
        *distinct* ``|V_G|`` (it depends on the row only through its order)
        rather than per row.  Survivors are verified exactly, through either
        the dense intersection pass or the sparse index-driven kernels —
        whichever the selectivity cost model predicts cheaper.  Accepted
        sets and scores are bit-identical to :meth:`execute` (and hence to
        ``query_reference``); per-candidate posteriors are *not*
        materialised, so the result carries :attr:`CandidateScores.positions`
        and is meant for ``need="accepted"`` consumers.
        """
        self.validate_tau(query.tau_hat)
        branches = query.branches() if query_branches is None else query_branches
        store = self.ensure_index().store
        csr, db_orders, global_ids = store.view()
        num_rows = len(db_orders)
        num_query_vertices = query.query_graph.num_vertices
        tau_hat, gamma = query.tau_hat, query.gamma
        signature = (tau_hat, gamma, num_query_vertices, num_rows)
        remaining = self._dense_signatures.get(signature)
        if remaining is not None:
            if remaining > 0:
                # Lost updates between racing threads only stretch the TTL.
                self._dense_signatures[signature] = remaining - 1
                return self.execute(
                    query, query_branches=branches, use_pruning=use_pruning
                )
            # Countdown expired: drop and re-estimate (pop, not del — a
            # racing thread may have removed the entry already).
            self._dense_signatures.pop(signature, None)
        distinct = store.order_partition(csr)[0]
        extended = np.maximum(num_query_vertices, distinct)
        if not self._use_tables(tau_hat, extended.tolist(), num_rows):
            # One-shot workload: inverting the thresholds would cost more
            # posterior evaluations than it saves — score directly.
            return self.execute(query, query_branches=branches, use_pruning=use_pruning)
        filter_started = time.perf_counter()
        # Step 4 inverted: per distinct extended order, the largest GBD an
        # accepted graph may have (and, with pruning, may survive at all).
        # The cached pair keeps the array objects stable across repeat query
        # shapes, which the native backend's address cache feeds on.
        extended, thresholds = self._pruned_thresholds(
            tau_hat, gamma, num_query_vertices, distinct, use_pruning
        )

        # Fused filter-and-verify: one store call decides per-distinct-order
        # eligibility with O(1) bound arithmetic, applies the selectivity bar
        # (at most D / cost-factor survivors — above that the dense plan's
        # contiguous traffic wins), and computes the survivors' exact
        # intersections through the (key, order)-block index without ever
        # reading a pruned row's postings.  On the native backend the whole
        # sequence is a single C call with no intermediates.
        max_candidates = num_rows // self._sparse_cost_factor()
        positions, intersections, eligible_orders, num_eligible = store.filter_verify_row(
            num_query_vertices,
            branches,
            thresholds,
            max_candidates,
            view=(csr, num_rows),
        )
        if num_eligible == 0:
            self._count(num_rows, num_rows, 0)
            self._observe_selectivity(tau_hat, gamma, num_rows, 0, "sparse")
            _record_stage(_STAGE_BOUND_FILTER, "bound_filter", filter_started)
            empty = np.empty(0, dtype=np.int64)
            return CandidateScores(
                empty,
                empty,
                None,
                np.empty(0, dtype=bool),
                None,
                accepted_items=([], []),
                positions=empty,
            )
        if positions is None:
            # Low selectivity: compacted verification would cost more than
            # it saves — the plain dense pass is the better plan.  Remember
            # the shape so its next repeats skip the estimation too.
            if len(self._dense_signatures) > 4096:
                self._dense_signatures = {}
            self._dense_signatures[signature] = _DENSE_SIGNATURE_TTL
            self._observe_selectivity(tau_hat, gamma, num_rows, num_eligible, "dense")
            _record_stage(_STAGE_BOUND_FILTER, "bound_filter", filter_started)
            return self.execute(query, query_branches=branches, use_pruning=use_pruning)
        self._count(num_rows, num_rows - num_eligible, num_eligible, sparse=True)
        self._observe_selectivity(tau_hat, gamma, num_rows, num_eligible, "sparse")
        _record_stage(_STAGE_BOUND_FILTER, "bound_filter", filter_started)
        verify_started = time.perf_counter()

        sub_orders = np.maximum(num_query_vertices, db_orders[positions])
        sub_gbds = sub_orders - intersections

        accept_orders = extended[eligible_orders].tolist()
        accept_lut = self._accept_lut_for(tau_hat, gamma, accept_orders)
        accepted = accept_lut.take(sub_orders * accept_lut.shape[1] + sub_gbds)
        if use_pruning:
            accepted &= sub_gbds <= max_gbd_for_ged(tau_hat)

        hits = np.flatnonzero(accepted)
        sub_ids = global_ids[positions]
        if hits.size:
            lut = self._lut_for(tau_hat, np.unique(sub_orders[hits]).tolist())
            hit_posteriors = lut[sub_orders[hits], sub_gbds[hits]].tolist()
        else:
            hit_posteriors = []
        _record_stage(_STAGE_VERIFY, "verify", verify_started)
        return CandidateScores(
            sub_ids,
            sub_gbds,
            None,
            accepted,
            None,
            accepted_items=(sub_ids[hits].tolist(), hit_posteriors),
            positions=positions,
        )

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

        True batching: the ``(Q, D)`` intersection matrix is produced by one
        columnar pass (τ̂-independent), queries are processed in τ̂/γ-sorted
        order so every ``(τ̂, γ)`` group is a contiguous *view* sharing one
        lookup table, and all accepted pairs of a group are extracted with a
        single ``nonzero`` scan.  With ``need="accepted"`` the boolean
        acceptance tables classify the whole matrix directly and posteriors
        are materialised only for accepted graphs — the serving engine's
        default mode; ``need="full"`` keeps dense per-graph posteriors.
        With ``pruned=True`` (accepted-only callers), each ``(τ̂, γ)`` group
        additionally runs the filter-and-verify bound elimination of
        :meth:`execute_pruned` before its intersections are computed.
        Accepted sets and scores are identical to calling :meth:`execute`
        per query every way.
        """
        queries = list(queries)
        for query in queries:
            self.validate_tau(query.tau_hat)
        if query_branches is None:
            query_branches = [query.branches() for query in queries]
        if pruned and need == "accepted" and queries:
            return self._execute_batch_pruned(queries, query_branches, use_pruning)
        started = time.perf_counter()
        store = self.ensure_index().store
        # One coherent snapshot for the whole batch (see execute()).
        csr, db_orders, global_ids = store.view()
        distinct_orders = store.order_partition(csr)[0]

        # Sort by (τ̂, γ) so each parameter group is a contiguous slice —
        # group operations below are views, never fancy-index copies.
        sorted_positions = sorted(
            range(len(queries)), key=lambda i: (queries[i].tau_hat, queries[i].gamma)
        )

        # Step 2 for the whole batch at once.
        vertices = [queries[i].query_graph.num_vertices for i in sorted_positions]
        intersections = store.intersection_matrix(
            [query_branches[i] for i in sorted_positions], view=(csr, len(db_orders))
        )
        orders_matrix = np.vstack(
            [self._orders_row(db_orders, num_vertices) for num_vertices in vertices]
        )
        gbd_matrix = orders_matrix - intersections

        # Steps 3–4 per contiguous (τ̂, γ) group.
        results: List[Optional[CandidateScores]] = [None] * len(queries)
        start = 0
        total = len(sorted_positions)
        while start < total:
            first = queries[sorted_positions[start]]
            tau_hat, gamma = first.tau_hat, first.gamma
            end = start
            while (
                end < total
                and queries[sorted_positions[end]].tau_hat == tau_hat
                and queries[sorted_positions[end]].gamma == gamma
            ):
                end += 1
            group_orders = orders_matrix[start:end]
            group_gbds = gbd_matrix[start:end]
            needed_orders = np.unique(
                np.maximum(
                    np.asarray(vertices[start:end], dtype=np.int64)[:, None],
                    distinct_orders[None, :],
                )
            ).tolist()
            posterior_group: Optional[np.ndarray]
            if not self._use_tables(tau_hat, needed_orders, group_gbds.size):
                posterior_group = self._posteriors_direct(tau_hat, group_orders, group_gbds)
                accepted_group = posterior_group >= gamma
            elif need == "accepted":
                accept_lut = self._accept_lut_for(tau_hat, gamma, needed_orders)
                flat_keys = group_orders * accept_lut.shape[1] + group_gbds
                accepted_group = accept_lut.take(flat_keys)
                posterior_group = None
            else:
                lut = self._lut_for(tau_hat, needed_orders)
                flat_keys = group_orders * lut.shape[1] + group_gbds
                posterior_group = lut.take(flat_keys)
                accepted_group = posterior_group >= gamma
            eligible_group = (
                group_gbds <= max_gbd_for_ged(tau_hat) if use_pruning else None
            )
            if eligible_group is not None:
                accepted_group &= eligible_group
            self._count(group_gbds.size, 0, group_gbds.size, sparse=False)

            # Extract every accepted (query, graph) pair of the group with
            # one flat nonzero scan instead of per-query mask passes.
            num_graphs = accepted_group.shape[1]
            hit_flat = np.flatnonzero(accepted_group)
            hit_rows, hit_cols = np.divmod(hit_flat, num_graphs)
            hit_ids = global_ids[hit_cols].tolist()
            if posterior_group is not None:
                hit_posteriors = posterior_group.ravel()[hit_flat].tolist()
            else:
                hit_orders = group_orders.ravel()[hit_flat]
                hit_gbds = group_gbds.ravel()[hit_flat]
                lut = self._lut_for(tau_hat, np.unique(hit_orders).tolist())
                hit_posteriors = lut[hit_orders, hit_gbds].tolist()
            hit_bounds = np.searchsorted(hit_rows, np.arange(end - start + 1))
            for row in range(end - start):
                lo, hi = hit_bounds[row], hit_bounds[row + 1]
                results[sorted_positions[start + row]] = CandidateScores(
                    global_ids,
                    group_gbds[row],
                    posterior_group[row] if posterior_group is not None else None,
                    accepted_group[row],
                    eligible_group[row] if eligible_group is not None else None,
                    accepted_items=(hit_ids[lo:hi], hit_posteriors[lo:hi]),
                )
            start = end
        _record_stage(_STAGE_BATCH_SCORE, "batch_score", started)
        return results  # type: ignore[return-value]

    def _execute_batch_pruned(
        self,
        queries: List[SimilarityQuery],
        query_branches: Sequence[Counter],
        use_pruning: bool,
    ) -> List[CandidateScores]:
        """Filter-and-verify form of the batched path (``need="accepted"``).

        Each ``(τ̂, γ)`` group first eliminates (query, graph) pairs whose
        GBD lower bound exceeds the inverted acceptance threshold — O(1)
        arithmetic per pair, decided per (query, distinct |V_G|) — and only
        the union of each group's surviving rows is run through the columnar
        intersection kernels (sparse compacted submatrix or dense pass, by
        estimated selectivity).  Answers are bit-identical to the unpruned
        batch in input order.
        """
        store = self.ensure_index().store
        csr, db_orders, global_ids = store.view()
        num_rows = len(db_orders)
        distinct = store.order_partition(csr)[0]
        codes = self._order_codes(db_orders, distinct)
        view = (csr, num_rows)
        empty = np.empty(0, dtype=np.int64)

        sorted_positions = sorted(
            range(len(queries)), key=lambda i: (queries[i].tau_hat, queries[i].gamma)
        )
        results: List[Optional[CandidateScores]] = [None] * len(queries)
        start = 0
        total = len(sorted_positions)
        while start < total:
            first = queries[sorted_positions[start]]
            tau_hat, gamma = first.tau_hat, first.gamma
            end = start
            while (
                end < total
                and queries[sorted_positions[end]].tau_hat == tau_hat
                and queries[sorted_positions[end]].gamma == gamma
            ):
                end += 1
            group = sorted_positions[start:end]
            start = end
            group_size = len(group)
            vertices = np.asarray(
                [queries[i].query_graph.num_vertices for i in group], dtype=np.int64
            )
            group_branches = [query_branches[i] for i in group]
            # (group, distinct-order) extended orders and bound elimination.
            filter_started = time.perf_counter()
            extended = np.maximum(vertices[:, None], distinct[None, :])
            unique_orders = np.unique(extended)
            if not self._use_tables(
                tau_hat, unique_orders.tolist(), group_size * num_rows
            ):
                for i in group:
                    results[i] = self.execute(
                        queries[i], query_branches=query_branches[i], use_pruning=use_pruning
                    )
                continue
            thresholds = self._threshold_lookup(tau_hat, gamma, unique_orders)[extended]
            if use_pruning:
                thresholds = np.minimum(thresholds, max_gbd_for_ged(tau_hat))
            generated = group_size * num_rows
            # Fused group filter-and-verify: one store call bounds every
            # (query, distinct order) pair, applies the selectivity bar to
            # the union of surviving orders, and produces the exact (G, E)
            # intersection matrix blockwise — pruned orders' postings are
            # never read, and the per-query python loop is gone.
            max_union_rows = num_rows // self._sparse_cost_factor()
            positions, intersections, eligible, union_rows = store.filter_verify_matrix(
                vertices, group_branches, thresholds, max_union_rows, view=view
            )
            if union_rows == 0:
                self._count(generated, generated, 0)
                self._observe_selectivity(tau_hat, gamma, generated, 0, "sparse")
                _record_stage(_STAGE_BOUND_FILTER, "bound_filter", filter_started)
                for i in group:
                    results[i] = CandidateScores(
                        empty,
                        empty,
                        None,
                        np.empty(0, dtype=bool),
                        None,
                        accepted_items=([], []),
                        positions=empty,
                    )
                continue
            if positions is None:
                self._observe_selectivity(
                    tau_hat, gamma, generated, group_size * union_rows, "dense"
                )
                _record_stage(_STAGE_BOUND_FILTER, "bound_filter", filter_started)
                # Low selectivity: re-run this group through the plain dense
                # batch machinery (cached order rows, whole-matrix LUT
                # classification) — answers are identical either way.
                group_results = self.execute_batch(
                    [queries[i] for i in group],
                    query_branches=group_branches,
                    use_pruning=use_pruning,
                    need="accepted",
                    pruned=False,
                )
                for i, result in zip(group, group_results):
                    results[i] = result
                continue
            eligible_sub = eligible[:, codes[positions]]  # (group, survivors)
            # Count every cell whose intersection is actually computed (the
            # whole union per query) as verified — prune_rate must reflect
            # work truly skipped, not per-query eligibility.
            verified = group_size * len(positions)
            self._count(generated, generated - verified, verified, sparse=True)
            self._observe_selectivity(tau_hat, gamma, generated, verified, "sparse")
            _record_stage(_STAGE_BOUND_FILTER, "bound_filter", filter_started)
            verify_started = time.perf_counter()
            sub_orders = np.maximum(vertices[:, None], db_orders[positions][None, :])
            sub_gbds = sub_orders - intersections
            # Classify only the eligible cells — ineligible ones are pruned
            # by construction and their orders may lack LUT rows.
            accepted = np.zeros(sub_gbds.shape, dtype=bool)
            if verified:
                cell_orders = sub_orders[eligible_sub]
                cell_gbds = sub_gbds[eligible_sub]
                accept_lut = self._accept_lut_for(
                    tau_hat, gamma, np.unique(cell_orders).tolist()
                )
                cell_accepted = accept_lut.take(
                    cell_orders * accept_lut.shape[1] + cell_gbds
                )
                if use_pruning:
                    cell_accepted &= cell_gbds <= max_gbd_for_ged(tau_hat)
                accepted[eligible_sub] = cell_accepted

            # One flat nonzero scan extracts every accepted pair of the group.
            num_cols = accepted.shape[1]
            hit_flat = np.flatnonzero(accepted)
            hit_rows, hit_cols = np.divmod(hit_flat, num_cols)
            sub_ids = global_ids[positions]
            hit_ids = sub_ids[hit_cols].tolist()
            if hit_flat.size:
                hit_orders = sub_orders.ravel()[hit_flat]
                hit_gbds = sub_gbds.ravel()[hit_flat]
                lut = self._lut_for(tau_hat, np.unique(hit_orders).tolist())
                hit_posteriors = lut[hit_orders, hit_gbds].tolist()
            else:
                hit_posteriors = []
            hit_bounds = np.searchsorted(hit_rows, np.arange(group_size + 1))
            for row, position in enumerate(group):
                lo, hi = hit_bounds[row], hit_bounds[row + 1]
                results[position] = CandidateScores(
                    sub_ids,
                    sub_gbds[row],
                    None,
                    accepted[row],
                    None,
                    accepted_items=(hit_ids[lo:hi], hit_posteriors[lo:hi]),
                    positions=positions,
                )
            _record_stage(_STAGE_VERIFY, "verify", verify_started)
        return results  # type: ignore[return-value]

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
        ties.  One pass, bound → ordered candidates → verify → reduce: each
        distinct ``|V_G|`` gets a posterior *upper* bound from its GBD lower
        bound (:meth:`_bound_lut_for`), rows are verified in descending bound
        order, and each chunk is folded into a running k-best state
        (:func:`_k_best`) whose k-th score cuts off the rows no longer in
        reach.  Chunks double from ``_TOPK_CHUNK`` rows, reading only their
        own postings, until probing the next would cost as much as the dense
        row, which then scores the whole remainder: at worst one dense pass
        and one selection, no row verified twice.  With ``use_pruning`` the
        ranking covers only the branch-bound candidate set (``GBD <= 2 τ̂``).
        """
        self.validate_tau(query.tau_hat)
        started = time.perf_counter()
        k = int(k)
        if k < 1:
            raise self.error_class("top_k must be a positive integer")
        branches = query.branches() if query_branches is None else query_branches
        store = self.ensure_index().store
        csr, db_orders, global_ids = store.view()
        num_rows = len(db_orders)
        if num_rows == 0:
            return []
        num_query_vertices = query.query_graph.num_vertices
        orders_row = self._orders_row(db_orders, num_query_vertices)
        distinct, row_order, starts, ends = store.order_partition(csr)
        extended = np.maximum(num_query_vertices, distinct)
        needed_orders = extended.tolist()
        tau_hat = query.tau_hat
        max_gbd = max_gbd_for_ged(tau_hat)
        view = (csr, num_rows)
        kept = (global_ids[:0], np.empty(0, dtype=np.float64))

        if not self._use_tables(tau_hat, needed_orders, num_rows):
            # One-shot workload: score everything directly, reduce once.
            gbds = orders_row - store.intersection_row(branches, view=view)
            posteriors = self._posteriors_direct(tau_hat, orders_row, gbds)
            self._count(num_rows, 0, num_rows, sparse=False)
            _record_stage(_STAGE_TOPK, "topk", started)
            rows = gbds <= max_gbd if use_pruning else slice(None)
            return _ranked(*_k_best(kept, global_ids[rows], posteriors[rows], k))

        # Bound: a GBD lower bound, hence a posterior upper bound, per order.
        matched_total, num_keys, dense_cost = store.matched_postings(branches, csr)
        lower_bounds = extended - np.minimum(matched_total, distinct)
        upper = self._bound_lut_for(tau_hat, needed_orders)[extended, lower_bounds]
        if use_pruning:
            # Rows whose bound already certifies GED > τ̂ leave the ranking.
            ranked_in = lower_bounds <= max_gbd
        else:
            # A zero upper bound *determines* the score: posterior ∈ [0, 0].
            # Those rows join the ranking at 0.0 unverified — sound only without
            # the branch-bound restriction (membership needs the exact GBD).
            ranked_in = upper > 0.0
        # Ordered candidates: whole order groups, by descending bound.
        groups = np.argsort(-upper, kind="stable")
        groups = groups[ranked_in[groups]]
        candidates = np.concatenate(
            [row_order[:0]] + [row_order[starts[g] : ends[g]] for g in groups.tolist()]
        )
        neg_bounds = -upper[groups]
        group_ends = np.concatenate(([0], np.cumsum((ends - starts)[groups])))

        lut = self._lut_for(tau_hat, needed_orders)
        kth_score = -np.inf
        limit = len(candidates)  # rows past it have a bound below the k-th best
        chunk_size = _TOPK_CHUNK
        # A sparse probe is one binary search over a key's posting segment.
        probe_steps = (dense_cost // max(num_keys, 1)).bit_length()
        cursor = 0
        while cursor < limit:
            stop = min(cursor + chunk_size, limit)
            if num_keys * (stop - cursor) * probe_steps >= dense_cost:
                # Probing the next chunk costs as much as walking the query's
                # posting segments once: do that, score every row in reach.
                rows = candidates[cursor:limit]
                intersections = store.intersection_row(branches, view=view)[rows]
            else:
                rows = np.sort(candidates[cursor:stop])
                intersections = store.intersection_subrow(branches, rows, view=view)
                chunk_size *= 2
            cursor += len(rows)
            row_orders = orders_row[rows]
            gbds = row_orders - intersections
            if use_pruning:
                survivors = gbds <= max_gbd
                rows, row_orders, gbds = rows[survivors], row_orders[survivors], gbds[survivors]
            scores = lut.take(row_orders * lut.shape[1] + gbds)
            kept = _k_best(kept, global_ids[rows], scores, k)
            if len(kept[0]) == k:
                kth_score = kept[1].min()
                limit = group_ends[np.searchsorted(neg_bounds, -kth_score, side="right")]
        if not use_pruning and (len(kept[0]) < k or kth_score <= 0.0):
            # Zero-bound rows matter only when the k-th best is 0 (ties go by
            # id) or fewer than k rows were scored: their k smallest ids.
            zero_ids = global_ids[~ranked_in[self._order_codes(db_orders, distinct)]]
            if len(zero_ids) > k:
                zero_ids = np.partition(zero_ids, k - 1)[:k]
            kept = _k_best(kept, zero_ids, np.zeros(len(zero_ids)), k)
        self._count(num_rows, num_rows - cursor, cursor, sparse=None)
        _record_stage(_STAGE_TOPK, "topk", started)
        return _ranked(*kept)

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
