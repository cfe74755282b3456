"""Unified query-execution core for the online stage of Algorithm 1.

Steps 2–4 of Algorithm 1 — GBD from the branch multisets, ``Pr[GED <= τ̂ |
GBD]`` read off priors that depend only on ``(ϕ, τ̂, |V'1|)``, one comparison
with γ — are decided per (query, graph) pair, so :class:`ExecutionCore`
implements them once, as one pipeline a query goes through:

* **bound** — a GBD lower bound per distinct ``|V_G|`` of one store
  snapshot, from per-graph norms (O(1) each, no postings read), read against
  the suffix maximum ``M`` of the posterior row: the thresholded path keeps a
  range when ``M >= γ`` there — the ``(τ̂, γ)`` acceptance rule inverted into
  a max-acceptable GBD (:meth:`acceptance_threshold`) — and top-k takes ``M``
  as the range's posterior upper bound.
* **candidates** — the rows of the orders that survive the bound: contiguous
  position ranges, the store lays rows out by ``|V_G|``.
* **verify** — the candidates' exact ``|B_Q ∩ B_G|``, by slicing the query's
  posting segments to the candidates' position ranges or by one dense walk of
  them, whichever the query's own posting lengths make cheaper
  (:func:`~repro.db.columnar.sparse_row_budget`: no tuning constant, the same
  choice under both kernel backends).
* **reduce** — two reducers over the same scored candidates.  *Threshold*:
  posterior ``>= γ``.  *k-best* (:meth:`execute_topk`): whole order groups in
  descending bound order are offered to a running top ``k`` whose k-th score
  ends the scan between two groups.

*bound*, *verify* and *reduce* are **one store call per batch**, whichever
reducer each query asks for: a batch's rows — :meth:`execute_pruned`,
:meth:`execute_topk` (a batch of one each) and :meth:`execute_batch`, whose
rows may mix both — go to
:meth:`ColumnarBranchStore.filter_verify_rows
<repro.db.columnar.ColumnarBranchStore.filter_verify_rows>` together.  A
thresholded row carries its τ̂ posterior table and γ and gets back its
*hits* — the accepted rows' store positions and GBDs — so nothing ``D`` long
is produced or walked here; what is left is their ids and one table lookup
each, returned as they are (:data:`Hits`).  A top-k row carries the same
table and ``k`` and gets back its ranking, at most ``k`` scored rows.  The
``bound_filter`` stage histogram covers the store call for a thresholded row (bound, verification and the γ
comparison) and the second stage — ``verify`` after the sparse plan,
``score_dense`` after the dense one — its hits' ids and scores only; a top-k
row's whole share is ``topk``.  Asked to keep every posterior
(:meth:`execute`, what :meth:`GBDASearch.query
<repro.core.search.GBDASearch.query>` needs) the core scores the dense row
in NumPy, for every row; the search's ``use_index_pruning`` ablation is a
post-filter over that, in the search.

Posteriors have one source: ``(τ̂, |V'1|)`` posterior rows from
:meth:`GBDAEstimator.posterior_row` (each entry is the scalar
:meth:`GBDAEstimator.posterior`, which reads the branch-edit model's cached
factored rows), held in one ragged
:class:`~repro.db.columnar.PosteriorTable` per τ̂ — the table the store call
compares with γ, on the very doubles the per-pair loop compares.  It holds a
row for every distinct stored order and every query size met, ``Σ (e + 1)``
cells: its size follows what is stored, not the largest order.  A row costs
one factored Λ1 row per τ <= τ̂ and |V'1|, so every query, even a lone one
over a handful of graphs, reads the tables.

A single query is a batch of one.  Two queries of a batch share nothing but
the snapshot and the posterior tables, so their answers are those of the
per-query loop; what a batch shares is the work around them: one snapshot
and one read of its order ranges, one store call — on the native backend one
C call, whose Python wrapper runs once — and one fold of the counters.  The
Python left per query is its vocabulary pass, its table lookup and its
hits' ids and scores.  A flush spread over a thread pool, one query per
task, measured slower than this: that per-query Python holds the GIL.
The stage histograms keep one observation per query, the batch's time split
evenly across its queries (see :func:`_record_batch_stages`).
Every path returns accepted sets, rankings and scores bit-identical to the
scalar per-pair loop (:func:`repro.testing.oracles.query_reference`);
:class:`FilterCounters` tracks what the bounds saved, counted per query on
every path.

Thread-safety: queries may run concurrently from threads sharing one engine
(the service's scoring thread and callers' own threads).  A τ̂'s table is
immutable, published with the count of distinct stored orders it covers (the
store only adds orders, so a count names the set) and grown by copying under
the core's one lock: a reader sees a table that provably holds its rows, or
takes the lock and fills the gap — never a torn or half-filled table.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.core.estimator import GBDAEstimator
from repro.db.columnar import ColumnarBranchStore, PosteriorTable, TopK
from repro.db.database import GraphDatabase
from repro.db.query import SimilarityQuery, validate_top_k
from repro.exceptions import SearchError
from repro.obs.metrics import DEFAULT_RATIO_BUCKETS, get_registry
from repro.obs.trace import active_trace

__all__ = ["CandidateScores", "ExecutionCore", "FilterCounters"]

# Metric children are bound once at import time (see repro.obs.metrics) and
# deliberately *not* stored on core instances, which stay picklable.
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


def _record_batch_stages(
    started: float,
    filtered: float,
    scored: float,
    thresholded: Sequence[Tuple[int, Optional[bool]]],
    ranked: int,
) -> None:
    """Observe the stages of a batch, one observation per query.

    ``thresholded`` holds each thresholded query's ``(verified, sparse)`` and
    ``ranked`` is the number of top-k queries.  The store call took
    ``filtered - started`` and the hits' ids and scores ``scored - filtered``,
    for the whole batch: each query is booked an even share of both — a
    thresholded one under ``bound_filter`` and then ``score_dense`` after the
    dense plan, else ``verify``; a top-k one both shares under ``topk``.  An
    active trace (a sampled flush) gets one span per stage, laid end to end
    from ``started``: the flush's waterfall, not a span per query.
    """
    share = 1.0 / (len(thresholded) + ranked)
    stages = []
    if thresholded:
        dense = 0
        for _rows, sparse in thresholded:
            dense += sparse is False
        score_share = (scored - filtered) * share
        stages.append(("bound_filter", len(thresholded), (filtered - started) * share))
        if dense < len(thresholded):
            stages.append(("verify", len(thresholded) - dense, score_share))
        if dense:
            stages.append(("score_dense", dense, score_share))
    if ranked:
        stages.append(("topk", ranked, (scored - started) * share))
    trace = active_trace()
    offset = 0.0 if trace is None else started - trace.started_at
    for name, rows, seconds in stages:
        _STAGES[name].observe(seconds, count=rows)
        if trace is not None:
            trace.add(name, seconds * rows, depth=1, offset=offset)
            offset += seconds * rows


#: A τ̂ not met yet: no rows, covering no stored order.
_UNFILLED = (PosteriorTable.from_rows({}), 0)


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


#: What the threshold reducer returns: the accepted graphs' ids and their
#: posteriors, parallel lists in store-position order.
Hits = Tuple[List[int], List[float]]
#: What the k-best reducer returns: ``(graph id, posterior)`` pairs by
#: descending posterior, ascending id under ties.
Ranking = List[Tuple[int, float]]


@dataclass
class CandidateScores:
    """Every posterior of one query: what :meth:`ExecutionCore.execute` returns.

    Every array is aligned on store positions — the store's
    ``|V_G|``-clustered layout, so ``graph_ids`` maps each position to its
    graph and is not in id order.
    """

    graph_ids: np.ndarray
    gbds: np.ndarray
    posteriors: np.ndarray
    accepted: np.ndarray

    def accepted_id_set(self) -> frozenset:
        """The accepted global graph ids as a frozenset."""
        return frozenset(self.graph_ids[self.accepted].tolist())

    def scores_dict(self, which: str = "candidates") -> Dict[int, float]:
        """Posterior scores keyed by global id: ``"candidates"`` (all) or ``"accepted"``."""
        ids, scores = self.graph_ids, self.posteriors
        if which == "accepted":
            ids, scores = ids[self.accepted], scores[self.accepted]
        return dict(zip(ids.tolist(), scores.tolist()))

    def ranking(self, k: int) -> Ranking:
        """The first ``k`` ``(graph id, posterior)`` pairs by ``(-posterior, id)``."""
        order = np.lexsort((self.graph_ids, -self.posteriors))[:k]
        return list(zip(self.graph_ids[order].tolist(), self.posteriors[order].tolist()))


class ExecutionCore:
    """Single implementation of Algorithm 1's online steps over a database.

    Parameters
    ----------
    database:
        The graph database to score.
    estimator:
        A :class:`GBDAEstimator` built from fitted Λ2/Λ3 priors.
    max_tau:
        Largest similarity threshold supported by the priors.
    error_class:
        Exception type raised on invalid thresholds — :class:`SearchError`
        for the search wrapper, :class:`ServingError` for the engine.
    """

    def __init__(
        self,
        database: GraphDatabase,
        estimator: GBDAEstimator,
        *,
        max_tau: int,
        error_class: Type[Exception] = SearchError,
    ) -> None:
        self.database = database
        self.estimator = estimator
        self.max_tau = int(max_tau)
        self.error_class = error_class
        # τ̂ -> (its posterior table, the distinct stored orders it covers):
        # immutable, replaced whole under the lock — see the module docstring.
        self._tables: Dict[int, Tuple[PosteriorTable, int]] = {}
        self._table_lock = threading.Lock()
        #: Cumulative filter-effectiveness counters across every query this
        #: core answered (updated under a dedicated lock; see FilterCounters).
        self.filter_counters = FilterCounters()
        self._counter_lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_table_lock"]  # locks are not picklable
        del state["_counter_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._table_lock = threading.Lock()
        self._counter_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # branch store and posterior tables
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> ColumnarBranchStore:
        """The database's columnar branch store (:attr:`GraphDatabase.store`)."""
        return self.database.store

    @property
    def num_cached_tables(self) -> int:
        """Number of ``(τ̂, |V'1|)`` posterior rows filled, over every τ̂'s table."""
        return sum(
            int(np.count_nonzero(table.offsets >= 0)) for table, _covered in self._tables.values()
        )

    def posterior_vector(self, tau_hat: int, extended_order: int) -> np.ndarray:
        """Return the posterior row of one ``(τ̂, |V'1|)`` pair (read-only).

        ``vector[ϕ] = Pr[GED <= τ̂ | GBD = ϕ]`` for ``ϕ in 0..|V'1|``;
        computed on first use via :meth:`GBDAEstimator.posterior_row` into the
        τ̂ table, where it stays for the lifetime of the core.
        """
        order = max(int(extended_order), 1)
        return self._filled(int(tau_hat), [order]).row(order)

    def validate_tau(self, tau_hat: int) -> None:
        """Reject thresholds beyond the pre-computed priors."""
        if tau_hat > self.max_tau:
            raise self.error_class(
                f"τ̂={tau_hat} exceeds the pre-computed maximum {self.max_tau}; "
                "re-run the offline stage with a larger max_tau"
            )

    # ------------------------------------------------------------------ #
    # the posterior tables
    # ------------------------------------------------------------------ #
    def _table(self, tau_hat: int, num_query_vertices: int, distinct: np.ndarray) -> PosteriorTable:
        """The τ̂ table, holding every row a query of ``|V_Q|`` reads over ``distinct``.

        Those are the rows of the extended orders ``max(|V_Q|, distinct)``:
        each is ``|V_Q|`` or a stored order, so a table that covers the
        snapshot's stored orders and has ``|V_Q|`` filled covers the query.
        A repeat checks just that — a count and one offset — and only a new
        order or query size takes the lock (:meth:`_filled`).
        """
        table, covered = self._tables.get(tau_hat, _UNFILLED)
        if covered >= len(distinct) and table.filled(num_query_vertices):
            return table
        return self._filled(tau_hat, [num_query_vertices, *distinct.tolist()], len(distinct))

    def _filled(self, tau_hat: int, orders: List[int], covered: int = 0) -> PosteriorTable:
        """Publish the τ̂ table grown by the rows of ``orders`` it lacks; return it.

        ``covered`` is the count of the distinct stored orders ``orders``
        includes (0 when it is not a snapshot's).  Copy on write under the
        lock: a published table never changes, so readers need no lock.
        """
        with self._table_lock:
            table, was = self._tables.get(tau_hat, _UNFILLED)
            missing = [order for order in set(orders) if not table.filled(order)]
            table = table.grown(
                {order: self.estimator.posterior_row(tau_hat, order) for order in missing}
            )
            self._tables[tau_hat] = (table, max(was, covered))
            return table

    def _count(self, num_rows: int, passes: Sequence[Tuple[int, Optional[bool]]]) -> None:
        """Fold the filter-effectiveness numbers of some queries into the counters.

        Each query of ``passes`` is ``(verified, sparse)`` over a snapshot of
        ``num_rows`` rows: it generated ``num_rows`` candidates, verified
        ``verified`` of them and pruned the rest, on the sparse plan, the dense
        one, or (``None``) neither.  One lock round per call, however many
        queries.
        """
        generated = num_rows * len(passes)
        verified = 0
        taken = {True: 0, False: 0}
        for rows, sparse in passes:
            verified += rows
            if sparse is not None:
                taken[sparse] += 1
                if num_rows:
                    _PLAN_METRICS[sparse][1].observe(rows / num_rows)
        sparse_passes, dense_passes = taken[True], taken[False]
        for sparse, count in taken.items():
            if count:
                _PLAN_METRICS[sparse][0].inc(count)
        with self._counter_lock:
            counters = self.filter_counters
            counters.candidates_generated += generated
            counters.candidates_pruned += generated - verified
            counters.candidates_verified += verified
            counters.sparse_passes += sparse_passes
            counters.dense_passes += dense_passes

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
        threshold provably cannot be accepted, whatever its exact GBD.  It is
        read off the suffix maximum ``M`` of the τ̂ table's row
        (:meth:`PosteriorTable.accepting`): ``M(ϕ) >= γ`` exactly up to it,
        which is the comparison the store call makes per range.
        """
        order = int(extended_order)
        return self._filled(int(tau_hat), [order]).accepting(order, float(gamma))

    # ------------------------------------------------------------------ #
    # Steps 2–4 of Algorithm 1: one pipeline, two reducers
    # ------------------------------------------------------------------ #
    def execute(
        self, query: SimilarityQuery, *, query_branches: Optional[Counter] = None
    ) -> CandidateScores:
        """Score one query against every database graph; keep every posterior.

        Every order is eligible: verification is the dense row of one
        snapshot, and every posterior is read off the τ̂ table.  A concurrent
        database addition becomes visible between queries, never
        mid-computation.
        """
        started = time.perf_counter()
        self.validate_tau(query.tau_hat)
        branches = query.branches() if query_branches is None else query_branches
        store = self.store
        snapshot = store.view()
        _csr, db_orders, global_ids = snapshot
        num_rows = len(db_orders)
        num_query_vertices = query.query_graph.num_vertices
        intersections = store.intersection_row(branches, view=snapshot)
        self._count(num_rows, [(num_rows, False)])
        table = self._table(query.tau_hat, num_query_vertices, store.order_ranges(snapshot)[0])
        orders = np.maximum(num_query_vertices, db_orders)
        gbds = orders - intersections
        posteriors = table.phi.take(table.offsets.take(orders) + gbds)
        scored = CandidateScores(global_ids, gbds, posteriors, posteriors >= query.gamma)
        _record_stage("score_dense", started)
        return scored

    def _rows(
        self,
        queries: Sequence[SimilarityQuery],
        query_branches: Optional[Sequence[Optional[Counter]]],
        ks: Sequence[Optional[int]],
    ) -> List:
        """The one body of :meth:`execute_pruned`, :meth:`execute_topk` and :meth:`execute_batch`.

        ``ks[i]`` is ``None`` for a thresholded query (its :data:`Hits`) or its
        ranking size (its :data:`Ranking`).  One snapshot, one read of its
        order ranges, one store call and one fold of the counters for the
        batch; per query, its table lookup and its hits' ids and scores.
        Stages are recorded by :func:`_record_batch_stages`.
        """
        for query in queries:
            self.validate_tau(query.tau_hat)
        if query_branches is None:
            query_branches = [None] * len(queries)
        elif len(query_branches) != len(queries):
            raise self.error_class(
                f"{len(queries)} queries but {len(query_branches)} branch multisets"
            )
        if not queries:
            return []
        started = time.perf_counter()
        store = self.store
        snapshot = store.view()
        _csr, db_orders, global_ids = snapshot
        if len(db_orders) == 0:
            return [([], []) if k is None else [] for k in ks]
        distinct = store.order_ranges(snapshot)[0]
        rows = []
        for query, branches, k in zip(queries, query_branches, ks):
            num_query_vertices = query.query_graph.num_vertices
            rows.append((
                num_query_vertices,
                query.branches() if branches is None else branches,
                self._table(query.tau_hat, num_query_vertices, distinct),
                query.gamma if k is None else TopK(k),
            ))
        found = store.filter_verify_rows(rows, view=snapshot)
        filtered = time.perf_counter()
        answers: List = []
        # Each query's (verified, sparse); one none of whose rows was verified
        # ran neither plan.
        passes = []
        thresholded = []
        for (num_query_vertices, _branches, table, _reducer), k, row in zip(rows, ks, found):
            hits, values, _eligible, verified, sparse = row
            passes.append((verified, sparse))
            if k is not None:  # ranked by the store call
                answers.append(list(zip(hits.tolist(), values.tolist())))
                continue
            thresholded.append((verified, sparse))
            if len(hits) == 0:
                answers.append(([], []))
            else:
                orders = np.maximum(num_query_vertices, db_orders[hits])
                scores = table.phi.take(table.offsets.take(orders) + values)
                answers.append((global_ids[hits].tolist(), scores.tolist()))
        scored = time.perf_counter()
        self._count(len(db_orders), passes)
        _record_batch_stages(started, filtered, scored, thresholded, len(passes) - len(thresholded))
        return answers

    def execute_pruned(
        self, query: SimilarityQuery, *, query_branches: Optional[Counter] = None
    ) -> Hits:
        """The accepted graphs of one query and their posteriors: the serving plan.

        The ``(τ̂, γ)`` acceptance rule is inverted into a per-order
        max-acceptable GBD (:meth:`acceptance_threshold`, read off the
        table's suffix maximum), and every candidate whose GBD *lower bound*
        exceeds it is eliminated with O(1) arithmetic before any postings
        traversal — once per *distinct* ``|V_G|``, since the bound depends on
        a row only through its order.
        The same store call (:meth:`ColumnarBranchStore.filter_verify_rows`)
        verifies the survivors, by range slices or one dense walk, and
        compares their posteriors with γ: it returns the accepted rows, and
        all that is left here is their ids and scores — bit-identical to the
        accepted rows of :meth:`execute` (and hence to the per-pair
        reference loop).  Nothing ``D`` long is materialised.  A single
        query is a batch of one (:meth:`execute_batch`).
        """
        return self._rows([query], [query_branches], [None])[0]

    def execute_batch(
        self,
        queries: Sequence[SimilarityQuery],
        *,
        query_branches: Optional[Sequence[Counter]] = None,
    ) -> List:
        """Every query of a batch in one store call; answers in input order.

        A query with ``top_k`` gets its :data:`Ranking` (:meth:`execute_topk`'s),
        the others their :data:`Hits` (:meth:`execute_pruned`'s).  Answers,
        counters and per-query stage observations are those of the per-query
        loop.  Every τ̂ is validated, and ``query_branches`` (one multiset per
        query, when given) checked for length, before any query is scored.
        """
        queries = list(queries)
        return self._rows(queries, query_branches, [query.top_k for query in queries])

    def execute_topk(
        self, query: SimilarityQuery, k: int, *, query_branches: Optional[Counter] = None
    ) -> Ranking:
        """Rank the database by posterior; return the top ``k`` (id, Φ) pairs.

        The ranking is exactly the first ``k`` entries of the full γ=0
        scoring sorted by ``(-posterior, graph id)`` — deterministic under
        ties.  The store call is the whole pass, bound → ordered candidates →
        verify → reduce: each distinct ``|V_G|`` gets a posterior *upper*
        bound from its GBD lower bound (the τ̂ table's suffix maximum), whole order
        groups are verified in descending bound order — by range slices, or
        from one dense walk once slicing would cost as much — and offered to a
        k-best heap whose k-th score cuts off the groups no longer in reach;
        nothing ``D`` long is built here.  A single query is a batch of one
        (:meth:`execute_batch`).
        """
        k = validate_top_k(k, self.error_class)
        return self._rows([query], [query_branches], [k])[0]

    def warm(
        self, tau_hats: Iterable[int], extended_orders: Optional[Iterable[int]] = None
    ) -> int:
        """Fill posterior rows ahead of traffic; return :attr:`num_cached_tables`.

        ``extended_orders`` defaults to the distinct vertex counts of the
        store — the exact orders hit by queries no larger than the largest
        stored graph; larger queries extend the tables lazily.
        """
        if extended_orders is None:
            extended_orders = self.store.order_ranges()[0].tolist()
        orders = [int(order) for order in extended_orders]
        for tau_hat in tau_hats:
            self.validate_tau(tau_hat)
            self._filled(int(tau_hat), orders)
        return self.num_cached_tables

    def __repr__(self) -> str:
        return (
            f"<ExecutionCore |D|={len(self.database)} max_tau={self.max_tau} "
            f"tables={self.num_cached_tables}>"
        )
