"""Columnar (CSR) storage of the branch postings of a graph database.

:class:`ColumnarBranchStore` holds the inverted branch postings of a
:class:`~repro.db.database.GraphDatabase` in compressed-sparse-row form:

* a *vocabulary* mapping each canonical branch key to a dense integer id,
* three contiguous arrays — ``offsets`` (one ``int64`` slot per branch key,
  CSR row pointers), ``positions`` (the database rows containing the key),
  and ``counts`` (the key's multiplicity in each of those rows).

``positions``/``counts`` use the **compact int32 layout** whenever the store
fits (fewer than 2³¹ rows and per-row multiplicities): half the memory
bandwidth on the hottest arrays of the online stage.  :meth:`compact`
re-checks the limits on every rebuild and promotes to int64 the moment
either is exceeded — the kernels accept both layouts, so promotion is an
internal dtype change, never an API event.

**Rows are clustered by** ``|V_G|``.  A row's *position* is its slot in a
layout that lists rows in ascending vertex count, by arrival within one
count, so every distinct order owns one contiguous *range* of positions
(the ``ranges`` of a snapshot) and, because each key's posting segment is sorted by
position, the rows of one ``(key, |V_G|)`` pair are one slice of that
segment.  Algorithm 1 decides Steps 2–4 once per distinct extended order; the
layout makes that grouping physical, so the reducers read eligibility as
ranges and verify a range by slicing the matched segments.  Everything the
store hands out speaks positions: the CSR, the ``orders`` / ``global_ids``
vectors of the :meth:`view` record (the latter maps a position back to its
database graph id), every ``D``-length row (:meth:`intersection_row` and the
NumPy-only reference :meth:`gbd_lower_bound_row`) and the reducers' hits.  A
read computes against the current snapshot, or against the :meth:`view`
record a caller pinned.

The kernels themselves live in :mod:`repro.db.kernels` behind a pluggable
``backend`` (``"numpy"`` | ``"native"`` | ``"auto"``): this class owns the
vocabulary pass, the layout, the published snapshot, and the metrics, and
dispatches the array work to the selected backend.  Every read computes
against one snapshot, and there is no ``(Q, D)`` form.  Both reducers of the
execution core run inside the store call that verifies,
:meth:`filter_verify_rows`, whose every row — one query of a batch — names
its reducer: the γ threshold (bound filter per range → range slices or dense
walk → γ comparison) returns the accepted rows, the k best (ranges in bound
order → range slices or dense walk → k-best heap, cut off by the k-th score)
at most ``k`` scored ones.  On the ``native`` backend the whole batch is one
C call, so neither pruned-out candidates nor a ``D``-length row ever reach
NumPy.

The store is written by its database alone
(:meth:`~repro.db.database.GraphDatabase.add_many`): a row is one graph's
branch multiset, its row number is the graph's id, and its ``|V_G|`` is the
multiset's size (one branch per vertex).  A batch arrives as one branch key
per vertex, graph after graph, plus each graph's vertex count
(:func:`~repro.core.branches.branch_keys`); no per-graph multiset is ever
built.  Additions go through an **append buffer**: :meth:`extend` is
``O(v log v)`` bookkeeping over the batch's ``v`` vertices with no Python
statement per posting — the batch's key ids are one ``map`` of the
vocabulary's subscript over the vertex stream (which learns each unseen key
once, on first sight), one ``numpy.unique`` over ``(row, key id)`` counts the
postings, and the result is appended to each pending buffer as one int64
array chunk — and
:meth:`compact`, run lazily by the next read, is the one place a write is
paid for.  It takes the previous published snapshot and produces the next in
one linear pass: the new rows are interleaved into their order's range, old
positions go through one monotone shift table, and each key's pending
postings are merged into its sorted segment.  Only the new rows are sorted
(by order).  A bulk load of ``k`` graphs costs one compaction, not ``k``.

The same pass keeps the pending postings, which arrive row by row, as the
next chunk of a **row-major copy** by graph id (postings per row, key ids,
counts): what the offline stage reads to compute the GBDs of sampled graph
pairs (:meth:`branch_distances`, which joins the chunks) without a per-graph
multiset anywhere.  A write pays O(p) for it, never a copy of the rows
before it.

Concurrency: queries may run from several threads sharing one engine (the
service's scoring thread, callers' own threads, a writer's ``add_many``),
so everything a read needs — CSR
arrays, row vectors, order ranges — is published as one snapshot record
swapped behind a compaction lock, and readers operate on one snapshot for
the whole query — a query racing a compaction sees either the pre-add or
post-add postings, never a torn mix.  Mutation (:meth:`extend`) takes the
same lock.
"""

from __future__ import annotations

import threading
from array import array
from collections import Counter
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.db.kernels import backend_module, resolve_backend
from repro.obs.metrics import get_registry

__all__ = ["ColumnarBranchStore", "PosteriorTable", "TopK"]

# Kernel call/row counters (repro.obs): children are bound once per backend
# and cached at module level — the kernels below are the hot path of every
# online query, and children must never live on store instances (stores
# stay picklable).  Rows count the cells each call produced (D for a dense
# row, U distinct orders for a γ row of the fused reducer; a k-best row counts
# as a ``row`` call producing D when it walked the dense row, else the rows of
# the ranges it verified), making ``rows / calls`` an instant read on how
# selective the pruned layer is.  A batch of the fused reducer counts as one
# call per query.
_KERNEL_CALLS = get_registry().counter(
    "repro_kernel_calls_total", "Columnar CSR kernel invocations", ("kernel", "backend")
)
_KERNEL_ROWS = get_registry().counter(
    "repro_kernel_rows_total",
    "Result cells produced by columnar CSR kernels",
    ("kernel", "backend"),
)
_BACKEND_INFO = get_registry().gauge(
    "repro_kernel_backend_info",
    "Columnar kernel backends in use by this process (1 per active backend)",
    ("backend",),
)


class _BackendCounters:
    """Pre-bound (calls, rows) counter children of one backend label."""

    __slots__ = ("row", "filter_verify_rows")

    def __init__(self, backend: str) -> None:
        for kernel in self.__slots__:
            setattr(
                self,
                kernel,
                (
                    _KERNEL_CALLS.labels(kernel=kernel, backend=backend),
                    _KERNEL_ROWS.labels(kernel=kernel, backend=backend),
                ),
            )


_COUNTERS_BY_BACKEND: Dict[str, _BackendCounters] = {}


def _counters(backend: str) -> _BackendCounters:
    counters = _COUNTERS_BY_BACKEND.get(backend)
    if counters is None:
        counters = _COUNTERS_BY_BACKEND[backend] = _BackendCounters(backend)
    return counters


#: The compacted arrays travel together with the number of rows they
#: cover: (offsets, positions, counts, rows_covered).
_Csr = Tuple[np.ndarray, np.ndarray, np.ndarray, int]

#: Largest row index / posting multiplicity representable in the compact
#: int32 layout.  Module-level so the overflow-promotion tests can shrink
#: them; :meth:`ColumnarBranchStore.compact` re-reads them on every rebuild.
_POSITION_DTYPE_LIMIT = int(np.iinfo(np.int32).max)
_COUNT_DTYPE_LIMIT = int(np.iinfo(np.int32).max)

_EMPTY_I64 = np.empty(0, dtype=np.int64)

_EMPTY_CSR: _Csr = (
    np.zeros(1, dtype=np.int64),
    np.empty(0, dtype=np.int32),
    np.empty(0, dtype=np.int32),
    0,
)


def _joined(chunks: List[np.ndarray]) -> np.ndarray:
    """The append buffer's int64 chunks as one array (a lone chunk as itself)."""
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


#: Consecutive rows of the row-major copy by graph id: (postings per row,
#: key ids, counts), the postings row after row.
_Rows = Tuple[np.ndarray, np.ndarray, np.ndarray]


#: The dtypes the compiled reducer reads a snapshot's arrays in: distinct,
#: bounds, the CSR triple and global_ids (see _Snapshot.arguments).
_COMPILED_DTYPES = (np.int64, np.int64, np.int64, np.int32, np.int32, np.int64)


class _SnapshotArrays(NamedTuple):
    csr: _Csr
    orders: np.ndarray
    global_ids: np.ndarray


class _Snapshot(_SnapshotArrays):
    """One published read state: the CSR and its row vectors, all by position.

    What :meth:`ColumnarBranchStore.view` returns and a pinned read passes
    back.  ``orders`` (non-decreasing) and ``global_ids`` are indexed by
    position and ``ranges`` is ``(distinct orders, bounds)`` — the rows of
    order ``distinct[u]`` are the positions ``bounds[u]:bounds[u + 1]``.
    ``segments[key_id]`` is the length of a key's posting segment, which the
    vocabulary pass reads key by key as it matches a query's keys: an int64
    ``array``, whose items Python reads nearly as fast as a list's, built in
    one copy where a list would cost a Python int per key on every
    compaction.

    ``arguments`` is what the compiled reducer takes of the snapshot, in
    one int64 ``array`` (the ``SNAPSHOT_*`` slots of ``_kernels.c``): the
    addresses of ``distinct``, ``bounds``, the CSR triple and ``global_ids``,
    then the count of distinct orders.  It is ``None`` when an array is not
    contiguous in the dtype the C source reads — a CSR that outgrew int32 —
    and the NumPy reference answers.  The record holds every array it names,
    so an address lives exactly as long as its record; nothing else keeps
    one.

    A record is the tuple ``(csr, orders, global_ids)``; ``ranges``,
    ``segments`` and ``arguments`` are derived once, when it is built — at
    publish, for the empty store, and on unpickling, which ships the tuple
    only.  Nothing in it changes afterwards.  Records compare by identity
    alone: the tuple's ``==`` would compare arrays.
    """

    def __new__(cls, csr, orders, global_ids):
        snapshot = super().__new__(cls, csr, orders, global_ids)
        starts = np.flatnonzero(np.diff(orders, prepend=-1))  # orders are >= 0
        distinct = orders[starts].astype(np.int64, copy=False)
        bounds = np.append(starts, len(orders)).astype(np.int64)
        snapshot.ranges = distinct, bounds
        snapshot.segments = array("q", np.diff(csr[0]).astype(np.int64, copy=False).tobytes())
        arrays = (distinct, bounds, *csr[:3], global_ids)
        snapshot.arguments = None
        if all(
            vector.dtype == dtype and vector.flags.c_contiguous
            for vector, dtype in zip(arrays, _COMPILED_DTYPES)
        ):
            snapshot.arguments = array("q", [vector.ctypes.data for vector in arrays])
            snapshot.arguments.append(len(distinct))
        return snapshot

    def __reduce__(self):
        return _Snapshot, tuple(self)


class _Vocabulary(dict):
    """Branch key -> id, the ids dense in order of first sight, and each id's cap.

    ``vocabulary[key]`` learns an unseen key (the next id); only the write
    path subscripts.  Reads use ``get``, which never learns.  ``caps[key_id]``
    is the key's largest multiplicity in any single row: a learnt key's cap
    starts at 1 and exists before its id is visible, so a lock-free reader
    that finds an id can always read its cap.
    """

    __slots__ = ("caps",)

    def __init__(self) -> None:
        super().__init__()
        self.caps: List[int] = []

    def __missing__(self, key: Tuple) -> int:
        caps = self.caps
        key_id = len(caps)
        caps.append(1)
        self[key] = key_id
        return key_id


class _TableArrays(NamedTuple):
    offsets: np.ndarray
    phi: np.ndarray
    best: np.ndarray


class PosteriorTable(_TableArrays):
    """One τ̂'s posterior rows, ragged: what a row of :meth:`ColumnarBranchStore.filter_verify_rows` reads.

    Row ``e`` — an extended order ``max(|V_Q|, |V_G|)`` — holds ``Φ(ϕ) =
    Pr[GED <= τ̂ | GBD = ϕ]`` for ``ϕ in 0..e`` at ``phi[offsets[e]:]``, and
    ``best`` its suffix maximum ``M(ϕ) = max_{ϕ' >= ϕ} Φ(ϕ')`` in the same
    layout; ``offsets[e]`` is -1 for a row not filled.  A table is sized by
    the rows it holds, ``Σ (e + 1)`` cells, not by the largest order.

    ``M`` serves both reducers.  Read at a GBD *lower bound* it upper-bounds
    the posterior of every row of that order (the k-best bound), and because
    it is non-increasing, ``M(ϕ) >= γ`` exactly when ``ϕ`` is at most the
    largest accepting GBD ``max{ϕ : Φ(ϕ) >= γ}`` — Step 4 inverted, sound
    where Φ is not monotone (:meth:`accepting`).  The arrays are read-only;
    :meth:`grown` adds rows by copying, so a row once published never
    changes.

    A table is the tuple of its three arrays (int64, float64, float64,
    contiguous), and carries ``arguments``, what the compiled reducer takes
    of it: the addresses of ``offsets``, ``phi`` and ``best`` with the
    length of ``offsets`` and the cells ``min(len(phi), len(best))`` (the
    ``ROW_OFFSETS`` .. ``ROW_CELLS`` slots of a query's row in
    ``_kernels.c``).  They are derived once, when the table is built; the
    table holds the arrays they name, and a pickled table carries its arrays
    only.
    """

    def __new__(cls, offsets, phi, best):
        table = super().__new__(
            cls,
            np.ascontiguousarray(offsets, dtype=np.int64),
            np.ascontiguousarray(phi, dtype=np.float64),
            np.ascontiguousarray(best, dtype=np.float64),
        )
        table.arguments = (
            table.offsets.ctypes.data, len(table.offsets), table.phi.ctypes.data,
            table.best.ctypes.data, min(len(table.phi), len(table.best)),
        )
        return table

    def __reduce__(self):
        return PosteriorTable, tuple(self)

    @classmethod
    def from_rows(cls, rows: Mapping[int, Sequence[float]]) -> "PosteriorTable":
        """The table holding ``rows[e]`` (``Φ(0..e)``, its first ``e + 1`` values) as row ``e``."""
        return _EMPTY_TABLE.grown(rows)

    def filled(self, order: int) -> bool:
        """Whether row ``order`` is filled (never for a negative order)."""
        return 0 <= order < len(self.offsets) and self.offsets[order] >= 0

    def row(self, order: int) -> np.ndarray:
        """``Φ(0..order)``, a read-only view; ``ValueError`` unless row ``order`` is filled."""
        start = self._start(order)
        return self.phi[start : start + order + 1]

    def accepting(self, order: int, gamma: float) -> int:
        """``max{ϕ : Φ(ϕ) >= γ}`` at this order, or -1: a binary search on ``M``, non-increasing.

        ``ValueError`` unless row ``order`` is filled.
        """
        start = self._start(order)
        return int(np.searchsorted(-self.best[start : start + order + 1], -gamma, side="right")) - 1

    def _start(self, order: int) -> int:
        if not self.filled(order):
            raise ValueError(f"the table holds no row {order}")
        return int(self.offsets[order])

    def grown(self, rows: Mapping[int, Sequence[float]]) -> "PosteriorTable":
        """A copy with the rows of ``rows`` this table lacks filled too (copy on write).

        ``rows[e]`` gives at least ``e + 1`` values; a row this table already
        holds is kept as it is.  Returns this very table when nothing is new.
        """
        added = {}
        for order, values in rows.items():
            order = int(order)
            if order < 0:
                raise ValueError(f"an extended order is non-negative, got {order}")
            if not self.filled(order):
                values = np.asarray(values, dtype=np.float64)[: order + 1]
                if len(values) != order + 1:
                    raise ValueError(f"row {order} needs {order + 1} values, got {len(values)}")
                added[order] = values
        if not added:
            return self
        orders = sorted(added)
        offsets = np.full(max(len(self.offsets), orders[-1] + 1), -1, dtype=np.int64)
        offsets[: len(self.offsets)] = self.offsets
        lengths = np.asarray(orders, dtype=np.int64) + 1
        offsets[orders] = len(self.phi) + np.cumsum(lengths) - lengths
        phi = np.concatenate([self.phi, *(added[order] for order in orders)])
        best = np.concatenate(
            [self.best, *(np.maximum.accumulate(added[order][::-1])[::-1] for order in orders)]
        )
        return PosteriorTable._frozen(offsets, phi, best)

    @staticmethod
    def _frozen(*arrays: np.ndarray) -> "PosteriorTable":
        for array in arrays:
            array.flags.writeable = False
        return PosteriorTable(*arrays)


_EMPTY_TABLE = PosteriorTable._frozen(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))


class TopK(NamedTuple):
    """The k-best reducer of a :meth:`ColumnarBranchStore.filter_verify_rows` row.

    ``k`` (at least 1) rows are kept.
    """

    k: int


def sparse_row_budget(matched_postings: int, num_rows: int) -> int:
    """Most bound survivors of one query worth verifying by range slices.

    The dense plan touches every matched posting once and then classifies all
    ``D`` rows: ``Σseg + D``.  The sparse plan touches only the postings of
    the ``E`` surviving rows — ``E / D`` of them when postings spread evenly
    over rows — each charged a binary search's worth (at most ``log2 D``
    steps) for locating its slice, and classifies ``E`` rows: ``(E / D) ·
    (Σseg · log2 D + D)``.  Up to the returned ``E`` the sparse plan is the
    cheaper one.  Everything is read off the query's own postings and the
    snapshot's size, so the rule has no tuning constant and is the same under
    both kernel backends.
    """
    return (
        num_rows
        * (matched_postings + num_rows)
        // max(matched_postings * num_rows.bit_length() + num_rows, 1)
    )


class ColumnarBranchStore:
    """CSR branch-key postings with an append buffer and lazy compaction."""

    def __init__(self, *, backend: str = "auto") -> None:
        #: Resolved kernel backend name (``"numpy"`` or ``"native"``) — the
        #: requested name is resolved once here, so an explicitly requested
        #: but unbuildable ``"native"`` fails at construction, loudly.
        self.backend = resolve_backend(backend)
        _BACKEND_INFO.labels(backend=self.backend).set(1)
        # Branch key -> id, and the per-key norm (``caps``): the largest
        # multiplicity of the key in any single row.  Caps are monotone under
        # appends, which is what makes the lower-bound kernels race-safe (a
        # cap newer than a CSR snapshot only loosens the bound — see
        # matched_query_total).
        self._key_ids = _Vocabulary()
        self._num_rows = 0
        # Largest posting multiplicity compacted so far (decides the counts dtype).
        self._max_count = 0
        # Everything a read needs, swapped atomically as one record.
        self._published = _Snapshot(_EMPTY_CSR, _EMPTY_I64, _EMPTY_I64)
        # The compacted postings again, row-major by graph id: one chunk of
        # rows per compaction, joined when read (see branch_distances).
        self._graph_rows: List[_Rows] = []
        # Append buffer: the postings of the rows appended since the last
        # compaction, one int64 chunk per extend of (key ids, row numbers, counts).
        self._pending_keys: List[np.ndarray] = []
        self._pending_positions: List[np.ndarray] = []
        self._pending_counts: List[np.ndarray] = []
        self._compact_lock = threading.Lock()
        #: Number of compaction passes performed (bulk-load tests pin this).
        self.num_compactions = 0

    @property
    def _kernels(self):
        """The resolved backend's kernel module (one dict probe — hot path)."""
        return backend_module(self.backend)

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_compact_lock"]  # locks are not picklable
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._compact_lock = threading.Lock()
        # A snapshot restored on another machine keeps its configured
        # backend name; backend_module degrades native->numpy with a
        # warning if this host cannot build the library.
        _BACKEND_INFO.labels(backend=self.backend).set(1)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def extend(
        self,
        keys: Sequence[Tuple],
        sizes: Sequence[int],
        *,
        commit: Optional[Callable[[], None]] = None,
    ) -> None:
        """Buffer one row per graph of a batch, under one acquisition of the compaction lock.

        ``keys`` is the batch's branch keys vertex by vertex, graph after graph
        (:func:`~repro.core.branches.branch_keys`): row ``i`` is the next
        ``sizes[i]`` of them, ``sizes[i]`` its graph's ``|V_G|``.  The rows
        take the next row numbers (``num_graphs`` onwards), which are their
        graphs' ids.  O(|branches|) bookkeeping that leaves the published
        snapshot alone; the next :meth:`compact` pays for the write.
        ``commit``, when given, runs last under the same lock: the database
        lists the batch's graphs there, so no compaction publishes a row
        before its graph is listed.

        One ``map`` of the vocabulary's subscript turns the keys into ids,
        learning each unseen key once, in order of first sight (its cap
        starts at 1); one NumPy pass then counts the (row, key id) pairs, and
        only the counts above 1 — the ones that can raise a cap — are looked
        at again.  A row's postings are buffered in ascending key id.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        if int(sizes.sum()) != len(keys):
            raise ValueError("extend: the row sizes do not add up to the number of keys")
        with self._compact_lock:
            vocabulary = self._key_ids
            key_ids = np.fromiter(
                map(vocabulary.__getitem__, keys), dtype=np.int64, count=len(keys)
            )
            width = max(len(vocabulary), 1)
            rows = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
            pairs, counts = np.unique(rows * width + key_ids, return_counts=True)
            rows, key_ids = np.divmod(pairs, width)
            raised = counts > 1
            if raised.any():
                largest = np.zeros(width, dtype=np.int64)
                np.maximum.at(largest, key_ids[raised], counts[raised])
                touched = np.flatnonzero(largest)
                caps = vocabulary.caps
                for key_id, count in zip(touched.tolist(), largest[touched].tolist()):
                    if count > caps[key_id]:
                        caps[key_id] = count
            self._pending_keys.append(key_ids)
            self._pending_positions.append(rows + self._num_rows)
            self._pending_counts.append(counts)
            self._num_rows += len(sizes)
            if commit is not None:
                commit()

    def _is_compacted(self) -> bool:
        """Whether the published snapshot already covers every appended row."""
        return self._num_rows == self._published.csr[3]

    def compact(self) -> bool:
        """Publish the next snapshot if anything was appended; return whether work was done.

        The one place a write is paid for, in one linear pass over the
        previous snapshot (O(P + D + n log n + p) for P postings, D rows, and
        n new rows carrying p pending postings — only the new rows are sorted):

        * the new rows are interleaved into their order's range, each behind
          the rows of its order that arrived before it: old positions move
          through one monotone shift table (an old row moves by the number of
          new rows of a smaller order), and ``orders`` / ``global_ids`` / the
          ranges are re-laid out in O(D);
        * each key's old posting segment, its positions sent through the
          shift, moves by the room the keys before it grew, and its pending
          postings — visited by new position — are merged into it, so
          segments stay sorted by position;
        * the pending postings, as they arrived, become the next chunk of the
          row-major copy (:meth:`branch_distances`): arrival order is graph-id
          order.

        The result is the layout a store built in one go over the same rows
        has (a stable sort of every row by order).  The pass runs in the
        store's kernel backend under the compaction lock and publishes the
        result as one record swap, so concurrent readers are never exposed to
        a torn state.

        ``positions``/``counts`` use int32 while every row index and posting
        multiplicity fits (:data:`_POSITION_DTYPE_LIMIT` /
        :data:`_COUNT_DTYPE_LIMIT`), promoting to int64 otherwise.  Both
        decisions are value-safe in either direction: positions are bounded
        by the row count and counts by the largest multiplicity seen, which
        are exactly the quantities checked.
        """
        if self._is_compacted():
            return False
        with self._compact_lock:
            if self._is_compacted():
                return False  # another thread compacted while we waited
            previous = self._published
            old_rows, num_rows = previous.csr[3], self._num_rows
            # Pending postings come row by row in arrival order: a new row's
            # |V_G| is the sum of its counts (one branch per vertex).
            rows = _joined(self._pending_positions) - old_rows
            keys = _joined(self._pending_keys)
            counts = _joined(self._pending_counts)
            per_row = np.bincount(rows, minlength=num_rows - old_rows)
            added = np.bincount(rows, weights=counts, minlength=len(per_row)).astype(np.int64)
            # New row i lands behind the old rows of an order <= its own and
            # the new rows sorted before it; an old row moves by the new rows
            # that land at or before it.
            by_order = np.argsort(added, kind="stable")
            at = np.searchsorted(previous.orders, added[by_order], side="right")
            placed = np.empty(len(added), dtype=np.int64)
            placed[by_order] = at + np.arange(len(added))
            shift = np.arange(old_rows) + np.cumsum(np.bincount(at, minlength=old_rows + 1))[
                :old_rows
            ]
            orders = np.empty(num_rows, dtype=np.int64)
            orders[shift] = previous.orders
            orders[placed] = added
            global_ids = np.empty(num_rows, dtype=np.int64)
            global_ids[shift] = previous.global_ids
            global_ids[placed] = np.arange(old_rows, num_rows)

            # Visit the new rows by position instead, so each key's postings ascend.
            first, run = (np.cumsum(per_row) - per_row)[by_order], per_row[by_order]
            visit = np.repeat(first - (np.cumsum(run) - run), run) + np.arange(len(rows))
            pending = (keys[visit], placed[rows[visit]], counts[visit])
            self._max_count = int(pending[2].max(initial=self._max_count))
            count_dtype = np.int32 if self._max_count <= _COUNT_DTYPE_LIMIT else np.int64
            key_dtype = np.int32 if len(self._key_ids) <= _POSITION_DTYPE_LIMIT else np.int64
            self._graph_rows.append((per_row, keys.astype(key_dtype), counts.astype(count_dtype)))
            del rows, visit, keys, counts  # the largest temporaries of a bulk load
            arrays = self._kernels.merge_postings(
                previous.csr,
                pending,
                len(self._key_ids),
                shift,
                np.int32 if num_rows <= _POSITION_DTYPE_LIMIT else np.int64,
                count_dtype,
            )
            self._published = _Snapshot((*arrays, num_rows), orders, global_ids)
            self._pending_keys = []
            self._pending_positions = []
            self._pending_counts = []
            self.num_compactions += 1
        return True

    def view(self) -> _Snapshot:
        """Return the published read snapshot ``(csr, orders, global_ids)``, by position.

        ``csr`` is the ``(offsets, positions, counts, rows)`` tuple and the
        two vectors are indexed by position, like the CSR and the reducers'
        hits; the record also carries the snapshot's ``ranges`` (see
        :class:`_Snapshot`).  A whole query computes against arrays of one
        length whose every row is covered by the CSR — concurrent additions
        become visible only between queries, never as a torn mix or a graph
        with silently missing postings.  The first read after a write pays
        the compaction here.  Every read takes the record back as ``view=``
        to compute against it, superseded or not, and builds nothing.
        """
        self.compact()
        return self._published

    # ------------------------------------------------------------------ #
    # shape
    # ------------------------------------------------------------------ #
    @property
    def num_graphs(self) -> int:
        """Number of rows (database graphs) covered by the store."""
        return self._num_rows

    @property
    def num_keys(self) -> int:
        """Number of distinct branch keys in the vocabulary."""
        return len(self._key_ids)

    @property
    def num_postings(self) -> int:
        """Total postings held (compacted segment plus append buffer)."""
        return len(self._published.csr[1]) + self._num_pending

    @property
    def _num_pending(self) -> int:
        return sum(map(len, self._pending_keys))

    # ------------------------------------------------------------------ #
    # postings access
    # ------------------------------------------------------------------ #
    def branch_distances(self, pairs: Sequence[Tuple[int, int]]) -> List[int]:
        """``GBD`` (Definition 4) of each ``(i, j)`` pair of graph ids, self-pairs included.

        Read off the row-major copy (its chunks joined into one first, under
        the compaction lock): both rows of every pair are gathered,
        tagged with their pair and sorted by ``(pair, key id)``, so a key the
        two rows share is two adjacent entries; ``|B_i ∩ B_j|`` sums the
        smaller counts of those, and ``|V|`` of a row is the sum of its counts.
        Vectorized over all pairs — the offline stage's sampled pairs cost a
        gather and one sort, with no per-graph multiset anywhere.
        """
        self.compact()
        with self._compact_lock:
            if len(self._graph_rows) > 1:
                self._graph_rows[:] = [tuple(map(np.concatenate, zip(*self._graph_rows)))]
            per_row, keys, counts = self._graph_rows[0] if self._graph_rows else (_EMPTY_I64,) * 3
        offsets = np.concatenate(([0], np.cumsum(per_row)))
        sides = np.asarray(pairs, dtype=np.int64).reshape(-1)
        num_pairs = len(sides) // 2
        starts = offsets[sides]
        lengths = offsets[sides + 1] - starts
        side = np.repeat(np.arange(len(sides)), lengths)
        gathered = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(len(side))
        values = counts[gathered].astype(np.int64)
        orders = np.bincount(side, weights=values, minlength=len(sides)).astype(np.int64)
        width = max(len(self._key_ids), 1)
        tagged = (side // 2) * width + keys[gathered]
        by_key = np.argsort(tagged)
        tagged, values = tagged[by_key], values[by_key]
        shared = np.flatnonzero(tagged[1:] == tagged[:-1])
        intersections = np.bincount(
            tagged[shared] // width,
            weights=np.minimum(values[shared], values[shared + 1]),
            minlength=num_pairs,
        ).astype(np.int64)
        return (np.maximum(orders[0::2], orders[1::2]) - intersections).tolist()

    def _match(
        self, query_branches: Counter, snapshot: _Snapshot
    ) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """The vocabulary pass of a one-query read (:meth:`_match_into`).

        Returns ``(key_ids, query_counts, matched_total, matched_postings)``,
        the key arrays int64 (possibly empty).
        """
        key_ids = array("q")
        query_counts = array("q")
        total, postings = self._match_into(query_branches, snapshot, key_ids, query_counts)
        if not key_ids:
            return _EMPTY_I64, _EMPTY_I64, total, postings
        return (
            np.frombuffer(key_ids, dtype=np.int64),
            np.frombuffer(query_counts, dtype=np.int64),
            total,
            postings,
        )

    def _match_into(
        self,
        query_branches: Counter,
        snapshot: _Snapshot,
        key_ids: array,
        query_counts: array,
    ) -> Tuple[int, int]:
        """The vocabulary pass of one query: append its matched keys, return two sums.

        Appended to the int64 buffers ``key_ids`` / ``query_counts`` — those
        the kernel reads, with no copy in between — are the query's branch keys
        the snapshot can answer for and their counts: keys newer than its CSR
        (possible only mid-concurrent-append) are treated as unknown, keeping
        the whole read consistent with one snapshot.  Returned are
        ``matched_total`` — :meth:`matched_query_total`: it reads the *live*
        caps over every known vocabulary key, newer ones included (a newer cap
        only loosens the bound) — and ``matched_postings``, the postings of the
        appended keys' segments: what one dense walk of them reads, the input
        of :func:`sparse_row_budget`.  This is the only Python-level loop of
        the query kernels, so a read runs it once per query.
        """
        caps = self._key_ids.caps
        lookup = self._key_ids.get
        segments = snapshot.segments
        known = len(segments)
        append_key = key_ids.append
        append_count = query_counts.append
        total = postings = 0
        for key, count in query_branches.items():
            key_id = lookup(key)
            if key_id is None:
                continue
            cap = caps[key_id]
            total += count if count <= cap else cap
            if key_id < known:
                append_key(key_id)
                append_count(count)
                postings += segments[key_id]
        return total, postings

    # ------------------------------------------------------------------ #
    # vectorized intersection / GBD kernels
    # ------------------------------------------------------------------ #
    def intersection_row(
        self, query_branches: Counter, *, view: Optional[_Snapshot] = None
    ) -> np.ndarray:
        """Return ``|B_Q ∩ B_G|`` for every row as a dense ``(D,)`` array, by position.

        One vocabulary pass over the query's branch keys, then the selected
        backend accumulates the matching CSR segments (a vectorized gather
        plus ``bincount`` scatter-add on numpy, a direct segment scatter in
        C).  ``view`` optionally pins the snapshot the caller is computing
        against (see :meth:`view`); the current one otherwise.
        """
        snapshot = self.view() if view is None else view
        num_graphs = snapshot.csr[3]
        key_ids, query_counts, _total, _postings = self._match(query_branches, snapshot)
        calls, rows = _counters(self.backend).row
        calls.inc()
        rows.inc(num_graphs)
        if len(key_ids) == 0:
            return np.zeros(num_graphs, dtype=np.int64)
        return self._kernels.intersection_row(snapshot, key_ids, query_counts)

    # ------------------------------------------------------------------ #
    # the GBD lower bound the fused reads apply per range
    # ------------------------------------------------------------------ #
    def matched_query_total(self, query_branches: Counter) -> int:
        """Upper bound on ``|B_Q ∩ B_G|`` valid for *every* row: ``Σ_k min(q_k, cap_k)``.

        One vocabulary pass over the query's branch keys; keys absent from
        the vocabulary can match nothing and contribute 0.  Reading the live
        caps while a concurrent append raises them is safe: a larger cap
        only loosens the bound (never past ``|B_Q|``), so the derived GBD
        lower bound stays a true lower bound for any CSR snapshot.
        """
        return self._match(query_branches, self._published)[2]

    def gbd_lower_bound_row(
        self,
        num_query_vertices: int,
        query_branches: Counter,
        *,
        view: Optional[_Snapshot] = None,
    ) -> np.ndarray:
        """Vectorized lower bound on ``GBD(Q, G)`` for every row, by position — O(1) per row.

        ``|B_Q ∩ B_G| <= min(Σ_k min(q_k, cap_k), |B_G|)`` (the per-key-cap
        and branch-count norms), so

        ``GBD(Q, G) >= max(|V_Q|, |V_G|) - min(matched_total, |V_G|)``.

        Because ``matched_total <= |B_Q| = |V_Q|``, this dominates the plain
        size-difference bound ``| |V_Q| - |V_G| |``.  No postings are
        traversed.  The reducers of :meth:`filter_verify_rows` apply the same
        bound once per order range; this dense form is their NumPy reference,
        with no kernel behind it.  ``view`` pins the snapshot as in
        :meth:`intersection_row`.
        """
        orders = (self.view() if view is None else view).orders
        total = self.matched_query_total(query_branches)
        return np.maximum(int(num_query_vertices), orders) - np.minimum(total, orders)

    # ------------------------------------------------------------------ #
    # fused filter → verify → reduce (the two reducers of the execution core)
    # ------------------------------------------------------------------ #
    def filter_verify_rows(self, rows: Sequence[Tuple], *, view: Optional[_Snapshot] = None):
        """Bound filter, exact GBDs and each query's reducer, for a batch of queries in one pass.

        ``rows`` holds one ``(num_query_vertices, query_branches, table,
        reducer)`` per query.  ``table`` is the query's τ̂
        :class:`PosteriorTable`, which must hold a row for every extended
        order ``max(|V_Q|, |V_G|)`` of the snapshot: a row whose table lacks
        one, or whose offsets run past its cells, is refused with
        ``ValueError`` before any row of the batch is reduced.  Per distinct
        ``|V_G|`` the GBD lower bound ``ϕ`` is read against the table's
        suffix maximum ``M(ϕ)``; ``reducer`` names what is kept of the
        verified rows:

        * **γ** (a number) — the rows with ``Φ(GBD) >= γ``.  A range with
          ``M(ϕ) < γ`` cannot hold one (its every GBD is above the largest
          accepting one) and is not verified.  The query's result is
          ``(positions, gbds, eligible, verified, sparse)``: the *hits*'
          ascending positions and their GBDs (``max(|V_Q|, |V_G|) - |B_Q ∩
          B_G|``, exactly ``order - intersection_row(..., view=...)[positions]``),
          and the bool mask of the ranges the bound kept.
        * **k best** (:class:`TopK`) — the ``k`` rows first under ``(-score,
          graph id)``.  ``M(ϕ)`` is a posterior *upper* bound shared by the
          rows of a range; ranges are verified by descending bound until one
          falls strictly below the k-th best score so far, zero-bound ranges
          never (their score is 0.0: they fill a short or zero-tailed ranking
          by smallest graph id).  The result is ``(ids, scores, visited,
          verified, sparse)``: the graph ids and scores of at most ``k`` rows,
          ranked (the ranking's first ``k``), and the mask of the ranges
          verified.

        ``sparse`` / ``verified`` are the plan taken and the rows it verified:
        ``None`` / 0 when nothing was; ``True`` / those rows when they fit the
        query's :func:`sparse_row_budget` (range slices: no other row's
        postings are touched); ``False`` and every row (γ) or the rows of the
        ranges visited (k best) once a dense walk of the matched posting
        segments was cheaper — the k-best reducer switches mid-walk, when the
        rows verified plus the next range exceed the budget.

        Every query computes against one snapshot, and the queries share
        nothing else: a query's answer is the same in any batch.  One
        vocabulary pass per query and one kernel call for the batch; on the
        native backend that is one C call (two or more only when the hits
        outgrow a buffer with room for two queries that hit every row; a
        k-best query has at most ``k``), which hands back the hits and nothing
        ``D`` long.  ``repro_kernel_calls_total`` counts one call per query of
        the batch: a γ query as ``filter_verify_rows`` producing one cell per
        distinct order, a k-best one as ``row`` producing the rows it
        verified (all ``D`` once the dense walk ran) — what a one-query top-k
        pass has always counted, so the top-k reading of ``rows / calls``
        keeps its meaning.
        """
        snapshot = self.view() if view is None else view
        csr, ranges = snapshot.csr, snapshot.ranges
        key_ids = array("q")
        query_counts = array("q")
        kernel_rows = []
        ranked = 0
        for num_query_vertices, query_branches, table, reducer in rows:
            if isinstance(reducer, TopK):
                k = int(reducer.k)
                if k < 1:
                    raise ValueError("k must be a positive integer")
                gamma = 0.0
                ranked += 1
            else:
                k, gamma = 0, float(reducer)
            first = len(key_ids)
            total, postings = self._match_into(query_branches, snapshot, key_ids, query_counts)
            kernel_rows.append((
                int(num_query_vertices), total, len(key_ids) - first,
                sparse_row_budget(postings, csr[3]), table, gamma, k,
            ))
        found = self._kernels.filter_verify_rows(snapshot, kernel_rows, key_ids, query_counts)
        counters = _counters(self.backend)
        if ranked < len(rows):
            calls, cells = counters.filter_verify_rows
            calls.inc(len(rows) - ranked)
            cells.inc((len(rows) - ranked) * len(ranges[0]))
        if ranked:
            produced = 0
            for row, result in zip(kernel_rows, found):
                if row[6]:
                    produced += csr[3] if result[4] is False else result[3]
            calls, cells = counters.row
            calls.inc(ranked)
            cells.inc(produced)
        return found

    def __repr__(self) -> str:
        return (
            f"<ColumnarBranchStore rows={self.num_graphs} keys={self.num_keys} "
            f"postings={self.num_postings} pending={self._num_pending} "
            f"backend={self.backend}>"
        )
