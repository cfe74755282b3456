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
(:meth:`order_ranges`) and, because each key's posting segment is sorted by
position, the rows of one ``(key, |V_G|)`` pair are one slice of that
segment.  Algorithm 1 decides Steps 2–4 once per distinct extended order; the
layout makes that grouping physical, so the reducers read eligibility as
ranges and verify a range by slicing the matched segments.  The CSR, the
vectors of :meth:`view` and the reducers' hits speak positions.  Every
public ``D``-length row — :meth:`intersection_row`, :meth:`gbd_row`,
:meth:`gbd_lower_bound_row`, :meth:`orders`, :meth:`global_ids` — is indexed
by *arrival* instead (the row number :meth:`append` returns), gathered once
at the store boundary; only a caller that pins a :meth:`view` reads
positions, paired with that view's own vectors.  :meth:`global_ids` maps a
row back to its database graph id; for a
:class:`~repro.db.database.GraphDatabase` arrival and graph id coincide.

The kernels themselves live in :mod:`repro.db.kernels` behind a pluggable
``backend`` (``"numpy"`` | ``"native"`` | ``"auto"``): this class owns the
vocabulary pass, the layout, the published snapshot, and the metrics, and
dispatches the array work to the selected backend.  Every read is one query
against one snapshot — there is no batched ``(Q, D)`` form.  The two reducers
of the execution core run inside the store call that verifies:
:meth:`filter_verify_row` (bound filter per range → range slices or dense
walk → γ threshold) returns the accepted rows and :meth:`filter_verify_topk`
(ranges in bound order → range slices or dense walk → k-best, cut off by the
k-th score) at most ``k`` scored ones, so on the ``native`` backend — one C
call each — neither pruned-out candidates nor a ``D``-length row ever reach
NumPy.

Incremental additions go through an **append buffer**: :meth:`append` /
:meth:`extend` are ``O(|branches|)`` bookkeeping with no Python statement per
posting — a batch's key ids are one ``map`` of the vocabulary's ``get`` over
its branch keys and each pending buffer is extended once — and :meth:`compact`,
run lazily by the next read, is the one place a write is paid for.  It takes
the previous published snapshot and produces the next in one linear pass: the
new rows are interleaved into their order's range, old positions go through
one monotone shift table, and each key's pending postings are merged into its
sorted segment.  Only the new rows are sorted (by order).  A bulk load of
``k`` graphs costs one compaction, not ``k`` (see
:meth:`~repro.db.database.GraphDatabase.add_many`).

Concurrency: queries may run from several threads sharing one engine (the
serving executor with ``num_workers > 1``), so everything a read needs — CSR
arrays, row vectors, order ranges — is published as one snapshot record
swapped behind a compaction lock, and readers operate on one snapshot for
the whole query — a query racing a compaction sees either the pre-add or
post-add postings, never a torn mix.  Mutation (:meth:`append` /
:meth:`extend`) takes the same lock.
"""

from __future__ import annotations

import threading
from collections import Counter
from itertools import chain, compress, repeat
from operator import gt
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.db.kernels import backend_module, resolve_backend
from repro.obs.metrics import get_registry

__all__ = ["ColumnarBranchStore"]

# Kernel call/row counters (repro.obs): children are bound once per backend
# and cached at module level — the kernels below are the hot path of every
# online query, and children must never live on store instances (stores
# stay picklable).  Rows count the cells each call produced (D for a dense
# row — the top-k reducer counts here too: D when it walked the dense row,
# else the rows of the ranges it verified — U distinct orders for the fused
# filter), making ``rows / calls`` an instant read on how selective the
# pruned layer is.
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

    __slots__ = ("row", "bound_row", "filter_verify_row")

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


class _Snapshot:
    """One published read state: the CSR and its row vectors, all by position.

    ``orders`` (non-decreasing) and ``global_ids`` are indexed by position,
    ``ranges`` is ``(distinct orders, bounds)`` — the rows of order
    ``distinct[u]`` are the positions ``bounds[u]:bounds[u + 1]`` — and
    ``slots[r]`` is the position of the row that arrived ``r``-th, which is
    how public rows are gathered back into arrival order.  Nothing in a
    snapshot changes after it is published, and nothing is built lazily.
    """

    __slots__ = ("csr", "orders", "global_ids", "ranges", "slots")

    def __init__(self, csr, orders, global_ids, slots):
        self.csr: _Csr = csr
        self.orders: np.ndarray = orders
        self.global_ids: np.ndarray = global_ids
        self.slots: np.ndarray = slots
        starts = np.flatnonzero(np.diff(orders, prepend=-1))  # orders are >= 0
        self.ranges: Tuple[np.ndarray, np.ndarray] = (
            orders[starts],
            np.append(starts, len(orders)).astype(np.int64),
        )

    @classmethod
    def laid_out(cls, csr, orders: np.ndarray, global_ids: np.ndarray) -> "_Snapshot":
        """The snapshot of ``csr`` from its rows' arrival-order vectors, from scratch.

        The layout is a function of the arrival orders alone — a stable sort
        — so this is also what :meth:`ColumnarBranchStore.compact` carries,
        and the record a reader pinned to a superseded CSR gets.
        """
        by_order = np.argsort(orders, kind="stable")
        slots = np.empty(len(orders), dtype=np.int64)
        slots[by_order] = np.arange(len(orders))
        return cls(csr, orders[by_order], global_ids[by_order], slots)


def _segment_total(offsets: np.ndarray, key_ids: np.ndarray) -> int:
    """Σ posting-segment lengths of the given keys: what one dense row walks."""
    return int((offsets[key_ids + 1] - offsets[key_ids]).sum())


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

    def __init__(self, entries: Iterable = (), *, backend: str = "auto") -> None:
        #: Resolved kernel backend name (``"numpy"`` or ``"native"``) — the
        #: requested name is resolved once here, so an explicitly requested
        #: but unbuildable ``"native"`` fails at construction, loudly.
        self.backend = resolve_backend(backend)
        _BACKEND_INFO.labels(backend=self.backend).set(1)
        self._key_ids: Dict[Tuple, int] = {}
        self._keys: List[Tuple] = []
        # Per-key norm: the largest multiplicity of the key in any single
        # row.  Monotone under appends, which is what makes the lower-bound
        # kernels race-safe (a cap newer than a CSR snapshot only loosens
        # the bound — see matched_query_total).
        self._key_caps: List[int] = []
        # Per-row metadata in arrival order: growable int64 buffers written
        # only past the published rows, so a prefix of them never changes.
        self._arrival_ids = np.empty(0, dtype=np.int64)
        self._arrival_orders = np.empty(0, dtype=np.int64)
        self._num_rows = 0
        # Largest posting multiplicity compacted so far (decides the counts dtype).
        self._max_count = 0
        # Everything a read needs, swapped atomically as one record.
        self._published = _Snapshot(_EMPTY_CSR, _EMPTY_I64, _EMPTY_I64, _EMPTY_I64)
        # Append buffer: parallel lists of (key id, arrival row, count).
        self._pending_keys: List[int] = []
        self._pending_positions: List[int] = []
        self._pending_counts: List[int] = []
        self._caps_cache: Optional[np.ndarray] = None
        self._compact_lock = threading.Lock()
        #: Number of compaction passes performed (bulk-load tests pin this).
        self.num_compactions = 0
        self.extend(entries)

    @property
    def _kernels(self):
        """The resolved backend's kernel module (one dict probe — hot path)."""
        return backend_module(self.backend)

    def __getstate__(self):
        # Only the CSR and the arrival-order row vectors are pickled; the
        # position-order vectors and ranges are 3 x D + U int64 the
        # receiving side lays out again in O(D log D).
        state = self.__dict__.copy()
        del state["_compact_lock"]  # locks are not picklable
        state["_published"] = self._published.csr
        state["_arrival_orders"] = self._arrival_orders[: self._num_rows]
        state["_arrival_ids"] = self._arrival_ids[: self._num_rows]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._compact_lock = threading.Lock()
        csr = self._published
        self._published = _Snapshot.laid_out(
            csr, self._arrival_orders[: csr[3]], self._arrival_ids[: csr[3]]
        )
        # A snapshot restored on another machine keeps its configured
        # backend name; backend_module degrades native->numpy with a
        # warning if this host cannot build the library.
        _BACKEND_INFO.labels(backend=self.backend).set(1)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def append(self, entry) -> int:
        """Buffer one :class:`~repro.db.database.StoredGraph`; return its arrival row.

        O(|branches|) bookkeeping that leaves the published snapshot alone; the
        next :meth:`compact` pays for the write.  Runs under the compaction lock
        so a reader-triggered merge never sees a half-written buffer entry.
        """
        with self._compact_lock:
            return self._extend((entry,))

    def extend(self, entries: Iterable) -> None:
        """Buffer several entries under one acquisition of the compaction lock."""
        entries = list(entries)
        with self._compact_lock:
            self._extend(entries)

    def _extend(self, entries) -> int:
        """Buffer ``entries`` (lock held); return the arrival row of the first.

        No Python statement runs per posting: the loops below visit only keys
        the vocabulary has not seen (:meth:`_learn_key`, once per new key) and
        multiplicities above 1 — at least 1 each, so only those can raise a cap.
        """
        first = self._num_rows
        rows = first + len(entries)
        if rows > len(self._arrival_orders):
            # Doubling keeps appends amortised O(1); published snapshots keep
            # viewing the buffer they were cut from.
            capacity = max(2 * rows, 64)
            for name in ("_arrival_orders", "_arrival_ids"):
                grown = np.empty(capacity, dtype=np.int64)
                grown[:first] = getattr(self, name)[:first]
                setattr(self, name, grown)
        self._arrival_ids[first:rows] = [entry.graph_id for entry in entries]
        self._arrival_orders[first:rows] = [entry.num_vertices for entry in entries]
        multisets = [entry.branches for entry in entries]
        keys = list(chain.from_iterable(multisets))
        counts = list(chain.from_iterable(map(dict.values, multisets)))
        lookup = self._key_ids.get
        key_ids = list(map(lookup, keys))
        slot = -1
        for _ in range(key_ids.count(None)):
            slot = key_ids.index(None, slot + 1)
            key_id = lookup(keys[slot])  # an earlier entry of the batch may have brought it
            if key_id is None:
                key_id = self._learn_key(keys[slot], counts[slot])
            key_ids[slot] = key_id
        caps = self._key_caps
        for key_id, count in compress(zip(key_ids, counts), map(gt, counts, repeat(1))):
            if count > caps[key_id]:
                caps[key_id] = int(count)
        self._pending_keys += key_ids
        self._pending_positions += chain.from_iterable(
            map(repeat, range(first, rows), map(len, multisets))
        )
        self._pending_counts += counts
        self._num_rows = rows
        self._caps_cache = None
        return first

    def _learn_key(self, key: Tuple, count: int) -> int:
        """The vocabulary's slow path: the id of a branch key seen for the first time."""
        key_id = self._key_ids[key] = len(self._keys)
        self._keys.append(key)
        self._key_caps.append(int(count))
        return key_id

    def _is_compacted(self) -> bool:
        """Whether the published snapshot already covers every posting *and* row.

        Both conditions matter: an appended entry with zero branches grows
        the row count without touching the buffer.  (A key new to the
        vocabulary always arrives with a pending posting.)
        """
        return not self._pending_keys and self._published.csr[3] == self._num_rows

    def compact(self) -> bool:
        """Publish the next snapshot if anything was appended; return whether work was done.

        The one place a write is paid for, in one linear pass over the
        previous snapshot (O(P + D + n log n + p) for P postings, D rows, and
        n new rows carrying p pending postings — only the new rows are sorted):

        * the new rows are interleaved into their order's range, each behind
          the rows of its order that arrived before it: old positions move
          through one monotone shift table (an old row moves by the number of
          new rows of a smaller order), and ``orders`` / ``global_ids`` /
          ``slots`` / the ranges are re-laid out in O(D);
        * each key's old posting segment, its positions sent through the
          shift, moves by the room the keys before it grew, and its pending
          postings — visited by new position — are merged into it, so
          segments stay sorted by position.

        The result equals :meth:`_Snapshot.laid_out` over the grown rows.  The
        pass runs in the store's kernel backend under the compaction lock and
        publishes the result as one record swap, so concurrent readers are
        never exposed to a torn state.

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
            added = self._arrival_orders[old_rows:num_rows]
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
            global_ids[placed] = self._arrival_ids[old_rows:num_rows]

            # Pending postings come row by row in arrival order; visit the rows
            # by new position instead, so each key's postings ascend.
            rows = np.asarray(self._pending_positions, dtype=np.int64) - old_rows
            per_row = np.bincount(rows, minlength=len(added))
            first, run = (np.cumsum(per_row) - per_row)[by_order], per_row[by_order]
            visit = np.repeat(first - (np.cumsum(run) - run), run) + np.arange(len(rows))
            pending = (
                np.asarray(self._pending_keys, dtype=np.int64)[visit],
                placed[rows[visit]],
                np.asarray(self._pending_counts, dtype=np.int64)[visit],
            )
            del rows, visit  # the largest temporaries of a bulk load
            self._max_count = int(pending[2].max(initial=self._max_count))
            arrays = self._kernels.merge_postings(
                previous.csr,
                pending,
                len(self._keys),
                shift,
                np.int32 if num_rows <= _POSITION_DTYPE_LIMIT else np.int64,
                np.int32 if self._max_count <= _COUNT_DTYPE_LIMIT else np.int64,
            )
            self._published = _Snapshot(
                (*arrays, num_rows),
                orders,
                global_ids,
                np.concatenate((shift[previous.slots], placed)),
            )
            self._pending_keys = []
            self._pending_positions = []
            self._pending_counts = []
            self.num_compactions += 1
        return True

    def _snapshot(self) -> _Snapshot:
        """Compact if needed and return the published snapshot."""
        self.compact()
        return self._published

    @property
    def _csr(self) -> _Csr:
        """The published CSR tuple (what the dtype-layout tests inspect)."""
        return self._published.csr

    def view(self) -> Tuple[_Csr, np.ndarray, np.ndarray]:
        """Return one coherent ``(csr, orders, global_ids)`` read snapshot, by position.

        ``csr`` is the ``(offsets, positions, counts, rows)`` tuple and the
        two vectors are indexed by position, like the CSR and the reducers'
        hits; the three pieces belong to one published snapshot record, so a
        whole query computes against arrays of one length whose every row is
        covered by the CSR — concurrent additions become visible only between
        queries, never as a torn mix or a graph with silently missing
        postings.  The first read after a write pays the compaction here.
        """
        snapshot = self._snapshot()
        return snapshot.csr, snapshot.orders, snapshot.global_ids

    def _snapshot_of(self, csr: _Csr) -> _Snapshot:
        """The snapshot record ``csr`` belongs to.

        A reader still computing against a superseded snapshot gets a record
        of its own, laid out from scratch and uncached — the arrival-order row
        buffers are append-only, so the prefix its CSR covers is still what it
        was, and the layout is a function of that prefix.
        """
        snapshot = self._published
        if snapshot.csr is not csr:
            rows = csr[3]
            snapshot = _Snapshot.laid_out(
                csr, self._arrival_orders[:rows], self._arrival_ids[:rows]
            )
        return snapshot

    # ------------------------------------------------------------------ #
    # shape and per-row vectors
    # ------------------------------------------------------------------ #
    @property
    def num_graphs(self) -> int:
        """Number of rows (database graphs) covered by the store."""
        return self._num_rows

    @property
    def num_keys(self) -> int:
        """Number of distinct branch keys in the vocabulary."""
        return len(self._keys)

    @property
    def num_postings(self) -> int:
        """Total postings held (compacted segment plus append buffer)."""
        return len(self._published.csr[1]) + len(self._pending_keys)

    def global_ids(self) -> np.ndarray:
        """Dense ``arrival row -> graph id`` vector of the (compacted) snapshot."""
        return self._arrival_ids[: self._snapshot().csr[3]]

    def orders(self) -> np.ndarray:
        """Dense ``arrival row -> |V_G|`` vector of the (compacted) snapshot."""
        return self._arrival_orders[: self._snapshot().csr[3]]

    def branch_totals(self) -> np.ndarray:
        """Dense ``arrival row -> |B_G|`` vector of total branch counts.

        A graph contributes exactly one branch per vertex (Definition 2), so
        the total branch count of a row equals its vertex count — this is
        the per-graph norm the lower-bound kernels cap intersections with,
        exposed under its own name so the bound math reads as written.
        """
        return self.orders()

    def key_caps(self) -> np.ndarray:
        """Dense ``key id -> max per-row multiplicity`` vector (cached)."""
        if self._caps_cache is None or len(self._caps_cache) != len(self._key_caps):
            self._caps_cache = np.asarray(self._key_caps, dtype=np.int64)
        return self._caps_cache

    # ------------------------------------------------------------------ #
    # postings access
    # ------------------------------------------------------------------ #
    def postings(self, branch_key: Tuple) -> List[Tuple[int, int]]:
        """Return the ``(graph_id, count)`` postings of one branch key, by graph id."""
        snapshot = self._snapshot()
        offsets, positions, counts, _rows = snapshot.csr
        key_id = self._key_ids.get(branch_key)
        if key_id is None or key_id >= len(offsets) - 1:
            return []
        start, end = int(offsets[key_id]), int(offsets[key_id + 1])
        ids = snapshot.global_ids[positions[start:end]]
        return sorted(zip(ids.tolist(), counts[start:end].tolist()))

    def _match(self, query_branches: Counter, csr: _Csr) -> Tuple[np.ndarray, np.ndarray, int]:
        """The vocabulary pass of a read: ``(key_ids, query_counts, matched_total)``.

        The key arrays (int64, possibly empty) cover the query's branch keys
        the snapshot can answer for: keys newer than the supplied CSR
        (possible only mid-concurrent-append) are treated as unknown, keeping
        the whole read consistent with one snapshot.  ``matched_total`` is
        :meth:`matched_query_total`: it reads the *live* caps over every known
        vocabulary key, newer ones included — a newer cap only loosens the
        bound.  This is the only Python-level loop of the query kernels, so a
        read runs it once.
        """
        known = len(csr[0]) - 1
        caps = self._key_caps
        lookup = self._key_ids.get
        key_ids: List[int] = []
        query_counts: List[int] = []
        total = 0
        for key, count in query_branches.items():
            key_id = lookup(key)
            if key_id is None:
                continue
            cap = caps[key_id]
            total += count if count <= cap else cap
            if key_id < known:
                key_ids.append(key_id)
                query_counts.append(count)
        if not key_ids:
            return _EMPTY_I64, _EMPTY_I64, total
        return (
            np.asarray(key_ids, dtype=np.int64),
            np.asarray(query_counts, dtype=np.int64),
            total,
        )

    # ------------------------------------------------------------------ #
    # vectorized intersection / GBD kernels
    # ------------------------------------------------------------------ #
    def intersection_row(
        self, query_branches: Counter, *, view: Optional[Tuple[_Csr, int]] = None
    ) -> np.ndarray:
        """Return ``|B_Q ∩ B_G|`` for every row as a dense ``(D,)`` array, by arrival.

        One vocabulary pass over the query's branch keys, then the selected
        backend accumulates the matching CSR segments (a vectorized gather
        plus ``bincount`` scatter-add on numpy, a direct segment scatter in
        C) and the result is gathered into arrival order.  ``view``
        optionally pins the ``(csr, num_graphs)`` snapshot the caller is
        computing against (see :meth:`view`); the row is then indexed by
        position, like that view's own vectors, and nothing is gathered.
        """
        if view is not None:
            csr, num_graphs = view
        else:
            csr = self._snapshot().csr
            num_graphs = csr[3]
        key_ids, query_counts, _total = self._match(query_branches, csr)
        calls, rows = _counters(self.backend).row
        calls.inc()
        rows.inc(num_graphs)
        if len(key_ids) == 0:
            return np.zeros(num_graphs, dtype=np.int64)
        row = self._kernels.intersection_row(csr, key_ids, query_counts, num_graphs)
        return row if view is not None else row[self._snapshot_of(csr).slots]

    # ------------------------------------------------------------------ #
    # GBD lower-bound kernels and the ranges of the fused reads
    # ------------------------------------------------------------------ #
    def matched_query_total(self, query_branches: Counter) -> int:
        """Upper bound on ``|B_Q ∩ B_G|`` valid for *every* row: ``Σ_k min(q_k, cap_k)``.

        One vocabulary pass over the query's branch keys; keys absent from
        the vocabulary can match nothing and contribute 0.  Reading the live
        caps while a concurrent append raises them is safe: a larger cap
        only loosens the bound (never past ``|B_Q|``), so the derived GBD
        lower bound stays a true lower bound for any CSR snapshot.
        """
        return self._match(query_branches, self._published.csr)[2]

    def gbd_lower_bound_row(
        self,
        num_query_vertices: int,
        query_branches: Counter,
        *,
        db_orders: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorized lower bound on ``GBD(Q, G)`` for every row — O(1) per row.

        ``|B_Q ∩ B_G| <= min(Σ_k min(q_k, cap_k), |B_G|)`` (the per-key-cap
        and branch-count norms), so

        ``GBD(Q, G) >= max(|V_Q|, |V_G|) - min(matched_total, |V_G|)``.

        Because ``matched_total <= |B_Q| = |V_Q|``, this dominates the plain
        size-difference bound ``| |V_Q| - |V_G| |``.  No postings are
        traversed — the whole row costs one vocabulary pass plus two dense
        ops, which is what lets the pruned execution layer discard
        candidates before touching the index.  The row is indexed like the
        order vector it is computed over: :meth:`orders` (arrival) unless
        ``db_orders`` pins another.
        """
        orders = self.orders() if db_orders is None else db_orders
        calls, rows = _counters(self.backend).bound_row
        calls.inc()
        rows.inc(len(orders))
        total = self.matched_query_total(query_branches)
        return self._kernels.gbd_lower_bound_row(int(num_query_vertices), total, orders)

    def order_ranges(self, csr: _Csr) -> Tuple[np.ndarray, np.ndarray]:
        """The ranges of a snapshot's layout: ``(distinct, bounds)``.

        ``distinct`` are the snapshot's distinct ``|V_G|``, ascending, and the
        rows of order ``distinct[u]`` are the positions ``bounds[u]:bounds[u +
        1]`` — what the fused filter-verify kernels consume: eligibility per
        range, candidates as ranges, the order of a row read off its range.
        """
        return self._snapshot_of(csr).ranges

    # ------------------------------------------------------------------ #
    # fused filter → verify → reduce (the two reducers of the execution core)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _checked_table(lut: np.ndarray, num_query_vertices: int, distinct: np.ndarray):
        """``lut`` once it provably has a cell for every ``(order, gbd)`` a read can meet.

        The compiled reducers index the table unchecked (``gbd <= order`` by
        construction, ``order <= max(|V_Q|, largest |V_G|)``, ``distinct``
        ascending), so the rows and columns have to be there before its
        address is handed over.
        """
        largest = max(int(num_query_vertices), int(distinct[-1]) if len(distinct) else 0)
        if lut.ndim != 2 or min(lut.shape[0], lut.shape[1] - 1) <= largest:
            raise ValueError(
                f"posterior table of shape {lut.shape} does not cover extended order {largest}"
            )
        return lut

    def filter_verify_row(
        self,
        num_query_vertices: int,
        query_branches: Counter,
        thresholds: np.ndarray,
        lut: np.ndarray,
        gamma: float,
        max_gbd: Optional[int] = None,
        *,
        view: Optional[Tuple[_Csr, int]] = None,
    ):
        """Bound filter, exact GBDs and the γ threshold of one query, in one pass.

        ``thresholds[i]`` is the caller's max acceptable GBD for rows of
        order ``distinct[i]`` (the snapshot's :meth:`order_ranges`) — the
        γ-threshold inversion of the execution core; ``lut[order, gbd]`` is
        its posterior table for the query's τ̂ (a row per extended order
        ``max(|V_Q|, |V_G|)`` of the snapshot) and ``max_gbd`` the branch-bound
        cap, if any.  Returns ``(positions, gbds, eligible, verified, sparse)``:

        * ``eligible`` — the bool mask of the ranges whose GBD lower bound is
          within their threshold;
        * ``sparse`` / ``verified`` — the plan taken and the rows it verified:
          ``None`` / 0 when no range survives, ``True`` / the eligible rows
          when they fit the query's :func:`sparse_row_budget` (range slices:
          no pruned row's postings are touched), ``False`` / every row
          otherwise (walking the matched posting segments once is cheaper);
        * ``positions`` / ``gbds`` — the *hits*: ascending positions of the
          verified rows with ``GBD <= max_gbd`` and ``lut[order, GBD] >=
          gamma``, and those GBDs (``max(|V_Q|, |V_G|) - |B_Q ∩ B_G|``, exactly
          ``order - intersection_row(..., view=...)[positions]``).

        One vocabulary pass, one kernel call; on the native backend that is
        one C call which hands back the hits and nothing ``D`` long.
        """
        csr = view[0] if view is not None else self._snapshot().csr
        ranges = self._snapshot_of(csr).ranges
        calls, rows = _counters(self.backend).filter_verify_row
        calls.inc()
        rows.inc(len(ranges[0]))
        key_ids, query_counts, matched_total = self._match(query_branches, csr)
        budget = sparse_row_budget(_segment_total(csr[0], key_ids), csr[3])
        positions, gbds, eligible, num_eligible = self._kernels.filter_verify_row(
            csr,
            ranges,
            int(num_query_vertices),
            matched_total,
            key_ids,
            query_counts,
            np.ascontiguousarray(thresholds, dtype=np.int64),
            budget,
            self._checked_table(lut, num_query_vertices, ranges[0]),
            float(gamma),
            max_gbd,
        )
        if num_eligible == 0:
            return positions, gbds, eligible, 0, None
        if num_eligible <= budget:
            return positions, gbds, eligible, num_eligible, True
        return positions, gbds, eligible, csr[3], False

    def filter_verify_topk(
        self,
        num_query_vertices: int,
        query_branches: Counter,
        lut: np.ndarray,
        bound_lut: np.ndarray,
        max_gbd: Optional[int],
        k: int,
        *,
        view: Optional[Tuple[_Csr, int]] = None,
    ):
        """The ``k`` best rows of one query by posterior: ``(ids, scores, verified, sparse)``.

        The whole top-k reducer.  ``lut[order, gbd]`` is the caller's posterior
        table for the query's τ̂ and ``bound_lut[order, ϕ]`` its suffix maximum
        over ``gbd >= ϕ`` (tables of their own shapes, a row per extended order
        of the snapshot each); ``max_gbd`` is the branch-bound cap, or ``None``.
        Per distinct ``|V_G|`` the GBD lower bound gives a posterior *upper*
        bound shared by the rows of its range; ranges are visited by
        descending bound until one falls strictly below the k-th best score so
        far.  A visited range is verified from its slices of the matched
        segments — no other row's postings are read — until the rows verified
        plus the next range exceed the query's :func:`sparse_row_budget` (the
        rule of :meth:`filter_verify_row`), from where one dense walk of the
        matched segments serves the ranges still in reach.  A row is dropped
        when ``gbd > max_gbd`` and scored ``lut[order, gbd]``; with the cap,
        ranges whose bound already exceeds it are never visited; without it,
        zero-bound ranges are not verified (their score is 0.0) and fill a
        short or zero-tailed ranking by smallest graph id.

        ``ids`` / ``scores`` are at most ``k`` pairs, the first under ``(-score,
        id)``, unsorted; ``verified`` the rows of the visited ranges; ``sparse``
        the plan taken — ``True`` range slices only, ``False`` the dense walk
        ran, ``None`` no range was ranked in.  One vocabulary pass, one kernel
        call, counted as a ``row`` kernel producing the rows it verified (all
        ``D`` once the dense walk ran).
        """
        if k < 1:
            raise ValueError("k must be a positive integer")
        csr = view[0] if view is not None else self._snapshot().csr
        snapshot = self._snapshot_of(csr)
        distinct = snapshot.ranges[0]
        key_ids, query_counts, matched_total = self._match(query_branches, csr)
        ids, scores, verified, dense = self._kernels.filter_verify_topk(
            csr,
            snapshot.ranges,
            snapshot.global_ids,
            int(num_query_vertices),
            matched_total,
            key_ids,
            query_counts,
            sparse_row_budget(_segment_total(csr[0], key_ids), csr[3]),
            self._checked_table(lut, num_query_vertices, distinct),
            self._checked_table(bound_lut, num_query_vertices, distinct),
            max_gbd,
            int(k),
        )
        calls, cells = _counters(self.backend).row
        calls.inc()
        cells.inc(csr[3] if dense else verified)
        return ids, scores, verified, (not dense) if verified else None

    def gbd_row(self, num_query_vertices: int, query_branches: Counter) -> np.ndarray:
        """Return ``GBD(Q, G)`` for every row as a dense ``(D,)`` array, by arrival."""
        snapshot = self._snapshot()
        rows = snapshot.csr[3]
        intersections = self.intersection_row(query_branches, view=(snapshot.csr, rows))
        return np.maximum(int(num_query_vertices), self._arrival_orders[:rows]) - intersections[
            snapshot.slots
        ]

    def __repr__(self) -> str:
        return (
            f"<ColumnarBranchStore rows={self.num_graphs} keys={self.num_keys} "
            f"postings={self.num_postings} pending={len(self._pending_keys)} "
            f"backend={self.backend}>"
        )
