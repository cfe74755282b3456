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

The kernels themselves live in :mod:`repro.db.kernels` behind a pluggable
``backend`` (``"numpy"`` | ``"native"`` | ``"auto"``): this class owns the
vocabulary pass, the published snapshot, and the metrics, and dispatches the
array work to the selected backend.  Every read is one query against one
snapshot — there is no batched ``(Q, D)`` form.  The two reducers of the
execution core run inside the store call that verifies: :meth:`filter_verify_row`
(bound filter → survivor gather or dense walk → γ threshold) returns the
accepted rows and :meth:`filter_verify_topk` (order groups in bound order →
block probes or dense walk → k-best, cut off by the k-th score) at most ``k``
scored ones, so on the ``native`` backend — one C call each — neither
pruned-out candidates nor a ``D``-length row ever reach NumPy.

Incremental additions go through an **append buffer**: :meth:`append` /
:meth:`extend` are ``O(|branches|)`` bookkeeping with no Python statement per
posting — a batch's key ids are one ``map`` of the vocabulary's ``get`` over
its branch keys and each pending buffer is extended once — and :meth:`compact`,
run lazily by the next read, is the one place a write is paid for.  It takes
the previous published snapshot and produces the next in one linear pass: old
posting segments are shifted, the pending postings appended, and every derived
structure the previous snapshot had materialised (the ``(key, |V_G|)`` block
index, the rows-by-order partition) is carried forward by remapping it
through that same shift and merging the pending postings in.
Only the ``p`` pending postings are ever sorted; a structure nobody has read
yet is not built.  A bulk load of ``k`` graphs costs one compaction, not
``k`` (see :meth:`~repro.db.database.GraphDatabase.add_many`).

Concurrency: queries may run from several threads sharing one engine (the
serving executor's ``"thread"`` mode), so everything a read needs — CSR
arrays, row vectors, derived indexes — is published as one snapshot record
swapped behind a compaction lock, and readers operate on one snapshot for
the whole query — a query racing a compaction sees either the pre-add or
post-add postings, never a torn mix.  Mutation (:meth:`append` /
:meth:`extend`) takes the same lock.

Rows are *positions* ``0..D-1`` in insertion order; :meth:`global_ids` maps
positions back to database graph ids.  For a plain
:class:`~repro.db.database.GraphDatabase` the two coincide; for an
id-preserving shard view (:meth:`GraphDatabase.shard`) they differ, which
is what lets shard stores be scored independently and merged by global id.
"""

from __future__ import annotations

import threading
from collections import Counter
from itertools import chain, compress, repeat
from operator import gt
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.db.kernels import backend_module, numpy_impl, resolve_backend
from repro.obs.metrics import get_registry

__all__ = ["ColumnarBranchStore"]

# Kernel call/row counters (repro.obs): children are bound once per backend
# and cached at module level — the kernels below are the hot path of every
# online query, and children must never live on store instances (stores are
# pickled into pool workers, whose deltas merge back by label set).  Rows
# count the cells each call produced (D for a dense row — the top-k reducer
# counts here too: D when it walked the dense row, else the rows of the groups
# it verified — U distinct orders for the fused filter), making ``rows /
# calls`` an instant read on how selective the pruned layer is.
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
    """One published read state: the CSR, its row vectors, its derived indexes.

    ``csr``, ``orders`` and ``global_ids`` cover the same rows and never
    change.  ``blocks`` (the ``(key, |V_G|)`` block index) and ``partition``
    (rows grouped by order) start out ``None`` unless
    :meth:`ColumnarBranchStore.compact` carried them over from the previous
    snapshot, and are filled at most once, by the first read that needs them.
    """

    __slots__ = ("csr", "orders", "global_ids", "blocks", "partition")

    def __init__(self, csr, orders, global_ids, blocks=None, partition=None):
        self.csr: _Csr = csr
        self.orders: np.ndarray = orders
        self.global_ids: np.ndarray = global_ids
        self.blocks = blocks
        self.partition = partition


#: First-build path of each derived structure of a snapshot (looked up through
#: the module on every call, so a test can spy on the from-scratch builders).
_BUILDERS = {
    "blocks": lambda snapshot: numpy_impl.build_order_blocks(snapshot.csr, snapshot.orders),
    "partition": lambda snapshot: numpy_impl.build_order_partition(snapshot.orders),
}


def _segment_total(offsets: np.ndarray, key_ids: np.ndarray) -> int:
    """Σ posting-segment lengths of the given keys: what one dense row walks."""
    return int((offsets[key_ids + 1] - offsets[key_ids]).sum())


def sparse_row_budget(matched_postings: int, num_rows: int) -> int:
    """Most bound survivors of one query worth verifying by block probes.

    The dense plan touches every matched posting once and then classifies all
    ``D`` rows: ``Σseg + D``.  The sparse plan touches only the postings of
    the ``E`` surviving rows — ``E / D`` of them when postings spread evenly
    over rows — each placed by a binary search among the survivors (at most
    ``log2 D`` steps), and classifies ``E`` rows: ``(E / D) · (Σseg · log2 D +
    D)``.  Up to the returned ``E`` the sparse plan is the cheaper one.
    Everything is read off the query's own postings and the snapshot's size,
    so the rule has no tuning constant and is the same under both kernel
    backends.
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
        # Per-row metadata: growable int64 buffers written only past the
        # published rows, so a snapshot's prefix view of them never changes.
        self._row_global_ids = np.empty(0, dtype=np.int64)
        self._row_orders = np.empty(0, dtype=np.int64)
        self._num_rows = 0
        # Largest posting multiplicity compacted so far (decides the counts dtype).
        self._max_count = 0
        # Everything a read needs, swapped atomically as one record.
        self._published = _Snapshot(_EMPTY_CSR, _EMPTY_I64, _EMPTY_I64)
        # Append buffer: parallel lists of (key id, row position, count).
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
        # Only the CSR and the row vectors travel (to pool workers); the
        # derived indexes are 2 x P + D int64 a worker rebuilds on first use.
        state = self.__dict__.copy()
        del state["_compact_lock"]  # locks are not picklable
        state["_published"] = self._published.csr
        state["_row_orders"] = self._row_orders[: self._num_rows]
        state["_row_global_ids"] = self._row_global_ids[: self._num_rows]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._compact_lock = threading.Lock()
        csr = self._published
        self._published = _Snapshot(
            csr, self._row_orders[: csr[3]], self._row_global_ids[: csr[3]]
        )
        # A snapshot restored on another machine keeps its configured
        # backend name; backend_module degrades native->numpy with a
        # warning if this host cannot build the library.
        _BACKEND_INFO.labels(backend=self.backend).set(1)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def append(self, entry) -> int:
        """Buffer one :class:`~repro.db.database.StoredGraph`; return its position.

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
        """Buffer ``entries`` (lock held); return the position of the first.

        No Python statement runs per posting: the loops below visit only keys
        the vocabulary has not seen (:meth:`_learn_key`, once per new key) and
        multiplicities above 1 — at least 1 each, so only those can raise a cap.
        """
        first = self._num_rows
        rows = first + len(entries)
        if rows > len(self._row_orders):
            # Doubling keeps appends amortised O(1); published snapshots keep
            # viewing the buffer they were cut from.
            capacity = max(2 * rows, 64)
            for name in ("_row_orders", "_row_global_ids"):
                grown = np.empty(capacity, dtype=np.int64)
                grown[:first] = getattr(self, name)[:first]
                setattr(self, name, grown)
        self._row_global_ids[first:rows] = [entry.graph_id for entry in entries]
        self._row_orders[first:rows] = [entry.num_vertices for entry in entries]
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
        previous snapshot (O(P + D + p log p) for P postings, D rows and p
        pending postings — only the pending ones are sorted):

        * each key's old posting segment is shifted by the room the keys
          before it grew and its pending postings (whose row positions are
          strictly larger) placed behind it in arrival order, so segments
          stay sorted by position;
        * every derived structure the previous snapshot had materialised is
          carried forward — the block index by remapping its permutation
          through that same shift and merging the pending postings in, the
          rows-by-order partition by appending the new rows to their runs —
          and equals what its from-scratch builder returns on the new CSR; one
          the previous snapshot never built stays unbuilt until a read asks
          for it;
        * ``orders`` / ``global_ids`` are prefix views of the row buffers
          :meth:`append` already wrote.

        The pass runs in the store's kernel backend under the compaction
        lock and publishes the result as one record swap, so concurrent
        readers are never exposed to a torn state.

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
            num_rows = self._num_rows
            orders = self._row_orders[:num_rows]
            pending = (
                np.asarray(self._pending_keys, dtype=np.int64),
                np.asarray(self._pending_positions, dtype=np.int64),
                np.asarray(self._pending_counts, dtype=np.int64),
            )
            self._max_count = int(pending[2].max(initial=self._max_count))
            arrays, blocks = self._kernels.merge_postings(
                previous.csr,
                previous.blocks,
                pending,
                len(self._keys),
                orders,
                np.int32 if num_rows <= _POSITION_DTYPE_LIMIT else np.int64,
                np.int32 if self._max_count <= _COUNT_DTYPE_LIMIT else np.int64,
            )
            partition = previous.partition
            if partition is not None:
                partition = numpy_impl.extend_order_partition(
                    partition, orders, previous.csr[3]
                )
            self._published = _Snapshot(
                (*arrays, num_rows),
                orders,
                self._row_global_ids[:num_rows],
                blocks,
                partition,
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
        """Return one coherent ``(csr, orders, global_ids)`` read snapshot.

        ``csr`` is the ``(offsets, positions, counts, rows)`` tuple; the three
        pieces belong to one published snapshot record, so a whole query
        computes against arrays of one length whose every row is covered by
        the CSR — concurrent additions become visible only between queries,
        never as a torn mix or a graph with silently missing postings.  The
        first read after a write pays the compaction here.
        """
        snapshot = self._snapshot()
        return snapshot.csr, snapshot.orders, snapshot.global_ids

    def _snapshot_of(self, csr: _Csr) -> _Snapshot:
        """The snapshot record ``csr`` belongs to.

        A reader still computing against a superseded snapshot gets a record
        of its own, whose derived structures are built from scratch, uncached
        — the row buffers are append-only, so the prefix its CSR covers is
        still what it was.
        """
        snapshot = self._published
        if snapshot.csr is not csr:
            rows = csr[3]
            snapshot = _Snapshot(csr, self._row_orders[:rows], self._row_global_ids[:rows])
        return snapshot

    def _derived(self, csr: _Csr, name: str):
        """The ``name`` structure of the snapshot ``csr`` belongs to, built on first use.

        Carried structures are simply there; the from-scratch builder runs
        once per store (and once per unpickled copy), under the compaction
        lock so racing readers share one build and a compaction cannot miss
        it.
        """
        snapshot = self._snapshot_of(csr)
        value = getattr(snapshot, name)
        if value is None:
            with self._compact_lock:
                value = getattr(snapshot, name)
                if value is None:
                    value = _BUILDERS[name](snapshot)
                    setattr(snapshot, name, value)
        return value

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
        """Dense ``position -> graph id`` vector of the (compacted) snapshot."""
        return self._snapshot().global_ids

    def orders(self) -> np.ndarray:
        """Dense ``position -> |V_G|`` vector of the (compacted) snapshot."""
        return self._snapshot().orders

    def branch_totals(self) -> np.ndarray:
        """Dense ``position -> |B_G|`` vector of total branch counts.

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
        """Return the ``(graph_id, count)`` postings of one branch key."""
        snapshot = self._snapshot()
        offsets, positions, counts, _rows = snapshot.csr
        key_id = self._key_ids.get(branch_key)
        if key_id is None or key_id >= len(offsets) - 1:
            return []
        start, end = int(offsets[key_id]), int(offsets[key_id + 1])
        global_ids = snapshot.global_ids
        return [
            (int(global_ids[position]), int(count))
            for position, count in zip(positions[start:end], counts[start:end])
        ]

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
        """Return ``|B_Q ∩ B_G|`` for every row as a dense ``(D,)`` array.

        One vocabulary pass over the query's branch keys, then the selected
        backend accumulates the matching CSR segments (a vectorized gather
        plus ``bincount`` scatter-add on numpy, a direct segment scatter in
        C).  ``view`` optionally pins the ``(csr, num_graphs)`` snapshot the
        caller is computing against (see :meth:`view`).
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
        return self._kernels.intersection_row(csr, key_ids, query_counts, num_graphs)

    # ------------------------------------------------------------------ #
    # GBD lower-bound kernels and the derived indexes of the fused reads
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
        candidates before touching the index.  ``db_orders`` optionally pins
        the per-row order vector of the caller's snapshot.
        """
        orders = self.orders() if db_orders is None else db_orders
        calls, rows = _counters(self.backend).bound_row
        calls.inc()
        rows.inc(len(orders))
        total = self.matched_query_total(query_branches)
        return self._kernels.gbd_lower_bound_row(int(num_query_vertices), total, orders)

    def _order_blocks_for(self, csr: _Csr) -> Tuple[np.ndarray, np.ndarray, int]:
        """Postings of a snapshot re-indexed by ``(key, row order)`` blocks.

        Returns ``(sorted codes, permutation, stride)`` where ``codes =
        key_id * stride + |V_row|`` and ``permutation`` maps the sorted
        order back to posting slots.  Every ``(branch key, vertex count)``
        pair owns one contiguous block, located by two binary-search probes
        — the backbone of the sparse plan of :meth:`filter_verify_row` and of
        the group walk of :meth:`filter_verify_topk`.
        Sorted once (O(P log P)) by the first pruned or top-k read of a store; every
        :meth:`compact` after that carries it forward in O(P + p log p).
        """
        return self._derived(csr, "blocks")

    def order_partition(
        self, csr: _Csr
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Rows of a snapshot grouped by ``|V_G|``: ``(distinct, row_order, starts, ends)``.

        ``row_order[starts[i]:ends[i]]`` are the (ascending) store positions
        whose order is ``distinct[i]`` — the shape the fused filter-verify
        kernels consume: per-distinct-order eligibility plus slice
        concatenation of the survivors.  Sorted once (O(D log D)) on first
        use, then extended by every :meth:`compact`.
        """
        return self._derived(csr, "partition")

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
        order ``distinct[i]`` (the snapshot's distinct-order partition) —
        the γ-threshold inversion of the execution core; ``lut[order, gbd]``
        is its posterior table for the query's τ̂ (a row per extended order
        ``max(|V_Q|, |V_G|)`` of the snapshot) and ``max_gbd`` the branch-bound
        cap, if any.  Returns ``(positions, gbds, eligible, verified, sparse)``:

        * ``eligible`` — the bool mask of the orders whose GBD lower bound is
          within their threshold;
        * ``sparse`` / ``verified`` — the plan taken and the rows it verified:
          ``None`` / 0 when no order survives, ``True`` / the eligible rows
          when they fit the query's :func:`sparse_row_budget` (block probes:
          no pruned row's postings are touched), ``False`` / every row
          otherwise (walking the matched posting segments once is cheaper);
        * ``positions`` / ``gbds`` — the *hits*: ascending store positions of
          the verified rows with ``GBD <= max_gbd`` and ``lut[order, GBD] >=
          gamma``, and those GBDs (``max(|V_Q|, |V_G|) - |B_Q ∩ B_G|``, exactly
          ``order - intersection_row(...)[positions]``).

        One vocabulary pass, one kernel call; on the native backend that is
        one C call which hands back the hits and nothing ``D`` long.
        """
        csr = view[0] if view is not None else self._snapshot().csr
        partition = self.order_partition(csr)
        calls, rows = _counters(self.backend).filter_verify_row
        calls.inc()
        rows.inc(len(partition[0]))
        key_ids, query_counts, matched_total = self._match(query_branches, csr)
        budget = sparse_row_budget(_segment_total(csr[0], key_ids), csr[3])
        positions, gbds, eligible, num_eligible = self._kernels.filter_verify_row(
            csr,
            self._order_blocks_for(csr),
            partition,
            self._snapshot_of(csr).orders,
            int(num_query_vertices),
            matched_total,
            key_ids,
            query_counts,
            np.ascontiguousarray(thresholds, dtype=np.int64),
            budget,
            self._checked_table(lut, num_query_vertices, partition[0]),
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
        bound shared by the order group's rows; groups are visited by
        descending bound until one falls strictly below the k-th best score so
        far.  A visited group is verified through its ``(key, |V_G|)`` blocks —
        no other row's postings are read — until the rows verified plus the
        next group exceed the query's :func:`sparse_row_budget` (the rule of
        :meth:`filter_verify_row`), from where one dense walk of the matched
        segments serves the groups still in reach.  A row is dropped when
        ``gbd > max_gbd`` and scored ``lut[order, gbd]``; with the cap, groups
        whose bound already exceeds it are never visited; without it,
        zero-bound groups are not verified (their score is 0.0) and fill a
        short or zero-tailed ranking by smallest graph id.

        ``ids`` / ``scores`` are at most ``k`` pairs, the first under ``(-score,
        id)``, unsorted; ``verified`` the rows of the visited groups; ``sparse``
        the plan taken — ``True`` block probes only, ``False`` the dense walk
        ran, ``None`` no group was ranked in.  One vocabulary pass, one kernel
        call, counted as a ``row`` kernel producing the rows it verified (all
        ``D`` once the dense walk ran).
        """
        if k < 1:
            raise ValueError("k must be a positive integer")
        csr = view[0] if view is not None else self._snapshot().csr
        partition = self.order_partition(csr)
        key_ids, query_counts, matched_total = self._match(query_branches, csr)
        ids, scores, verified, dense = self._kernels.filter_verify_topk(
            csr,
            self._order_blocks_for(csr),
            partition,
            self._snapshot_of(csr).global_ids,
            int(num_query_vertices),
            matched_total,
            key_ids,
            query_counts,
            sparse_row_budget(_segment_total(csr[0], key_ids), csr[3]),
            self._checked_table(lut, num_query_vertices, partition[0]),
            self._checked_table(bound_lut, num_query_vertices, partition[0]),
            max_gbd,
            int(k),
        )
        calls, cells = _counters(self.backend).row
        calls.inc()
        cells.inc(csr[3] if dense else verified)
        return ids, scores, verified, (not dense) if verified else None

    def gbd_row(self, num_query_vertices: int, query_branches: Counter) -> np.ndarray:
        """Return ``GBD(Q, G)`` for every row as a dense ``(D,)`` array."""
        snapshot = self._snapshot()
        intersections = self.intersection_row(
            query_branches, view=(snapshot.csr, len(snapshot.orders))
        )
        return np.maximum(int(num_query_vertices), snapshot.orders) - intersections

    def __repr__(self) -> str:
        return (
            f"<ColumnarBranchStore rows={self.num_graphs} keys={self.num_keys} "
            f"postings={self.num_postings} pending={len(self._pending_keys)} "
            f"backend={self.backend}>"
        )
