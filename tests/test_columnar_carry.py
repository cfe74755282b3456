"""The write path of the columnar store: compaction interleaves, it does not rebuild.

``ColumnarBranchStore.compact`` produces each snapshot from the previous one —
new rows interleaved into their order's range, old positions shifted, pending
postings merged into each key's sorted segment — instead of laying the store
out from scratch.  These tests hold every snapshot to the layout invariant and
to the from-scratch layout (a stable sort of the arrived rows by order,
computed here), and every kernel answer to a store built fresh from the same
entries, under both backends, across interleavings a fixed script would not
think of.
"""

from __future__ import annotations

import gc
import pickle
import random
import sys
import threading
import time
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.branches import branch_multiset
from repro.db import columnar
from repro.db.columnar import ColumnarBranchStore, _Snapshot
from repro.db.database import GraphDatabase
from repro.db.kernels import available_backends
from repro.graphs.generators import random_labeled_graph
from store_rows import by_graph_id
from test_columnar import PLAN_BUDGETS, gbd_row, ranked_rows, verified_rows

BACKENDS = available_backends()
INT32_MAX = int(np.iinfo(np.int32).max)

backend_params = [
    pytest.param(
        name,
        marks=()
        if name in BACKENDS
        else pytest.mark.skip(reason="native kernel backend unavailable here"),
    )
    for name in ("numpy", "native")
]


def _entry(graph_id: int, branches: Counter):
    """A row as the tests hold it: the graph id, its multiset, |V| (one branch per vertex)."""
    return SimpleNamespace(
        graph_id=graph_id, num_vertices=sum(branches.values()), branches=branches
    )


def arrived(database):
    """The database's graphs as rows: ids, extracted multisets and sizes."""
    return [_entry(entry.graph_id, branch_multiset(entry.graph)) for entry in database]


# Twelve keys: a stream keeps meeting keys new to the vocabulary for a while.
# Up to six of them with multiplicity up to four: orders 0 (a graph with no
# branch at all) to 24: new rows keep landing below, among and above the stored ones.
branch_sets = st.dictionaries(
    st.tuples(st.just("k"), st.integers(0, 11)), st.integers(1, 4), max_size=6
).map(Counter)


def assert_layout_invariant(store: ColumnarBranchStore, entries) -> None:
    """The published snapshot is the ``|V_G|``-clustered layout of ``entries``' prefix.

    Orders ascend, each distinct order one range; every key segment ascends
    strictly; positions map back onto the rows that arrived; each row's
    postings are its branch multiset; and the whole record equals the layout
    computed from scratch.
    """
    snapshot = store._published
    offsets, positions, counts, rows = snapshot.csr
    arrived = entries[:rows]
    assert rows == len(snapshot.orders) == len(snapshot.global_ids)
    assert len(positions) == len(counts) == offsets[-1]
    orders = snapshot.orders
    assert (np.diff(orders) >= 0).all()
    distinct, bounds = snapshot.ranges
    unique, first = np.unique(orders, return_index=True)
    assert distinct.tolist() == unique.tolist()
    assert bounds.tolist() == first.tolist() + [rows]
    for key in range(len(offsets) - 1):
        assert (np.diff(positions[offsets[key] : offsets[key + 1]]) > 0).all()
    assert sorted(snapshot.global_ids.tolist()) == sorted(e.graph_id for e in arrived)
    position_of = {graph_id: p for p, graph_id in enumerate(snapshot.global_ids.tolist())}
    assert len(position_of) == rows
    assert [orders[position_of[e.graph_id]] for e in arrived] == [e.num_vertices for e in arrived]
    postings = [Counter() for _ in range(rows)]
    keys = list(store._key_ids)  # ids are dense in insertion order
    for key in range(len(offsets) - 1):
        for slot in range(offsets[key], offsets[key + 1]):
            postings[positions[slot]][keys[key]] = int(counts[slot])
    for entry in arrived:
        assert postings[position_of[entry.graph_id]] == Counter(entry.branches)
    arrival_orders = np.array([e.num_vertices for e in arrived], dtype=np.int64)
    arrival_ids = np.array([e.graph_id for e in arrived], dtype=np.int64)
    by_order = np.argsort(arrival_orders, kind="stable")
    scratch = _Snapshot(snapshot.csr, arrival_orders[by_order], arrival_ids[by_order])
    for name in ("orders", "global_ids"):
        mine, theirs = getattr(snapshot, name), getattr(scratch, name)
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), name
    for mine, theirs in zip(snapshot.ranges, scratch.ranges):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)


def branches_of_order(order: int):
    """Multisets of exactly ``order`` branches over the twelve keys."""
    return st.lists(st.integers(0, 11), min_size=order, max_size=order).map(
        lambda keys: Counter(("k", key) for key in keys)
    )


class CarryMachine(RuleBasedStateMachine):
    """Appends, reads through every kernel, pickling and compaction, interleaved."""

    BACKEND = "numpy"

    def __init__(self):
        super().__init__()
        self.limits = (columnar._POSITION_DTYPE_LIMIT, columnar._COUNT_DTYPE_LIMIT)
        self.entries = []
        self.store = ColumnarBranchStore(backend=self.BACKEND)

    @initialize(
        position_limit=st.sampled_from([5, INT32_MAX]),
        count_limit=st.sampled_from([2, INT32_MAX]),
    )
    def shrink_limits(self, position_limit, count_limit):
        # The sixth row / a multiplicity of three promotes int32 -> int64
        # mid-stream; under the real limits the native merge kernel runs.
        columnar._POSITION_DTYPE_LIMIT = position_limit
        columnar._COUNT_DTYPE_LIMIT = count_limit

    def teardown(self):
        columnar._POSITION_DTYPE_LIMIT, columnar._COUNT_DTYPE_LIMIT = self.limits

    def fresh(self) -> ColumnarBranchStore:
        """A store built from scratch over the same entries (the oracle)."""
        return ColumnarBranchStore([e.branches for e in self.entries], backend="numpy")

    @rule(branches=branch_sets)
    def append(self, branches):
        self.store.extend([branches])
        self.entries.append(_entry(len(self.entries), branches))
        assert self.store.num_graphs == len(self.entries)

    @rule(batch=st.lists(branch_sets, max_size=4))
    def extend(self, batch):
        self.store.extend(batch)
        self.entries += [_entry(len(self.entries) + i, b) for i, b in enumerate(batch)]

    @rule(
        places=st.lists(st.sampled_from(["below", "among", "above"]), min_size=1, max_size=4),
        data=st.data(),
    )
    def extend_around_the_stored_orders(self, places, data):
        """A batch whose orders land below, among and above those already stored."""
        stored = sorted({entry.num_vertices for entry in self.entries}) or [3]
        batch = []
        for place in places:
            order = {
                "below": max(stored[0] - 1, 0),
                "among": data.draw(st.sampled_from(stored)),
                "above": stored[-1] + data.draw(st.integers(1, 3)),
            }[place]
            batch.append(data.draw(branches_of_order(order)))
        self.extend(batch)

    @rule()
    def compact(self):
        did_work = self.store.compact()
        assert did_work or self.store._is_compacted()
        assert not self.store.compact()
        assert_layout_invariant(self.store, self.entries)

    @rule()
    def pickle_round_trip(self):
        before = self.store._published
        self.store = pickle.loads(pickle.dumps(self.store))
        after = self.store._published
        assert after.csr[3] == before.csr[3]
        for name in ("orders", "global_ids"):
            assert np.array_equal(getattr(after, name), getattr(before, name)), name

    @rule(queries=st.lists(branch_sets, min_size=1, max_size=3))
    def read_dense(self, queries):
        store, fresh = self.store, self.fresh()
        vertices = [sum(q.values()) for q in queries]
        for nq, q in zip(vertices, queries):
            assert np.array_equal(store.intersection_row(q), fresh.intersection_row(q))
            assert np.array_equal(gbd_row(store, nq, q), gbd_row(fresh, nq, q))
            assert np.array_equal(
                store.gbd_lower_bound_row(nq, q), fresh.gbd_lower_bound_row(nq, q)
            )
        view = store.view()
        arrival_orders = [e.num_vertices for e in self.entries]
        assert np.array_equal(by_graph_id(store, view[1]), arrival_orders)
        assert np.array_equal(np.sort(view[2]), [e.graph_id for e in self.entries])
        # The view speaks positions: the same rows, clustered by order.
        _csr, orders, global_ids = view
        by_order = np.argsort(arrival_orders, kind="stable")
        assert np.array_equal(orders, np.asarray(arrival_orders)[by_order])
        assert np.array_equal(global_ids, [self.entries[row].graph_id for row in by_order])
        for q in queries:
            assert np.array_equal(
                store.intersection_row(q, view=view), fresh.intersection_row(q)
            )
        assert store.num_postings == sum(len(e.branches) for e in self.entries)

    @rule(data=st.data())
    def pair_distances(self, data):
        """The row-major copy by graph id: pair GBDs across compactions and promotions."""
        ids = st.integers(0, max(len(self.entries) - 1, 0))
        pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=6 if self.entries else 0))
        rows = [(self.entries[i], self.entries[j]) for i, j in pairs]
        assert self.store.branch_distances(pairs) == [
            max(a.num_vertices, b.num_vertices) - sum((a.branches & b.branches).values())
            for a, b in rows
        ]

    @rule(
        queries=st.lists(branch_sets, min_size=1, max_size=3),
        k=st.integers(1, 12),
        plan=st.sampled_from(sorted(PLAN_BUDGETS)),
    )
    def read_ranked(self, queries, k, plan):
        """The top-k reducer: order ranges walked through the interleaved layout."""
        store, fresh = self.store, self.fresh()
        by_cost = columnar.sparse_row_budget
        columnar.sparse_row_budget = PLAN_BUDGETS[plan]
        try:
            for q in queries:
                nq = sum(q.values())
                mine = ranked_rows(store, nq, q, k)
                assert mine == ranked_rows(fresh, nq, q, k)
                # Φ = 1 / (1 + GBD): the ranking is that of the dense row.
                gbds, ids = gbd_row(fresh, nq, q), fresh.view()[2]
                expected = sorted(
                    (
                        (int(ids[row]), 1.0 / (1 + int(gbd)))
                        for row, gbd in enumerate(gbds.tolist())
                    ),
                    key=lambda pair: (-pair[1], pair[0]),
                )
                assert mine[0] == expected[:k]
        finally:
            columnar.sparse_row_budget = by_cost

    @rule(
        queries=st.lists(branch_sets, min_size=1, max_size=3),
        bar=st.integers(0, 8),
        plan=st.sampled_from(["sparse", "dense", "by cost"]),
        data=st.data(),
    )
    def read_pruned(self, queries, bar, plan, data):
        """The range kernels: what the thresholded path calls."""
        store, fresh = self.store, self.fresh()
        distinct = store.order_ranges()[0]
        # Stores this small would nearly always take the dense plan on their
        # own: force each plan in turn so that both keep being compared.
        by_cost = columnar.sparse_row_budget
        if plan != "by cost":
            columnar.sparse_row_budget = lambda postings, rows: rows if plan == "sparse" else 0
        try:
            for q in queries:
                nq = sum(q.values())
                mine = verified_rows(store, nq, q, lambda order: bar)
                theirs = verified_rows(fresh, nq, q, lambda order: bar)
                assert mine[4] == theirs[4]
                assert (mine[0] is None) == (theirs[0] is None)
                assert plan == "by cost" or mine[4] == 0 or (mine[0] is None) == (plan == "dense")
                for a, b in zip(mine[1:4], theirs[1:4]):
                    assert np.array_equal(a, b)
                if mine[0] is not None:
                    assert np.array_equal(mine[0], theirs[0])
                assert np.array_equal(mine[2], fresh.intersection_row(q)[mine[1]])
            if len(distinct):
                # Bars that keep some extended orders only: the slices read those
                # ranges alone.
                chosen = data.draw(st.sets(st.sampled_from(distinct.tolist()), min_size=1))
                columnar.sparse_row_budget = lambda postings, rows: rows
                for q in queries:
                    nq = sum(q.values())
                    kept = np.maximum(nq, sorted(chosen))
                    extended = np.maximum(nq, store.view()[1])
                    rows = np.flatnonzero(np.isin(extended, kept))
                    mine = verified_rows(
                        store, nq, q, lambda order: 10**6 if order in kept else -1
                    )
                    assert mine[0].tolist() == mine[1].tolist() == rows.tolist()
                    assert mine[4] == len(rows)
                    assert np.array_equal(mine[2], fresh.intersection_row(q)[rows])
        finally:
            columnar.sparse_row_budget = by_cost

    @invariant()
    def snapshot_equals_a_fresh_store(self):
        fresh = self.fresh()
        if self.store._is_compacted():
            for mine, theirs in zip(self.store._published.csr[:3], fresh.view()[0][:3]):
                assert mine.dtype == theirs.dtype
                assert np.array_equal(mine, theirs)


def _machine_for(backend):
    machine = type(f"CarryMachine_{backend}", (CarryMachine,), {"BACKEND": backend})
    machine.TestCase.settings = settings(
        max_examples=40,
        stateful_step_count=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    return machine.TestCase


TestCarryNumpy = _machine_for("numpy")
if "native" in BACKENDS:
    TestCarryNative = _machine_for("native")


# --------------------------------------------------------------------------- #
# what a write does and does not build
# --------------------------------------------------------------------------- #
def _graphs(num, seed, low=4, high=12):
    rng = random.Random(seed)
    return [
        random_labeled_graph(rng.randint(low, high), rng.randint(3, 14), seed=rng)
        for _ in range(num)
    ]


@pytest.fixture
def sparse_plan(monkeypatch):
    """Pruned reads take the range-slice plan whatever it costs: these stores are small."""
    monkeypatch.setattr(columnar, "sparse_row_budget", lambda postings, rows: rows)


@pytest.fixture
def snapshot_records(monkeypatch):
    """The row counts of the snapshot records built (each derives its ranges in O(D))."""
    calls = []
    original = _Snapshot.__init__

    def spy(self, csr, orders, global_ids):
        calls.append(csr[3])
        original(self, csr, orders, global_ids)

    monkeypatch.setattr(_Snapshot, "__init__", spy)
    return calls


@pytest.mark.parametrize("backend", backend_params)
def test_only_a_compaction_builds_a_snapshot_record(backend, snapshot_records, sparse_plan):
    """Writes interleave their rows; a read of the current snapshot builds no record."""
    graphs = _graphs(40, seed=3)
    database = GraphDatabase(graphs, kernel_backend=backend)
    store = database.store
    query = _graphs(1, seed=5)[0]
    branches = branch_multiset(database[0].graph)

    def pruned_read():
        return verified_rows(store, query.num_vertices, branches, lambda order: 3)

    pruned_read()
    for batch in range(3):
        # Sizes 4..16+: below, among and above the 4..12 already stored.
        added = _graphs(7, seed=10 + batch, low=2, high=16 + 4 * batch)
        database.add_many(added)
        graphs += added
        _rows, hits, intersections, _eligible, _count = pruned_read()
        assert np.array_equal(intersections, store.intersection_row(branches)[hits])
    # The empty store's record, then one per compaction.
    assert snapshot_records == [0, 40, 47, 54, 61]
    assert store.num_compactions == 4
    assert_layout_invariant(store, arrived(database))


@pytest.mark.parametrize("backend", backend_params)
def test_a_snapshot_holds_the_csr_and_row_vectors_only(backend):
    """What a snapshot costs beyond its postings: two D-long vectors, the ranges and
    one segment length per key."""
    database = GraphDatabase(_graphs(30, seed=7), kernel_backend=backend)
    store = database.store
    branches = branch_multiset(database[3].graph)
    for batch in range(3):
        store.intersection_row(branches)
        verified_rows(store, 5, branches, lambda order: 3)
        ranked_rows(store, 5, branches, 4)
        database.add_many(_graphs(5, seed=20 + batch))
    store.compact()
    snapshot = store._published
    rows, postings = snapshot.csr[3], len(snapshot.csr[1])
    assert set(_Snapshot.__slots__) == {"csr", "orders", "global_ids", "ranges", "segments"}
    assert snapshot.segments.tolist() == np.diff(snapshot.csr[0]).tolist()
    assert len(snapshot.segments) == store.num_keys  # per key, nothing D long
    for vector in (snapshot.orders, snapshot.global_ids):
        assert vector.shape == (rows,) and vector.dtype == np.int64
    distinct, bounds = snapshot.ranges
    assert len(bounds) == len(distinct) + 1 <= rows + 1
    assert snapshot.csr[1].nbytes + snapshot.csr[2].nbytes == 8 * postings  # int32 each


@pytest.mark.parametrize("backend", backend_params)
def test_superseded_snapshot_arrays_are_released(backend, sparse_plan):
    """A write stream must not keep every old snapshot's postings alive."""
    database = GraphDatabase(_graphs(40, seed=13), kernel_backend=backend)
    store = database.store
    branches = branch_multiset(database[2].graph)

    def pruned_read():
        view = csr, orders, global_ids = store.view()
        verified_rows(store, 8, branches, lambda order: 3, view=view)
        ranked_rows(store, 8, branches, 3, view=view)
        store.intersection_row(branches)
        return [weakref.ref(csr[1]), weakref.ref(orders), weakref.ref(global_ids)]

    superseded = []
    for batch in range(4):
        superseded += pruned_read()  # the native backend pins what it is passed
        database.add_many(_graphs(5, seed=50 + batch))
    pruned_read()
    gc.collect()
    assert all(ref() is None for ref in superseded)


@pytest.mark.parametrize("backend", backend_params)
def test_pickle_ships_csr_and_row_vectors_only(backend):
    database = GraphDatabase(_graphs(30, seed=9), kernel_backend=backend)
    store = database.store
    store.compact()
    state = store.__getstate__()
    # The snapshot travels as its view; the ranges are derived again.
    snapshot = store._published
    shipped = (snapshot.csr, snapshot.orders, snapshot.global_ids)
    assert all(mine is theirs for mine, theirs in zip(state["_published"], shipped))
    copy = pickle.loads(pickle.dumps(store))
    for name in ("orders", "global_ids"):
        assert np.array_equal(getattr(copy._published, name), getattr(store._published, name))
    for mine, theirs in zip(copy._published.ranges, store._published.ranges):
        assert np.array_equal(mine, theirs)
    branches = branch_multiset(database[1].graph)
    assert np.array_equal(copy.intersection_row(branches), store.intersection_row(branches))
    copy.extend([Counter({("new", 0): 2})])  # the copy keeps taking rows
    assert copy.view()[1].tolist() == [2] + store.view()[1].tolist()
    assert copy.view()[2].tolist() == [30] + store.view()[2].tolist()


# --------------------------------------------------------------------------- #
# a reader racing bulk writes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", backend_params)
def test_reader_racing_add_many_sees_whole_batches_only(backend, sparse_plan):
    base, batches = _graphs(60, seed=31), [_graphs(9, seed=40 + i) for i in range(12)]
    database = GraphDatabase(base, kernel_backend=backend)
    store = database.store
    query = base[0]
    branches = branch_multiset(database[0].graph)

    # The answer over every prefix a reader may legally see: the store before
    # the writes and after each whole add_many batch — never part of one.  A
    # fresh store over a prefix has the same layout, so it answers by position.
    expected = {}
    graphs = list(base)
    for batch in [[]] + batches:
        graphs.extend(batch)
        fresh = GraphDatabase(graphs, kernel_backend="numpy").store
        rows, hits, intersections, _eligible, count = verified_rows(
            fresh, query.num_vertices, branches, lambda order: 4
        )
        expected[len(graphs)] = (
            fresh.intersection_row(branches), rows, hits, intersections, count
        )

    failures, reads, done = [], [0], threading.Event()

    def reader():
        try:
            while not done.is_set():
                view = csr, orders, global_ids = store.view()
                assert csr[3] == len(orders) == len(global_ids)
                row, rows, hits, intersections, count = expected[len(orders)]
                assert np.array_equal(store.intersection_row(branches, view=view), row)
                got = verified_rows(
                    store, query.num_vertices, branches, lambda order: 4, view=view
                )
                assert got[4] == count
                assert np.array_equal(got[0], rows)
                assert np.array_equal(got[1], hits)
                assert np.array_equal(got[2], intersections)
                reads[0] += 1
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            failures.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=reader) for _ in range(3)]
    try:
        for thread in threads:
            thread.start()
        for batch in batches:
            database.add_many(batch)
            time.sleep(0.002)
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
    assert reads[0] > 0
    assert store.num_graphs == 60 + 9 * 12
    assert_layout_invariant(store, arrived(database))


@pytest.mark.parametrize("backend", backend_params)
def test_reader_querying_keys_a_batch_is_learning(backend):
    """A read may find a key the in-flight batch has just learnt: its cap is already there.

    Every written row carries one key of its own; the readers ask for every
    tenth of them, so while a batch maps its keys to ids they keep looking up
    ids the vocabulary has handed out moments before.  Against a pinned view
    the answer is exact: 1 on the rows whose key was asked for, 0 elsewhere.
    """
    store = ColumnarBranchStore(backend=backend)
    batches, size = 8, 3000
    query = Counter({("w", j): 1 for j in range(0, batches * size, 10)})
    failures, reads, done = [], [0], threading.Event()

    def reader():
        try:
            while not done.is_set():
                view = _csr, _orders, global_ids = store.view()
                expected = (global_ids % 10 == 0).astype(np.int64)
                assert np.array_equal(store.intersection_row(query, view=view), expected)
                assert store.matched_query_total(query) >= int(expected.sum())
                reads[0] += 1
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            failures.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=reader) for _ in range(2)]
    try:
        for thread in threads:
            thread.start()
        for first in range(0, batches * size, size):
            store.extend(Counter({("w", j): 1}) for j in range(first, first + size))
            time.sleep(0.002)
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
    assert reads[0] > 0
    assert store.num_keys == store.num_graphs == batches * size
    assert store.key_caps().tolist() == [1] * (batches * size)
