"""The write path of the columnar store: compaction carries, it does not rebuild.

``ColumnarBranchStore.compact`` produces each snapshot from the previous one
(shifted segments, remapped block index, extended partition) instead of from
scratch.  These tests hold the carried structures to the from-scratch
builders (:mod:`repro.db.kernels.numpy_impl` ``build_*``) and every kernel
answer to a store built fresh from the same entries, under both backends,
across interleavings a fixed script would not think of.
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

from repro.db import columnar
from repro.db.columnar import ColumnarBranchStore
from repro.db.database import GraphDatabase
from repro.db.index import BranchInvertedIndex
from repro.db.kernels import available_backends, numpy_impl
from repro.graphs.generators import random_labeled_graph
from test_columnar import PLAN_BUDGETS, ranked_rows, verified_rows

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


def _entry(position: int, branches: Counter):
    """What ``append`` reads of a stored graph; one branch per vertex."""
    return SimpleNamespace(
        graph_id=1000 + position, num_vertices=sum(branches.values()), branches=branches
    )


# Twelve keys: a stream keeps meeting keys new to the vocabulary for a while.
# Up to six of them with multiplicity up to four: orders 0 (a graph with no
# branch at all) to 24, so the largest order — the block stride — keeps rising.
branch_sets = st.dictionaries(
    st.tuples(st.just("k"), st.integers(0, 11)), st.integers(1, 4), max_size=6
).map(Counter)


def assert_derived_match_builders(store: ColumnarBranchStore) -> None:
    """Every materialised structure of the published snapshot equals its builder's."""
    snapshot = store._published
    csr = snapshot.csr
    assert csr[3] == len(snapshot.orders) == len(snapshot.global_ids)
    assert len(csr[1]) == len(csr[2]) == csr[0][-1]
    built = {
        "blocks": lambda: numpy_impl.build_order_blocks(csr, snapshot.orders),
        "partition": lambda: numpy_impl.build_order_partition(snapshot.orders),
    }
    for name, build in built.items():
        carried = getattr(snapshot, name)
        if carried is None:
            continue
        for mine, theirs in zip(carried, build()):
            if isinstance(theirs, np.ndarray):
                assert mine.dtype == theirs.dtype, name
                assert np.array_equal(mine, theirs), name
            else:
                assert mine == theirs, name


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
        return ColumnarBranchStore(self.entries, backend="numpy")

    @rule(branches=branch_sets)
    def append(self, branches):
        entry = _entry(len(self.entries), branches)
        assert self.store.append(entry) == len(self.entries)
        self.entries.append(entry)

    @rule(batch=st.lists(branch_sets, max_size=4))
    def extend(self, batch):
        entries = [_entry(len(self.entries) + i, b) for i, b in enumerate(batch)]
        self.store.extend(entries)
        self.entries.extend(entries)

    @rule()
    def compact(self):
        did_work = self.store.compact()
        assert did_work or self.store._is_compacted()
        assert not self.store.compact()

    @rule()
    def pickle_round_trip(self):
        self.store = pickle.loads(pickle.dumps(self.store))
        snapshot = self.store._published
        assert snapshot.blocks is None and snapshot.partition is None

    @rule(queries=st.lists(branch_sets, min_size=1, max_size=3))
    def read_dense(self, queries):
        store, fresh = self.store, self.fresh()
        vertices = [sum(q.values()) for q in queries]
        for nq, q in zip(vertices, queries):
            assert np.array_equal(store.intersection_row(q), fresh.intersection_row(q))
            assert np.array_equal(store.gbd_row(nq, q), fresh.gbd_row(nq, q))
            assert np.array_equal(
                store.gbd_lower_bound_row(nq, q), fresh.gbd_lower_bound_row(nq, q)
            )
        csr, orders, global_ids = store.view()
        assert np.array_equal(orders, [e.num_vertices for e in self.entries])
        assert np.array_equal(global_ids, [e.graph_id for e in self.entries])
        assert store.num_postings == sum(len(e.branches) for e in self.entries)

    @rule(
        queries=st.lists(branch_sets, min_size=1, max_size=3),
        k=st.integers(1, 12),
        max_gbd=st.sampled_from([None, 2, 5]),
        plan=st.sampled_from(sorted(PLAN_BUDGETS)),
    )
    def read_ranked(self, queries, k, max_gbd, plan):
        """The top-k reducer: order groups walked through the carried block index."""
        store, fresh = self.store, self.fresh()
        by_cost = columnar.sparse_row_budget
        columnar.sparse_row_budget = PLAN_BUDGETS[plan]
        try:
            for q in queries:
                nq = sum(q.values())
                mine = ranked_rows(store, nq, q, k, max_gbd)
                assert mine == ranked_rows(fresh, nq, q, k, max_gbd)
                # Φ = 1 / (1 + GBD): the ranking is that of the dense row.
                gbds = fresh.gbd_row(nq, q)
                rows = [
                    row for row, gbd in enumerate(gbds.tolist())
                    if max_gbd is None or gbd <= max_gbd
                ]
                expected = sorted(
                    ((self.entries[row].graph_id, 1.0 / (1 + int(gbds[row]))) for row in rows),
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
        """The block-index kernels: what the thresholded path calls."""
        store, fresh = self.store, self.fresh()
        csr = store.view()[0]
        distinct, row_order, starts, ends = store.order_partition(csr)
        bars = np.full(len(distinct), bar, dtype=np.int64)
        # Stores this small would nearly always take the dense plan on their
        # own: force each plan in turn so that both keep being compared.
        by_cost = columnar.sparse_row_budget
        if plan != "by cost":
            columnar.sparse_row_budget = lambda postings, rows: rows if plan == "sparse" else 0
        try:
            for q in queries:
                nq = sum(q.values())
                mine = verified_rows(store, nq, q, bars)
                theirs = verified_rows(fresh, nq, q, bars)
                assert mine[3] == theirs[3]
                assert (mine[0] is None) == (theirs[0] is None)
                assert plan == "by cost" or mine[3] == 0 or (mine[0] is None) == (plan == "dense")
                for a, b in zip(mine[1:3], theirs[1:3]):
                    assert np.array_equal(a, b)
                dense = fresh.intersection_row(q)
                if mine[0] is not None:
                    assert np.array_equal(mine[0], theirs[0])
                    dense = dense[mine[0]]
                assert np.array_equal(mine[1], dense)
            if len(distinct):
                # Bars that keep some orders only: the probes read those blocks alone.
                chosen = data.draw(st.sets(st.sampled_from(distinct.tolist()), min_size=1))
                rows = np.flatnonzero(np.isin(store.orders(), sorted(chosen)))
                only = np.where(np.isin(distinct, sorted(chosen)), 10**6, -1)
                columnar.sparse_row_budget = lambda postings, rows: rows
                for q in queries:
                    mine = verified_rows(store, sum(q.values()), q, only)
                    assert mine[0].tolist() == rows.tolist() and mine[3] == len(rows)
                    assert np.array_equal(mine[1], fresh.intersection_row(q)[rows])
        finally:
            columnar.sparse_row_budget = by_cost

    @invariant()
    def carried_structures_equal_their_builders(self):
        assert_derived_match_builders(self.store)
        fresh = self.fresh()
        if self.store._is_compacted():
            for mine, theirs in zip(self.store._csr[:3], fresh.view()[0][:3]):
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
    """Pruned reads take the block-probe plan whatever it costs: these stores are small."""
    monkeypatch.setattr(columnar, "sparse_row_budget", lambda postings, rows: rows)


@pytest.fixture
def block_builds(monkeypatch):
    """Count calls of the from-scratch block-index builder."""
    calls = []
    original = numpy_impl.build_order_blocks

    def spy(csr, orders):
        calls.append(csr[3])
        return original(csr, orders)

    monkeypatch.setattr(numpy_impl, "build_order_blocks", spy)
    return calls


@pytest.mark.parametrize("backend", backend_params)
def test_write_then_pruned_read_sorts_nothing(backend, block_builds, sparse_plan):
    database = GraphDatabase(_graphs(40, seed=3))
    index = BranchInvertedIndex(database, backend=backend)  # held: the hook is weak
    store = index.store
    query = _graphs(1, seed=5)[0]
    branches = Counter(database[0].branches)

    def pruned_read():
        bars = np.full(len(store.order_partition(store.view()[0])[0]), 3, dtype=np.int64)
        return verified_rows(store, query.num_vertices, branches, bars)

    pruned_read()
    assert block_builds == [40]  # the first pruned read of a store sorts, once
    for batch in range(3):
        database.add_many(_graphs(7, seed=10 + batch, high=16 + 4 * batch))
        positions, intersections, _eligible, _count = pruned_read()
        assert np.array_equal(intersections, store.intersection_row(branches)[positions])
    assert block_builds == [40]  # three writes later: carried every time
    assert store.num_compactions == 4
    assert_derived_match_builders(store)


@pytest.mark.parametrize("backend", backend_params)
def test_store_never_pruned_holds_no_block_index(backend, block_builds):
    database = GraphDatabase(_graphs(30, seed=7))
    index = BranchInvertedIndex(database, backend=backend)
    store = index.store
    branches = Counter(database[3].branches)
    for batch in range(3):
        store.intersection_row(branches)
        store.gbd_lower_bound_row(5, branches)
        database.add_many(_graphs(5, seed=20 + batch))
    store.compact()
    assert store._published.blocks is None
    assert block_builds == []


@pytest.mark.parametrize("backend", backend_params)
def test_superseded_snapshot_arrays_are_released(backend, sparse_plan):
    """A write stream must not keep every old snapshot's postings alive."""
    database = GraphDatabase(_graphs(40, seed=13))
    index = BranchInvertedIndex(database, backend=backend)
    store = index.store
    branches = Counter(database[2].branches)

    def pruned_read():
        csr, orders, _ids = store.view()
        bars = np.full(len(store.order_partition(csr)[0]), 3, dtype=np.int64)
        verified_rows(store, 8, branches, bars, view=(csr, len(orders)))
        store.intersection_row(branches)
        return [weakref.ref(csr[1]), weakref.ref(store._order_blocks_for(csr)[1])]

    superseded = []
    for batch in range(4):
        superseded += pruned_read()  # the native backend pins what it is passed
        database.add_many(_graphs(5, seed=50 + batch))
    pruned_read()
    gc.collect()
    assert all(ref() is None for ref in superseded)


@pytest.mark.parametrize("backend", backend_params)
def test_pickle_ships_csr_and_row_vectors_only(backend):
    database = GraphDatabase(_graphs(30, seed=9))
    store = ColumnarBranchStore(database, backend=backend)
    csr = store.view()[0]
    store._order_blocks_for(csr), store.order_partition(csr)
    lean = ColumnarBranchStore(database, backend=backend)
    lean.compact()
    assert len(pickle.dumps(store)) == len(pickle.dumps(lean))
    copy = pickle.loads(pickle.dumps(store))
    branches = Counter(database[1].branches)
    assert np.array_equal(copy.intersection_row(branches), store.intersection_row(branches))
    copy.append(_entry(30, Counter({("new", 0): 2})))  # the trimmed buffers grow again
    assert copy.orders().tolist() == store.orders().tolist() + [2]


# --------------------------------------------------------------------------- #
# a reader racing bulk writes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", backend_params)
def test_reader_racing_add_many_sees_whole_batches_only(backend, sparse_plan):
    base, batches = _graphs(60, seed=31), [_graphs(9, seed=40 + i) for i in range(12)]
    database = GraphDatabase(base)
    index = BranchInvertedIndex(database, backend=backend)
    store = index.store
    query = base[0]
    branches = Counter(database[0].branches)

    # The answer over every prefix a reader may legally see: the store before
    # the writes and after each whole add_many batch — never part of one.
    expected = {}
    graphs = list(base)
    for batch in [[]] + batches:
        graphs.extend(batch)
        fresh = ColumnarBranchStore(GraphDatabase(graphs), backend="numpy")
        bars = np.full(len(fresh.order_partition(fresh.view()[0])[0]), 4, dtype=np.int64)
        positions, intersections, _eligible, count = verified_rows(
            fresh, query.num_vertices, branches, bars
        )
        expected[len(graphs)] = (
            fresh.intersection_row(branches), positions, intersections, count
        )

    failures, reads, done = [], [0], threading.Event()

    def reader():
        try:
            while not done.is_set():
                csr, orders, global_ids = store.view()
                assert csr[3] == len(orders) == len(global_ids)
                row, positions, intersections, count = expected[len(orders)]
                view = (csr, len(orders))
                assert np.array_equal(store.intersection_row(branches, view=view), row)
                bars = np.full(len(store.order_partition(csr)[0]), 4, dtype=np.int64)
                got = verified_rows(store, query.num_vertices, branches, bars, view=view)
                assert got[3] == count
                assert np.array_equal(got[0], positions)
                assert np.array_equal(got[1], intersections)
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
    assert_derived_match_builders(store)
