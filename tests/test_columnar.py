"""Tests for the CSR columnar branch store (repro.db.columnar).

Every test runs once per kernel backend (``numpy`` always; ``native`` when
the bundled C kernels build on this machine, skipped loudly otherwise) —
the two implementations are bit-identical by contract.
"""

from __future__ import annotations

import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.branches import branch_multiset
from repro.core.gbd import branch_intersection_size, graph_branch_distance
from repro.db import columnar
from repro.db.columnar import ColumnarBranchStore
from repro.db.database import GraphDatabase
from repro.db.kernels import available_backends
from repro.graphs.generators import random_labeled_graph
from repro.graphs.graph import Graph

BACKENDS = available_backends()


@pytest.fixture(
    params=[
        pytest.param(
            name,
            marks=()
            if name in BACKENDS
            else pytest.mark.skip(reason="native kernel backend unavailable here"),
        )
        for name in ("numpy", "native")
    ]
)
def backend(request):
    return request.param


@pytest.fixture
def make_store(backend):
    def make(entries=()):
        return ColumnarBranchStore(entries, backend=backend)

    return make


@pytest.fixture
def random_database():
    rng = random.Random(23)
    graphs = [
        random_labeled_graph(rng.randint(3, 9), rng.randint(2, 12), seed=rng)
        for _ in range(30)
    ]
    return GraphDatabase(graphs, name="columnar-random")


def _queries(num, seed):
    rng = random.Random(seed)
    return [
        random_labeled_graph(rng.randint(2, 10), rng.randint(1, 14), seed=rng)
        for _ in range(num)
    ]


def _appendable(store, entry):
    """Re-id a database entry so it can be appended to ``store``."""
    return type(entry)(
        graph_id=store.num_graphs,
        graph=entry.graph,
        branches=entry.branches,
        num_vertices=entry.num_vertices,
        num_edges=entry.num_edges,
    )


def _fake_entry(graph_id, branches):
    """A store entry with no graph behind it: id, multiset and |V| are all a store reads."""
    branches = Counter(branches)
    return SimpleNamespace(
        graph_id=graph_id, branches=branches, num_vertices=sum(branches.values())
    )


def verified_rows(store, num_query_vertices, branches, thresholds, **view):
    """``filter_verify_row`` under a table that accepts every row it verifies.

    The hits are then exactly the verified rows, so the call reads as the
    bound filter and the verification it fuses: ``(rows, intersections,
    eligible, num_eligible)`` in arrival terms, like the store's public rows —
    ``rows`` the verified rows' arrival numbers, ascending, or ``None`` on the
    dense plan (every row verified, ``intersections`` then the whole row);
    ``intersections`` read as ``order - gbd``.  The hits must be the
    eligible ranges' positions, ascending.
    """
    csr = view["view"][0] if view else store.view()[0]
    snapshot = store._snapshot_of(csr)
    distinct, bounds = store.order_ranges(csr)
    largest = max([int(num_query_vertices), *distinct[-1:].tolist()])
    accept_all = np.ones((largest + 1, largest + 2))
    positions, gbds, eligible, verified, sparse = store.filter_verify_row(
        num_query_vertices, branches, thresholds, accept_all, 0.5, **view
    )
    ranges = [range(bounds[u], bounds[u + 1]) for u in range(len(distinct))]
    num_eligible = sum(len(ranges[u]) for u in np.flatnonzero(eligible).tolist())
    assert positions.dtype == gbds.dtype == np.int64
    if num_eligible == 0:
        assert sparse is None and verified == 0
    else:
        assert sparse in (True, False)
        assert verified == (num_eligible if sparse else len(snapshot.orders))
    assert len(positions) == verified  # every verified row is a hit of this table
    intersections = np.maximum(int(num_query_vertices), snapshot.orders[positions]) - gbds
    if sparse is False:
        assert positions.tolist() == list(range(len(snapshot.orders)))
        return None, intersections[snapshot.slots], eligible, num_eligible
    picked = np.flatnonzero(eligible).tolist() if sparse else []
    assert positions.tolist() == [row for u in picked for row in ranges[u]]
    arrival = np.argsort(snapshot.slots)[positions]
    by_arrival = np.argsort(arrival)
    return arrival[by_arrival], intersections[by_arrival], eligible, num_eligible


#: ``sparse_row_budget`` stand-ins that force a verification plan on a small
#: store: block probes only, the dense walk at once, the switch mid-walk.
PLAN_BUDGETS = {
    "sparse": lambda postings, rows: rows,
    "dense": lambda postings, rows: 0,
    "half": lambda postings, rows: rows // 2,
}


def ranked_rows(store, num_query_vertices, branches, k, max_gbd=None, **view):
    """``filter_verify_topk`` under Φ = 1 / (1 + GBD): ``(ranking, verified, sparse)``.

    A table that decreases in ϕ is its own suffix maximum, so it serves as the
    bound table too; the ranking is sorted by ``(-score, id)``.
    """
    csr = view["view"][0] if view else store.view()[0]
    distinct = store.order_ranges(csr)[0]
    largest = max([int(num_query_vertices), *distinct[-1:].tolist()])
    lut = np.zeros((largest + 1, largest + 2))
    for order in range(largest + 1):
        lut[order, : order + 1] = 1.0 / (1 + np.arange(order + 1))
    ids, scores, verified, sparse = store.filter_verify_topk(
        num_query_vertices, branches, lut, lut, max_gbd, k, **view
    )
    assert ids.dtype == np.int64 and scores.dtype == np.float64 and len(ids) == len(scores)
    order = np.lexsort((ids, -scores))
    return list(zip(ids[order].tolist(), scores[order].tolist())), verified, sparse


class TestCsrLayout:
    def test_counts_shapes_and_vocabulary(self, random_database, make_store):
        store = make_store(random_database)
        store.compact()
        assert store.num_graphs == len(random_database)
        distinct = {key for entry in random_database for key in entry.branches}
        assert store.num_keys == len(distinct)
        assert store.num_postings == sum(
            len(entry.branches) for entry in random_database
        )

    def test_postings_match_database_and_stay_sorted(self, random_database, make_store):
        store = make_store(random_database)
        for entry in random_database:
            for key, count in entry.branches.items():
                postings = store.postings(key)
                assert (entry.graph_id, count) in postings
                ids = [graph_id for graph_id, _count in postings]
                assert ids == sorted(ids)

    def test_unknown_key_and_empty_store(self, make_store):
        store = make_store()
        assert store.num_graphs == 0
        assert store.postings(("missing", ())) == []
        assert store.intersection_row(branch_multiset(random_labeled_graph(3, 2, seed=0))).shape == (0,)

    def test_orders_and_global_ids(self, random_database, make_store):
        store = make_store(random_database)
        assert store.orders().tolist() == [e.num_vertices for e in random_database]
        assert store.global_ids().tolist() == [e.graph_id for e in random_database]


class TestAppendBufferCompaction:
    def test_appends_are_lazy_and_compaction_is_batched(self, random_database, make_store):
        store = make_store(random_database)
        store.compact()
        before = store.num_compactions
        extras = _queries(5, seed=3)
        entries = GraphDatabase(extras)
        for entry in entries:
            store.append(_appendable(store, entry))
        # five appends buffered, still zero extra compactions
        assert store.num_compactions == before
        store.intersection_row(branch_multiset(extras[0]))  # any read compacts
        assert store.num_compactions == before + 1
        store.intersection_row(branch_multiset(extras[0]))
        assert store.num_compactions == before + 1  # reads stay no-ops

    def test_results_identical_after_incremental_appends(self, make_store):
        rng = random.Random(5)
        graphs = [random_labeled_graph(rng.randint(3, 7), rng.randint(2, 9), seed=rng) for _ in range(20)]
        incremental = GraphDatabase(graphs[:10], name="inc")
        store = make_store(incremental)
        store.compact()
        for graph in graphs[10:]:
            incremental.add(graph)
            store.append(incremental[len(incremental) - 1])
        bulk_store = make_store(GraphDatabase(graphs, name="bulk"))
        for query in _queries(5, seed=9):
            branches = branch_multiset(query)
            assert (
                store.intersection_row(branches).tolist()
                == bulk_store.intersection_row(branches).tolist()
            )


    def test_extend_locks_once_and_learns_each_new_key_once(
        self, random_database, make_store, monkeypatch
    ):
        """Count guards of the write path: one lock, one slow-path visit per new key."""
        entries = list(random_database)
        store = make_store(entries[:10])
        store.compact()

        class CountingLock:
            def __init__(self, lock):
                self.lock, self.entered = lock, 0

            def __enter__(self):
                self.entered += 1
                return self.lock.__enter__()

            def __exit__(self, *exc):
                return self.lock.__exit__(*exc)

        lock = store._compact_lock = CountingLock(store._compact_lock)
        learned = []
        learn = store._learn_key
        monkeypatch.setattr(
            store, "_learn_key", lambda key, count: learned.append(key) or learn(key, count)
        )
        known = set(store._key_ids)
        batch = entries[10:] + [_fake_entry(40, {("new", ()): 3}), _fake_entry(41, {("new", ()): 5})]
        store.extend(batch)
        assert lock.entered == 1
        fresh = {key for entry in batch for key in entry.branches} - known
        assert len(fresh) > 1 and sorted(map(repr, learned)) == sorted(map(repr, fresh))
        assert len(learned) == len(set(learned))  # ("new", ()) came twice, was learned once
        caps = store.key_caps()
        assert caps[store._key_ids[("new", ())]] == 5  # learned at 3, raised by the later entry

        del learned[:]
        store.extend([_fake_entry(42 + offset, entry.branches) for offset, entry in enumerate(batch)])
        assert lock.entered == 2 and learned == []  # nothing new: the slow path is not touched
        reference = make_store(entries + batch[-2:] + batch)
        assert [array.tolist() for array in store.view()[0][:3]] == [
            array.tolist() for array in reference.view()[0][:3]
        ]
        assert store._keys == reference._keys and caps.tolist() == reference.key_caps().tolist()


class TestCompactionRegressions:
    """Regressions around the lazy compaction fast path."""

    def test_zero_branch_append_still_compacts(self, random_database, make_store):
        """An appended entry with no branches must not leave the CSR stale.

        Such an entry grows the row count without touching the vocabulary or
        the append buffer, so a vocabulary-only "already compacted" check
        would return early forever — and :meth:`view`, which insists the CSR
        covers every row, would spin.
        """
        store = make_store(random_database)
        store.compact()
        entry = random_database[0]
        store.append(
            type(entry)(
                graph_id=store.num_graphs,
                graph=None,
                branches=Counter(),
                num_vertices=0,
                num_edges=0,
            )
        )
        assert store.compact() is True  # must do work, not early-return
        csr, orders, global_ids = store.view()  # and view() must terminate
        assert csr[3] == len(orders) == len(global_ids) == len(random_database) + 1
        row = store.intersection_row(branch_multiset(_queries(1, seed=7)[0]))
        assert len(row) == store.num_graphs
        assert row[-1] == 0  # the branchless row intersects nothing

    def test_caches_refresh_after_mid_query_compaction(
        self, random_database, make_store, monkeypatch
    ):
        """Per-snapshot row vectors must belong to the CSR actually in use.

        The layout's vectors and ranges live on the snapshot; after an append
        + compaction the new rows are interleaved into them, and the old
        (shorter) ones are never served for the new arrays.
        """
        # Range slices whatever they cost: the reads below go through the ranges.
        monkeypatch.setattr(columnar, "sparse_row_budget", PLAN_BUDGETS["sparse"])
        store = make_store(random_database)
        queries = _queries(6, seed=29)
        branch_sets = [branch_multiset(query) for query in queries]
        # Read through the ranges of the first snapshot.
        verified_rows(
            store, queries[0].num_vertices, branch_sets[0], np.unique(store.orders())
        )
        extras = GraphDatabase(_queries(4, seed=31))
        for entry in extras:
            store.append(_appendable(store, entry))
        # The next read compacts mid-stream; answers must match a store built
        # directly over the grown database (fresh caches by construction).
        grown = GraphDatabase(
            [e.graph for e in random_database] + [e.graph for e in extras]
        )
        bulk = make_store(grown)
        for nq, branches in zip((q.num_vertices for q in queries), branch_sets):
            mine = ranked_rows(store, nq, branches, len(grown))
            assert mine == ranked_rows(bulk, nq, branches, len(grown))
            assert mine[2] is True and len(mine[0]) == mine[1] == len(grown)
            assert (
                store.gbd_lower_bound_row(nq, branches).tolist()
                == bulk.gbd_lower_bound_row(nq, branches).tolist()
            )
            assert (
                store.intersection_row(branches).tolist()
                == bulk.intersection_row(branches).tolist()
            )


class TestDtypeLayout:
    """int32 postings layout with overflow-checked promotion to int64."""

    def test_compact_layout_is_int32_for_small_stores(self, random_database, make_store):
        store = make_store(random_database)
        store.compact()
        offsets, positions, counts, _rows = store._csr
        assert offsets.dtype == np.int64
        assert positions.dtype == np.int32
        assert counts.dtype == np.int32

    def test_position_overflow_promotes_to_int64(
        self, random_database, make_store, monkeypatch
    ):
        monkeypatch.setattr(columnar, "_POSITION_DTYPE_LIMIT", 4)
        store = make_store(random_database)  # 30 rows > the patched limit
        store.compact()
        assert store._csr[1].dtype == np.int64
        assert store._csr[2].dtype == np.int32  # counts unaffected
        reference = ColumnarBranchStore(random_database, backend="numpy")
        for query in _queries(6, seed=61):
            branches = branch_multiset(query)
            assert (
                store.intersection_row(branches).tolist()
                == reference.intersection_row(branches).tolist()
            )

    def test_count_overflow_promotes_to_int64(self, make_store, monkeypatch):
        monkeypatch.setattr(columnar, "_COUNT_DTYPE_LIMIT", 2)
        # Three isolated same-label vertices -> one branch key with count 3.
        heavy = Graph.from_dicts({0: "A", 1: "A", 2: "A"}, {}, name="heavy")
        database = GraphDatabase([heavy] + _queries(6, seed=67))
        store = make_store(database)
        store.compact()
        assert store._csr[2].dtype == np.int64
        reference = ColumnarBranchStore(database, backend="numpy")
        for query in [heavy] + _queries(4, seed=71):
            branches = branch_multiset(query)
            assert (
                store.gbd_row(query.num_vertices, branches).tolist()
                == reference.gbd_row(query.num_vertices, branches).tolist()
            )

    def test_promotion_boundary_is_exact(self, make_store, monkeypatch):
        """Row count exactly at the limit stays int32; one past promotes."""
        graphs = _queries(6, seed=73)
        monkeypatch.setattr(columnar, "_POSITION_DTYPE_LIMIT", len(graphs))
        at_limit = make_store(GraphDatabase(graphs))
        at_limit.compact()
        assert at_limit._csr[1].dtype == np.int32
        past_limit = make_store(GraphDatabase(graphs + _queries(1, seed=74)))
        past_limit.compact()
        assert past_limit._csr[1].dtype == np.int64


class TestVectorizedKernels:
    def test_intersection_row_matches_pairwise(self, random_database, make_store):
        store = make_store(random_database)
        for query in _queries(8, seed=11):
            branches = branch_multiset(query)
            row = store.intersection_row(branches)
            for entry in random_database:
                expected = branch_intersection_size(branches, entry.branches)
                assert row[entry.graph_id] == expected

    def test_gbd_row_matches_direct_gbd(self, random_database, make_store):
        store = make_store(random_database)
        for query in _queries(8, seed=13):
            row = store.gbd_row(query.num_vertices, branch_multiset(query))
            for entry in random_database:
                assert row[entry.graph_id] == graph_branch_distance(query, entry.graph)

    def test_empty_batch_and_disjoint_queries(self, random_database, make_store):
        store = make_store(random_database)
        stranger = branch_multiset(
            random_labeled_graph(4, 4, vertex_labels=["Z1"], edge_labels=["zz"], seed=0)
        )
        for branches in (Counter(), stranger):  # no key at all, no known key
            row = store.intersection_row(branches)
            assert row.shape == (len(random_database),) and not row.any()
            # nothing shared with any row: every GBD is the extended order
            ranking, _verified, _sparse = ranked_rows(store, 4, branches, 30)
            assert ranking == sorted(
                ((e.graph_id, 1.0 / (1 + max(4, e.num_vertices))) for e in random_database),
                key=lambda pair: (-pair[1], pair[0]),
            )

    def test_a_store_of_later_entries_keeps_their_graph_ids(self, random_database, make_store):
        entries = list(random_database)[12:]
        store = make_store(entries)
        assert store.global_ids().tolist() == [entry.graph_id for entry in entries]
        _csr, orders, global_ids = store.view()
        assert sorted(global_ids.tolist()) == [entry.graph_id for entry in entries]
        assert orders.tolist() == [random_database[gid].num_vertices for gid in global_ids.tolist()]
        for query in _queries(4, seed=19):
            row = store.gbd_row(query.num_vertices, branch_multiset(query))
            assert dict(zip(store.global_ids().tolist(), row.tolist())) == {
                entry.graph_id: graph_branch_distance(query, entry.graph) for entry in entries
            }


class TestBoundKernels:
    """GBD lower bounds and the sparse (position-restricted) kernels."""

    def test_lower_bound_never_exceeds_true_gbd(self, random_database, make_store):
        store = make_store(random_database)
        for query in _queries(25, seed=31):
            branches = branch_multiset(query)
            bounds = store.gbd_lower_bound_row(query.num_vertices, branches)
            gbds = store.gbd_row(query.num_vertices, branches)
            assert (bounds <= gbds).all()
            # the norm bound dominates the plain size-difference bound
            assert (bounds >= np.abs(query.num_vertices - store.orders())).all()

    def test_lower_bound_tight_for_database_members(self, random_database, make_store):
        """A graph queried against itself must keep lb <= GBD = 0."""
        store = make_store(random_database)
        for entry in random_database:
            bounds = store.gbd_lower_bound_row(entry.num_vertices, entry.branches)
            assert bounds[entry.graph_id] == 0

    def test_bounds_stay_sound_after_incremental_appends(self, random_database, make_store):
        store = make_store(random_database)
        rng = random.Random(41)
        for _ in range(3):
            graph = random_labeled_graph(rng.randint(2, 14), rng.randint(1, 20), seed=rng)
            entry = GraphDatabase([graph])[0]
            store.append(entry)
            for query in _queries(5, seed=rng.randint(0, 10_000)):
                branches = branch_multiset(query)
                bounds = store.gbd_lower_bound_row(query.num_vertices, branches)
                assert (bounds <= store.gbd_row(query.num_vertices, branches)).all()

    def test_key_caps_track_max_multiplicity(self, random_database, make_store):
        store = make_store(random_database)
        caps = store.key_caps()
        expected = {}
        for entry in random_database:
            for key, count in entry.branches.items():
                expected[key] = max(expected.get(key, 0), count)
        assert {
            key: int(caps[key_id]) for key, key_id in store._key_ids.items()
        } == expected

    def test_matched_query_total_bounds_every_intersection(self, random_database, make_store):
        store = make_store(random_database)
        for query in _queries(10, seed=43):
            branches = branch_multiset(query)
            total = store.matched_query_total(branches)
            assert total <= query.num_vertices  # |B_Q| branches overall
            assert total >= int(store.intersection_row(branches).max(initial=0))

    @pytest.mark.parametrize("plan", sorted(PLAN_BUDGETS))
    def test_top_k_walk_ranks_like_the_dense_row(
        self, random_database, make_store, plan, monkeypatch
    ):
        """Block probes, the dense walk, or one after the other: the same ``k`` best."""
        monkeypatch.setattr(columnar, "sparse_row_budget", PLAN_BUDGETS[plan])
        store = make_store(random_database)
        orders, ids = store.orders(), store.global_ids()
        plans = set()
        for query in _queries(5, seed=47):
            branches = branch_multiset(query)
            gbds = np.maximum(query.num_vertices, orders) - store.intersection_row(branches)
            for max_gbd in (None, 3):
                rows = np.flatnonzero(gbds <= (max_gbd if max_gbd is not None else gbds.max()))
                expected = sorted(
                    zip(ids[rows].tolist(), (1.0 / (1 + gbds[rows])).tolist()),
                    key=lambda pair: (-pair[1], pair[0]),
                )
                for k in (1, 4, len(orders), len(orders) + 2):
                    ranking, verified, sparse = ranked_rows(
                        store, query.num_vertices, branches, k, max_gbd
                    )
                    assert ranking == expected[:k]
                    assert verified <= len(orders) and (sparse is None) == (verified == 0)
                    plans.add(sparse)
        assert {"sparse": True, "dense": False, "half": False}[plan] in plans


class TestFusedFilterVerify:
    """Contract of the single-pass bound-filter + verify kernel."""

    @staticmethod
    def _bars(store, num_query_vertices, tau):
        """Per-distinct-order GBD bars: min(max(|V_Q|, o), τ) — arbitrary
        but order-dependent, like the γ-threshold inversion produces."""
        distinct = np.unique(store.orders())
        return distinct, np.minimum(np.maximum(num_query_vertices, distinct), tau)

    def test_row_matches_unfused_kernels(self, random_database, make_store, monkeypatch):
        store = make_store(random_database)
        orders = store.orders()
        by_cost = columnar.sparse_row_budget
        # A 30-row store would take the dense plan nearly every time on its
        # own: force each plan in turn, then let the cost rule choose.
        for plan, budget in (
            ("sparse", lambda postings, rows: rows),
            ("dense", lambda postings, rows: 0),
            ("by cost", by_cost),
        ):
            monkeypatch.setattr(columnar, "sparse_row_budget", budget)
            for query in _queries(10, seed=53):
                branches = branch_multiset(query)
                nq = query.num_vertices
                bounds = store.gbd_lower_bound_row(nq, branches)
                dense = store.intersection_row(branches)
                for tau in (0, 1, 2, 4, 50):
                    distinct, thresholds = self._bars(store, nq, tau)
                    positions, inters, eligible, num_eligible = verified_rows(
                        store, nq, branches, thresholds
                    )
                    per_row_bar = thresholds[np.searchsorted(distinct, orders)]
                    expected_rows = np.flatnonzero(bounds <= per_row_bar)
                    assert eligible.dtype == np.bool_ and len(eligible) == len(distinct)
                    assert num_eligible == len(expected_rows)
                    if positions is None:  # the dense plan: every row's intersection
                        assert plan != "sparse" and inters.tolist() == dense.tolist()
                    else:
                        assert plan != "dense" or num_eligible == 0
                        assert positions.tolist() == expected_rows.tolist()
                        assert inters.tolist() == dense[expected_rows].tolist()

    def test_row_dense_bail_and_empty_cases(self, random_database, make_store):
        store = make_store(random_database)
        query = _queries(1, seed=59)[0]
        branches = branch_multiset(query)
        nq = query.num_vertices
        distinct, thresholds = self._bars(store, nq, 50)  # everything survives
        positions, inters, eligible, num_eligible = verified_rows(
            store, nq, branches, thresholds
        )
        # every row to verify: walking the postings once is the cheaper plan
        assert positions is None
        assert inters.tolist() == store.intersection_row(branches).tolist()
        assert eligible.all() and num_eligible == store.num_graphs
        hopeless = np.full(len(distinct), -1, dtype=np.int64)  # GBD >= 0 always
        positions, inters, eligible, num_eligible = verified_rows(
            store, nq, branches, hopeless
        )
        assert num_eligible == 0 and not eligible.any()
        assert positions.shape == (0,) and inters.shape == (0,)

    def test_a_repeat_reads_the_same_on_either_plan(
        self, random_database, make_store, monkeypatch
    ):
        store = make_store(random_database)
        query = _queries(1, seed=59)[0]
        branches, nq = branch_multiset(query), query.num_vertices
        _distinct, thresholds = self._bars(store, nq, 50)  # everything survives: dense

        def read(bars):
            positions, inters, eligible, num_eligible = verified_rows(store, nq, branches, bars)
            return positions, inters.tolist(), eligible.tolist(), num_eligible

        first = read(thresholds)
        assert first[0] is None and read(thresholds) == first
        # Nothing is remembered per thresholds array: an equal copy reads the same.
        assert read(thresholds.copy()) == first
        # A repeat the budget sends to the probes still has them to run.
        monkeypatch.setattr(columnar, "sparse_row_budget", lambda postings, rows: rows)
        sparse = read(thresholds)
        assert sparse[0] is not None and sparse[2:] == first[2:]
        # A write publishes a new snapshot, which has other rows to count.
        monkeypatch.undo()
        store.append(_appendable(store, random_database[0]))
        assert read(thresholds)[3] == first[3] + 1

    def test_sparse_row_budget_reads_the_querys_own_postings(self):
        budget = columnar.sparse_row_budget
        # no matched posting: only the rows to classify count, sparse always
        assert budget(0, 1000) == 1000
        # postings dominate: survivors' share × probe depth must stay below 1
        assert budget(10**9, 1024) == 1024 // (1024).bit_length()
        # more postings to walk, fewer rows worth probing — never none, never all
        assert 1000 > budget(100, 1000) > budget(10_000, 1000) > budget(10**6, 1000) > 0
        assert budget(0, 0) == 0
