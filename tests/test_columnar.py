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
from repro.db.columnar import ColumnarBranchStore, PosteriorTable, TopK
from repro.db.database import GraphDatabase
from repro.db.kernels import available_backends
from repro.graphs.generators import random_labeled_graph
from repro.graphs.graph import Graph
from store_rows import by_graph_id

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
        return ColumnarBranchStore(map(branches_of, entries), backend=backend)

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


def _fake_entry(graph_id, branches):
    """An entry with no graph behind it: a store row is its multiset, |V| its size."""
    branches = Counter(branches)
    return SimpleNamespace(
        graph_id=graph_id, branches=branches, num_vertices=sum(branches.values())
    )


def branches_of(entry):
    """The branch multiset of a database entry (extracted) or of a fake entry (its own)."""
    return entry.branches if isinstance(entry, SimpleNamespace) else branch_multiset(entry.graph)


def gbd_row(store, num_query_vertices, branches):
    """``GBD(Q, G)`` for every row, by position: the view's orders less the intersections."""
    view = store.view()
    return np.maximum(num_query_vertices, view[1]) - store.intersection_row(branches, view=view)


def bar_table(largest, bar):
    """A table accepting GBD ϕ at extended order ``e`` exactly while ``ϕ <= bar(e)``.

    Φ is 1.0 up to the bar and 0.0 past it, so at γ = 0.5 its suffix maximum
    keeps a range exactly when the range's GBD lower bound is within its bar.
    """
    return PosteriorTable.from_rows({
        order: (np.arange(order + 1) <= bar(order)).astype(np.float64)
        for order in range(largest + 1)
    })


def verified_rows(store, num_query_vertices, branches, bar, **view):
    """``filter_verify_rows`` (a batch of one) under :func:`bar_table` and γ = 0.5.

    The call then reads as the bound filter and the verification it fuses:
    returns ``(positions, hits, intersections, eligible, num_eligible)`` by
    position, like every row of the store — ``positions`` the verified rows,
    ascending, or ``None`` on the dense plan (every row verified); ``hits``
    the verified rows within their bar, ascending, and ``intersections``
    theirs, read as ``order - gbd``.  The hits must be exactly the verified
    rows whose GBD (by ``intersection_row``) is within the bar.
    """
    snapshot = store._snapshot_of(view.get("view"))
    distinct, bounds = snapshot.ranges
    largest = max([int(num_query_vertices), *distinct[-1:].tolist()])
    (hits, gbds, eligible, verified, sparse), = store.filter_verify_rows(
        [(num_query_vertices, branches, bar_table(largest, bar), 0.5)], **view
    )
    ranges = [range(bounds[u], bounds[u + 1]) for u in range(len(distinct))]
    num_eligible = sum(len(ranges[u]) for u in np.flatnonzero(eligible).tolist())
    assert hits.dtype == gbds.dtype == np.int64
    if num_eligible == 0:
        assert sparse is None and verified == 0
    else:
        assert sparse in (True, False)
        assert verified == (num_eligible if sparse else len(snapshot.orders))
    picked = np.flatnonzero(eligible).tolist() if sparse is not False else range(len(distinct))
    positions = np.asarray([row for u in picked for row in ranges[u]], dtype=np.int64)
    extended = np.maximum(int(num_query_vertices), snapshot.orders)
    true_gbds = extended - store.intersection_row(branches, view=view.get("view"))
    within = [row for row in positions.tolist() if true_gbds[row] <= bar(int(extended[row]))]
    assert hits.tolist() == within
    if sparse is False:
        positions = None
    return positions, hits, extended[hits] - gbds, eligible, num_eligible


#: ``sparse_row_budget`` stand-ins that force a verification plan on a small
#: store: block probes only, the dense walk at once, the switch mid-walk.
PLAN_BUDGETS = {
    "sparse": lambda postings, rows: rows,
    "dense": lambda postings, rows: 0,
    "half": lambda postings, rows: rows // 2,
}


def ranked_rows(store, num_query_vertices, branches, k, **view):
    """A top-k row of ``filter_verify_rows`` under Φ = 1 / (1 + GBD).

    Returns ``(ranking, verified, sparse)``, the ranking sorted by ``(-score, id)``.
    """
    distinct = store.order_ranges(view.get("view"))[0]
    largest = max([int(num_query_vertices), *distinct[-1:].tolist()])
    table = PosteriorTable.from_rows(
        {order: 1.0 / (1 + np.arange(order + 1)) for order in range(largest + 1)}
    )
    (ids, scores, visited, verified, sparse), = store.filter_verify_rows(
        [(num_query_vertices, branches, table, TopK(k))], **view
    )
    assert ids.dtype == np.int64 and scores.dtype == np.float64
    assert len(ids) == len(scores) and visited.dtype == np.bool_
    order = np.lexsort((ids, -scores))
    return list(zip(ids[order].tolist(), scores[order].tolist())), verified, sparse


class TestCsrLayout:
    def test_counts_shapes_and_vocabulary(self, random_database, make_store):
        store = make_store(random_database)
        store.compact()
        assert store.num_graphs == len(random_database)
        distinct = {key for entry in random_database for key in branches_of(entry)}
        assert store.num_keys == len(distinct)
        assert store.num_postings == sum(
            len(branches_of(entry)) for entry in random_database
        )

    def test_postings_match_database_and_stay_sorted(self, random_database, make_store):
        store = make_store(random_database)
        for entry in random_database:
            for key, count in branches_of(entry).items():
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
        _csr, orders, global_ids = store.view()
        assert sorted(global_ids.tolist()) == [e.graph_id for e in random_database]
        assert orders.tolist() == [random_database[gid].num_vertices for gid in global_ids]
        assert (np.diff(orders) >= 0).all()


class TestAppendBufferCompaction:
    def test_appends_are_lazy_and_compaction_is_batched(self, random_database, make_store):
        store = make_store(random_database)
        store.compact()
        before = store.num_compactions
        extras = _queries(5, seed=3)
        for graph in extras:
            store.extend([branch_multiset(graph)])
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
            store.extend([branch_multiset(graph)])
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
        learn = columnar._Vocabulary.__missing__
        monkeypatch.setattr(
            columnar._Vocabulary,
            "__missing__",
            lambda vocabulary, key: learned.append(key) or learn(vocabulary, key),
        )
        known = set(store._key_ids)
        batch = entries[10:] + [_fake_entry(40, {("new", ()): 3}), _fake_entry(41, {("new", ()): 5})]
        store.extend(map(branches_of, batch))
        assert lock.entered == 1
        fresh = {key for entry in batch for key in branches_of(entry)} - known
        assert len(fresh) > 1 and sorted(map(repr, learned)) == sorted(map(repr, fresh))
        assert len(learned) == len(set(learned))  # ("new", ()) came twice, was learned once
        caps = store.key_caps()
        assert caps[store._key_ids.get(("new", ()))] == 5  # the larger of its two postings

        del learned[:]
        store.extend(map(branches_of, batch))
        assert lock.entered == 2 and learned == []  # nothing new: the slow path is not touched
        reference = make_store(entries + batch[-2:] + batch)
        assert [array.tolist() for array in store.view()[0][:3]] == [
            array.tolist() for array in reference.view()[0][:3]
        ]
        assert list(store._key_ids) == list(reference._key_ids)
        assert caps.tolist() == reference.key_caps().tolist()

    def test_bulk_extend_matches_one_append_at_a_time(self, random_database, make_store):
        """One batch learns its new keys in one pass: same vocabulary order, caps and CSR."""
        entries = list(random_database)
        entries += [_fake_entry(40, {("new", ()): 3}), _fake_entry(41, {("new", ()): 5, ("late", ()): 2})]
        bulk = make_store(entries[:5])
        bulk.extend(map(branches_of, entries[5:]))
        single = make_store(entries[:5])
        for entry in entries[5:]:
            single.extend([branches_of(entry)])
        assert list(bulk._key_ids.items()) == list(single._key_ids.items())
        assert bulk.key_caps().tolist() == single.key_caps().tolist()
        (bulk_csr, *bulk_rest), (single_csr, *single_rest) = bulk.view(), single.view()
        assert [np.asarray(part).tolist() for part in (*bulk_csr, *bulk_rest)] == [
            np.asarray(part).tolist() for part in (*single_csr, *single_rest)
        ]


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
        store.extend([Counter()])
        assert store.compact() is True  # must do work, not early-return
        csr, orders, global_ids = store.view()  # and view() must terminate
        assert csr[3] == len(orders) == len(global_ids) == len(random_database) + 1
        row = store.intersection_row(branch_multiset(_queries(1, seed=7)[0]))
        assert len(row) == store.num_graphs
        assert by_graph_id(store, row)[-1] == 0  # the branchless row intersects nothing

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
        verified_rows(store, queries[0].num_vertices, branch_sets[0], lambda order: order)
        extras = GraphDatabase(_queries(4, seed=31))
        for entry in extras:
            store.extend([branches_of(entry)])
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
        offsets, positions, counts, _rows = store.view()[0]
        assert offsets.dtype == np.int64
        assert positions.dtype == np.int32
        assert counts.dtype == np.int32

    def test_position_overflow_promotes_to_int64(
        self, random_database, make_store, monkeypatch
    ):
        monkeypatch.setattr(columnar, "_POSITION_DTYPE_LIMIT", 4)
        store = make_store(random_database)  # 30 rows > the patched limit
        store.compact()
        assert store.view()[0][1].dtype == np.int64
        assert store.view()[0][2].dtype == np.int32  # counts unaffected
        reference = ColumnarBranchStore(map(branches_of, random_database), backend="numpy")
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
        assert store.view()[0][2].dtype == np.int64
        reference = ColumnarBranchStore(map(branches_of, database), backend="numpy")
        for query in [heavy] + _queries(4, seed=71):
            branches = branch_multiset(query)
            assert (
                gbd_row(store, query.num_vertices, branches).tolist()
                == gbd_row(reference, query.num_vertices, branches).tolist()
            )

    def test_promotion_boundary_is_exact(self, make_store, monkeypatch):
        """Row count exactly at the limit stays int32; one past promotes."""
        graphs = _queries(6, seed=73)
        monkeypatch.setattr(columnar, "_POSITION_DTYPE_LIMIT", len(graphs))
        at_limit = make_store(GraphDatabase(graphs))
        at_limit.compact()
        assert at_limit.view()[0][1].dtype == np.int32
        past_limit = make_store(GraphDatabase(graphs + _queries(1, seed=74)))
        past_limit.compact()
        assert past_limit.view()[0][1].dtype == np.int64


class TestVectorizedKernels:
    def test_intersection_row_matches_pairwise(self, random_database, make_store):
        store = make_store(random_database)
        for query in _queries(8, seed=11):
            branches = branch_multiset(query)
            row = by_graph_id(store, store.intersection_row(branches))
            for entry in random_database:
                expected = branch_intersection_size(branches, branches_of(entry))
                assert row[entry.graph_id] == expected

    def test_gbd_row_matches_direct_gbd(self, random_database, make_store):
        store = make_store(random_database)
        for query in _queries(8, seed=13):
            row = by_graph_id(store, gbd_row(store, query.num_vertices, branch_multiset(query)))
            for entry in random_database:
                assert row[entry.graph_id] == graph_branch_distance(query, entry.graph)
                assert row[entry.graph_id] == random_database.gbd_to(query, entry.graph_id)

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


class TestBoundKernels:
    """GBD lower bounds and the sparse (position-restricted) kernels."""

    def test_lower_bound_never_exceeds_true_gbd(self, random_database, make_store):
        store = make_store(random_database)
        for query in _queries(25, seed=31):
            branches = branch_multiset(query)
            bounds = store.gbd_lower_bound_row(query.num_vertices, branches)
            gbds = gbd_row(store, query.num_vertices, branches)
            assert (bounds <= gbds).all()
            # the norm bound dominates the plain size-difference bound
            assert (bounds >= np.abs(query.num_vertices - store.view()[1])).all()

    def test_lower_bound_tight_for_database_members(self, random_database, make_store):
        """A graph queried against itself must keep lb <= GBD = 0."""
        store = make_store(random_database)
        for entry in random_database:
            bounds = store.gbd_lower_bound_row(entry.num_vertices, branches_of(entry))
            assert by_graph_id(store, bounds)[entry.graph_id] == 0

    def test_bounds_stay_sound_after_incremental_appends(self, random_database, make_store):
        store = make_store(random_database)
        rng = random.Random(41)
        for _ in range(3):
            graph = random_labeled_graph(rng.randint(2, 14), rng.randint(1, 20), seed=rng)
            store.extend([branch_multiset(graph)])
            for query in _queries(5, seed=rng.randint(0, 10_000)):
                branches = branch_multiset(query)
                bounds = store.gbd_lower_bound_row(query.num_vertices, branches)
                assert (bounds <= gbd_row(store, query.num_vertices, branches)).all()

    def test_key_caps_track_max_multiplicity(self, random_database, make_store):
        store = make_store(random_database)
        caps = store.key_caps()
        expected = {}
        for entry in random_database:
            for key, count in branches_of(entry).items():
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
        _csr, orders, ids = store.view()
        plans = set()
        for query in _queries(5, seed=47):
            branches = branch_multiset(query)
            gbds = np.maximum(query.num_vertices, orders) - store.intersection_row(branches)
            expected = sorted(
                zip(ids.tolist(), (1.0 / (1 + gbds)).tolist()),
                key=lambda pair: (-pair[1], pair[0]),
            )
            for k in (1, 4, len(orders), len(orders) + 2):
                ranking, verified, sparse = ranked_rows(store, query.num_vertices, branches, k)
                assert ranking == expected[:k]
                assert verified <= len(orders) and (sparse is None) == (verified == 0)
                plans.add(sparse)
        assert {"sparse": True, "dense": False, "half": False}[plan] in plans


class TestFusedFilterVerify:
    """Contract of the single-pass bound-filter + verify kernel."""

    def test_row_matches_unfused_kernels(self, random_database, make_store, monkeypatch):
        store = make_store(random_database)
        orders = store.view()[1]
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
                    # Per-order GBD bars min(max(|V_Q|, o), τ): arbitrary but
                    # order-dependent, like the γ-threshold inversion's.
                    positions, hits, inters, eligible, num_eligible = verified_rows(
                        store, nq, branches, lambda order: min(order, tau)
                    )
                    per_row_bar = np.minimum(np.maximum(nq, orders), tau)
                    expected_rows = np.flatnonzero(bounds <= per_row_bar)
                    assert eligible.dtype == np.bool_ and len(eligible) == len(np.unique(orders))
                    assert num_eligible == len(expected_rows)
                    if positions is None:  # the dense plan: every row verified
                        assert plan != "sparse"
                    else:
                        assert plan != "dense" or num_eligible == 0
                        assert positions.tolist() == expected_rows.tolist()
                    assert inters.tolist() == dense[hits].tolist()

    def test_row_dense_bail_and_empty_cases(self, random_database, make_store):
        store = make_store(random_database)
        query = _queries(1, seed=59)[0]
        branches = branch_multiset(query)
        nq = query.num_vertices
        # every GBD within its bar: everything survives and every row is a hit
        positions, hits, inters, eligible, num_eligible = verified_rows(
            store, nq, branches, lambda order: order
        )
        # every row to verify: walking the postings once is the cheaper plan
        assert positions is None and hits.tolist() == list(range(store.num_graphs))
        assert inters.tolist() == store.intersection_row(branches).tolist()
        assert eligible.all() and num_eligible == store.num_graphs
        hopeless = lambda order: -1  # noqa: E731 - GBD >= 0 always
        positions, hits, inters, eligible, num_eligible = verified_rows(
            store, nq, branches, hopeless
        )
        assert num_eligible == 0 and not eligible.any()
        assert positions.shape == hits.shape == inters.shape == (0,)

    def test_a_repeat_reads_the_same_on_either_plan(
        self, random_database, make_store, monkeypatch
    ):
        store = make_store(random_database)
        query = _queries(1, seed=59)[0]
        branches, nq = branch_multiset(query), query.num_vertices

        def read(bar):
            positions, hits, inters, eligible, num_eligible = verified_rows(
                store, nq, branches, bar
            )
            return positions, hits.tolist(), inters.tolist(), eligible.tolist(), num_eligible

        everything = lambda order: order  # noqa: E731 - everything survives: dense
        first = read(everything)
        assert first[0] is None and read(everything) == first
        # Nothing is remembered per table: an equal one, built anew, reads the same.
        assert read(lambda order: order) == first
        # A repeat the budget sends to the probes still has them to run.
        monkeypatch.setattr(columnar, "sparse_row_budget", lambda postings, rows: rows)
        sparse = read(everything)
        assert sparse[0] is not None and sparse[1:] == first[1:]
        # A write publishes a new snapshot, which has other rows to count.
        monkeypatch.undo()
        store.extend([branches_of(random_database[0])])
        assert read(everything)[4] == first[4] + 1

    def test_sparse_row_budget_reads_the_querys_own_postings(self):
        budget = columnar.sparse_row_budget
        # no matched posting: only the rows to classify count, sparse always
        assert budget(0, 1000) == 1000
        # postings dominate: survivors' share × probe depth must stay below 1
        assert budget(10**9, 1024) == 1024 // (1024).bit_length()
        # more postings to walk, fewer rows worth probing — never none, never all
        assert 1000 > budget(100, 1000) > budget(10_000, 1000) > budget(10**6, 1000) > 0
        assert budget(0, 0) == 0
