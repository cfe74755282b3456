"""Tests for the kernel backend registry (repro.db.kernels).

The columnar store, execution core, serving engine, and snapshots all hold a
*configured* backend name and resolve it through this registry — these tests
pin the resolution semantics (auto preference, environment override, hard
errors for an explicitly requested but unbuildable native backend).
"""

from __future__ import annotations

import dataclasses
import inspect
import random
import re
import sys
import threading
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import ExecutionCore, FilterCounters
from repro.core.search import GBDASearch, within_branch_bound
from repro.db import columnar
from repro.db.columnar import ColumnarBranchStore, PosteriorTable, TopK, _Snapshot
from repro.db.database import GraphDatabase
from repro.db.query import SimilarityQuery
from repro.db.kernels import (
    KNOWN_BACKENDS,
    available_backends,
    backend_module,
    native_available,
    native_load_error,
    resolve_backend,
)
from repro.db.kernels import numpy_impl
from repro.graphs.generators import random_labeled_graph
from repro.graphs.graph import Graph
from repro.obs.metrics import get_registry
from repro.serving import BatchQueryEngine
from repro.serving.snapshot import load_engine, save_engine
from repro.testing.oracles import query_topk_reference
from store_rows import store_of

NATIVE = native_available()
needs_native = pytest.mark.skipif(not NATIVE, reason="native backend unavailable here")
needs_no_native = pytest.mark.skipif(NATIVE, reason="native backend builds here")


class TestResolveBackend:
    def test_known_names_and_registry_shape(self):
        assert KNOWN_BACKENDS == ("auto", "numpy", "native")
        assert available_backends()[0] == "numpy"
        assert resolve_backend("numpy") == "numpy"
        # name normalisation: case and surrounding whitespace are forgiven
        assert resolve_backend("  NumPy ") == "numpy"
        assert resolve_backend("") in available_backends()

    def test_auto_prefers_native_when_available(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        expected = "native" if NATIVE else "numpy"
        assert resolve_backend("auto") == expected
        assert resolve_backend() == expected

    def test_environment_overrides_auto_but_not_explicit(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        assert resolve_backend("auto") == "numpy"
        # an explicitly configured name always wins over the environment
        if NATIVE:
            assert resolve_backend("native") == "native"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("fortran")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            backend_module("fortran")

    @needs_no_native
    def test_explicit_native_raises_when_unbuildable(self, monkeypatch):
        with pytest.raises(RuntimeError, match="native.*unavailable"):
            resolve_backend("native")
        # the environment pin is equally hard — CI wants build breakage loud
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "native")
        with pytest.raises(RuntimeError, match="native.*unavailable"):
            resolve_backend("auto")

    def test_load_error_explains_unavailability(self):
        if NATIVE:
            assert native_load_error() is None
        else:
            assert isinstance(native_load_error(), str) and native_load_error()

    def test_backend_module_lookup(self):
        assert backend_module("numpy") is numpy_impl
        if NATIVE:
            from repro.db.kernels import native

            assert backend_module("native") is native


class TestKernelInterfaceDrift:
    """Three mirrors of one interface: NumPy reference, ctypes wrappers, C source.

    Nothing here loads the compiled library, so the test also holds where
    the native backend cannot be built.
    """

    LOADER_API = {"available", "load_error", "library_path"}  # native's own, not kernels
    #: The whole interface: two reads and the write path — three kernels, one
    #: filter-verify reducer among them.
    KERNELS = {"intersection_row", "filter_verify_rows", "merge_postings"}

    @staticmethod
    def public_functions(module):
        return {
            name: function
            for name, function in vars(module).items()
            if inspect.isfunction(function)
            and function.__module__ == module.__name__
            and not name.startswith("_")
        }

    @staticmethod
    def source(*parts):
        return Path(numpy_impl.__file__).parent.joinpath(*parts).read_text(encoding="utf-8")

    def test_backends_expose_the_same_kernels(self):
        from repro.db.kernels import native

        reference = self.public_functions(numpy_impl)
        kernels = self.public_functions(native)
        assert self.LOADER_API <= set(kernels)
        kernels = {name: fn for name, fn in kernels.items() if name not in self.LOADER_API}
        assert set(kernels) == self.KERNELS
        assert set(kernels) <= set(reference)
        for name, wrapper in kernels.items():
            assert len(inspect.signature(wrapper).parameters) == len(
                inspect.signature(reference[name]).parameters
            ), name
        # Whatever public function only the reference has must be
        # backend-independent, called through the reference by name.
        callers = self.source("..", "columnar.py") + self.source("native.py")
        for name in set(reference) - set(kernels):
            assert f"numpy_impl.{name}" in callers, name

    def test_every_kernel_is_called_by_the_store(self):
        from repro.db.kernels import native

        store = self.source("..", "columnar.py")
        for name in set(self.public_functions(native)) - self.LOADER_API:
            assert f"_kernels.{name}(" in store, f"{name} has no call site in columnar.py"

    def test_signatures_match_the_c_source_and_the_wrappers(self):
        from repro.db.kernels import native

        probe = {"repro_kernels_abi_version"}  # checked at load time, not a kernel
        declared = set(native._SIGNATURES) - probe
        defined = re.findall(r"^(?:void|int64_t) (repro_\w+)\(", self.source("_kernels.c"), re.M)
        called = re.findall(r"_library\(\)\s*\.(repro_\w+)\(", self.source("native.py"))
        assert declared == set(defined) - probe
        assert declared == set(called) == {f"repro_{name}" for name in self.KERNELS}


def _on_backend(database, backend):
    """The same graphs, under the same ids, in a database whose store runs ``backend``."""
    return GraphDatabase(database.graphs(), name=database.name, kernel_backend=backend)


def _engine_on(search, backend, **kwargs):
    """An engine over ``search``'s fitted model and graphs, its store on ``backend``."""
    return BatchQueryEngine(
        _on_backend(search.database, backend), search.estimator, max_tau=search.max_tau, **kwargs
    )


class TestBackendPlumbing:
    """The configured name travels store → core → engine → snapshot."""

    @pytest.fixture(scope="class")
    def fitted(self):
        rng = random.Random(17)
        graphs = [
            random_labeled_graph(rng.randint(3, 8), rng.randint(2, 10), seed=rng)
            for _ in range(12)
        ]
        database = GraphDatabase(graphs, name="kernels-plumbing")
        return GBDASearch(database, max_tau=2, num_prior_pairs=40, seed=3).fit()

    def test_store_holds_resolved_name(self):
        store = ColumnarBranchStore(backend="numpy")
        assert store.backend == "numpy"
        assert ColumnarBranchStore(backend="auto").backend in available_backends()
        with pytest.raises(ValueError):
            ColumnarBranchStore(backend="fortran")

    def test_engine_reports_active_backend(self, fitted):
        engine = _engine_on(fitted, "numpy")
        assert engine.database.kernel_backend == "numpy"
        assert engine.active_kernel_backend == "numpy"
        auto_engine = BatchQueryEngine.from_search(fitted)
        assert auto_engine.database.kernel_backend == "auto"
        assert auto_engine.active_kernel_backend in available_backends()

    def test_snapshot_round_trips_configured_backend(self, fitted, tmp_path):
        engine = _engine_on(fitted, "numpy")
        path = save_engine(engine, tmp_path / "numpy.snap")
        assert load_engine(path).database.kernel_backend == "numpy"
        # "auto" is persisted un-resolved: a snapshot from a machine with a
        # C toolchain must not pin native on a machine without one.
        auto_engine = BatchQueryEngine.from_search(fitted)
        assert auto_engine.active_kernel_backend in available_backends()
        path = save_engine(auto_engine, tmp_path / "auto.snap")
        restored = load_engine(path)
        assert restored.database.kernel_backend == "auto"

    @needs_native
    def test_backends_answer_identically(self, fitted):
        from repro.db.query import SimilarityQuery

        numpy_engine = _engine_on(fitted, "numpy", cache_size=None)
        native_engine = _engine_on(fitted, "native", cache_size=None)
        qrng = random.Random(29)
        for _ in range(12):
            query = SimilarityQuery(
                random_labeled_graph(qrng.randint(3, 9), qrng.randint(2, 12), seed=qrng),
                qrng.randint(0, 2),
                qrng.choice([0.25, 0.5, 0.9]),
            )
            a = numpy_engine.query(query)
            b = native_engine.query(query)
            assert a.accepted_ids == b.accepted_ids
            assert a.scores == b.scores


@needs_native
class TestMergePostingsParity:
    """The write-path kernel: native and NumPy emit the same next snapshot.

    Each case is stated in arrival terms — postings ``(key, row, count)`` and
    the rows' orders — and laid out here by a plain sort, so the expected
    merged CSR is computed independently of both kernels.
    """

    ORDERS = [3, 5, 3, 9, 5, 4, 12]  # rows 0..6
    #: ten postings over four keys on rows 0..3
    OLD = [
        (0, 0, 1), (0, 2, 2), (0, 3, 1), (1, 1, 3), (2, 0, 1), (2, 1, 1), (2, 2, 2),
        (2, 3, 1), (3, 1, 2), (3, 3, 4),
    ]

    @staticmethod
    def slots(orders):
        """arrival row -> position: ascending order, by arrival within one."""
        by_order = sorted(range(len(orders)), key=lambda row: (orders[row], row))
        return {row: position for position, row in enumerate(by_order)}

    def csr(self, postings, orders, num_keys):
        slot = self.slots(orders)
        segments = [
            sorted((slot[row], count) for key_of, row, count in postings if key_of == key)
            for key in range(num_keys)
        ]
        return (
            np.cumsum([0] + [len(segment) for segment in segments]).astype(np.int64),
            np.asarray([p for segment in segments for p, _ in segment], dtype=np.int32),
            np.asarray([c for segment in segments for _, c in segment], dtype=np.int32),
            len(orders),
        )

    def check(self, old, new, old_rows, num_keys, position_dtype=np.int32):
        """Both backends against the sorted model; returns the merged CSR."""
        from repro.db.kernels import native

        orders = self.ORDERS
        old_keys = max([key + 1 for key, _row, _count in old], default=0)
        csr = self.csr(old, orders[:old_rows], old_keys)
        before, after = self.slots(orders[:old_rows]), self.slots(orders)
        shift = np.asarray([after[row] for row in sorted(before, key=before.get)], dtype=np.int64)
        by_position = sorted(new, key=lambda posting: after[posting[1]])
        pending = tuple(
            np.asarray(column, dtype=np.int64).reshape(-1)
            for column in zip(*[(key, after[row], count) for key, row, count in by_position])
        ) or tuple(np.empty(0, dtype=np.int64) for _ in range(3))
        expected = self.csr(old + new, orders, num_keys)
        args = (csr, pending, num_keys, shift, position_dtype, np.int32)
        mine, theirs = native.merge_postings(*args), numpy_impl.merge_postings(*args)
        for a, b, c in zip(mine, theirs, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b) and np.array_equal(a, c)
        return (*mine, len(orders))

    def test_known_and_new_keys_interleaved(self):
        # rows 4..6: orders 5 (among), 4 (below the old 5s) and 12 (above every
        # old one); old keys and one new to the vocabulary (4)
        new = [(1, 4, 2), (3, 4, 1), (0, 5, 1), (4, 5, 3), (1, 6, 1), (4, 6, 2)]
        offsets, positions, counts, rows = self.check(self.OLD, new, 4, 5)
        # positions: row 0 -> 0, 2 -> 1, 5 -> 2, 1 -> 3, 4 -> 4, 3 -> 5, 6 -> 6
        assert offsets.tolist() == [0, 4, 7, 11, 14, 16] and rows == 7
        assert positions.tolist() == [0, 1, 2, 5, 3, 4, 6, 0, 1, 3, 5, 3, 4, 5, 2, 6]
        assert counts.tolist() == [1, 2, 1, 1, 3, 2, 1, 1, 2, 1, 1, 2, 1, 4, 3, 2]

    def test_empty_pending_still_covers_new_rows(self):
        # zero-branch rows only: nothing to merge, yet old rows move past row 5
        merged = self.check(self.OLD, [], 4, 4)
        assert merged[0].tolist() == [0, 3, 4, 8, 10] and merged[3] == 7

    def test_empty_store(self):
        new = [(0, 0, 2), (1, 0, 1), (0, 1, 1), (2, 2, 3)]
        offsets, positions, _counts, _rows = self.check([], new, 0, 3)
        # rows 3..6 carry no branch but take their places: row 1 sits at position 3
        assert offsets.tolist() == [0, 2, 3, 4] and positions.tolist() == [0, 3, 0, 1]

    def test_all_new_keys(self):
        new = [(4, 4, 1), (5, 4, 2), (6, 5, 1), (4, 6, 1)]
        offsets, positions, _counts, _rows = self.check(self.OLD, new, 4, 7)
        assert offsets.tolist() == [0, 3, 4, 8, 10, 12, 13, 14]
        assert positions[10:].tolist() == [4, 6, 4, 2]

    def test_wide_layout_delegates_to_the_reference(self):
        merged = self.check(self.OLD, [(1, 4, 2), (4, 4, 1)], 4, 5, position_dtype=np.int64)
        assert merged[1].dtype == np.int64 and merged[2].dtype == np.int32


# --------------------------------------------------------------------------- #
# the two reducers: native == numpy_impl == the scalar loop
# --------------------------------------------------------------------------- #
INT32_MAX = int(np.iinfo(np.int32).max)
#: Eight keys, multiplicities up to three: orders 0 (no branch at all) to 15.
reducer_branch_sets = st.dictionaries(
    st.tuples(st.just("k"), st.integers(0, 7)), st.integers(1, 3), max_size=5
).map(Counter)
#: Query multisets also draw keys no stored graph has (nothing matched at all
#: when they draw nothing else).
reducer_queries = st.dictionaries(
    st.tuples(st.sampled_from(["k", "unknown"]), st.integers(0, 7)), st.integers(1, 3), max_size=5
).map(Counter)
#: Few distinct posteriors: γ often *is* a table entry and whole stores tie.
TABLE_VALUES = np.asarray([0.0, 0.25, 0.5, 0.75, 1.0])


def _store_of(entries, backend):
    """A store of ``entries``' multisets whose snapshot names each row by its entry's id.

    A store numbers its rows in arrival order; the reducers read a position's
    id off the snapshot only, so relabelling it puts ids in any relation to
    positions — and under ties and in the zero-bound fill the id decides.
    """
    store = store_of([entry.branches for entry in entries], backend=backend)
    csr, orders, arrival = store.view()
    ids = np.asarray([entry.graph_id for entry in entries], dtype=np.int64)
    store._published = _Snapshot(csr, orders, ids[arrival])
    return store


def _reducer_stores(multisets, ids, position_limit):
    """The same rows under every backend (``position_limit`` 5: the wide layout)."""
    entries = [
        SimpleNamespace(graph_id=graph_id, num_vertices=sum(branches.values()), branches=branches)
        for graph_id, branches in zip(ids, multisets)
    ]
    saved = columnar._POSITION_DTYPE_LIMIT
    columnar._POSITION_DTYPE_LIMIT = position_limit
    try:
        stores = {backend: _store_of(entries, backend) for backend in available_backends()}
    finally:
        columnar._POSITION_DTYPE_LIMIT = saved
    return entries, stores


def _sparse_budget(store, query):
    """``sparse_row_budget`` (as patched, if it is) of one query over a store's snapshot.

    Its input, the postings of the query's known keys, is summed from the
    snapshot's ``segments``.
    """
    snapshot = store.view()
    key_ids = [store._key_ids.get(key) for key in query]
    matched = sum(snapshot.segments[key_id] for key_id in key_ids if key_id is not None)
    return columnar.sparse_row_budget(matched, snapshot.csr[3])


def _scalar_rows(entries, query):
    """``(extended order, GBD)`` of every row, by the per-pair loop."""
    num_query_vertices = sum(query.values())
    rows = []
    for entry in entries:
        order = max(num_query_vertices, entry.num_vertices)
        shared = sum(min(count, entry.branches.get(key, 0)) for key, count in query.items())
        rows.append((order, order - shared))
    return rows


def _random_table(seed, constant, largest):
    """A posterior table of rows 0..largest that are not monotone in ϕ (nor anything else).

    ``constant``: that value everywhere — every row a hit or none, every score a tie.
    """
    rng = np.random.default_rng(seed)
    return PosteriorTable.from_rows({
        order: np.full(order + 1, constant) if constant is not None
        else TABLE_VALUES[rng.integers(0, len(TABLE_VALUES), size=order + 1)]
        for order in range(largest + 1)
    })


def _table_of(rows):
    """A table of rows 0..len(rows) - 1, row ``e`` the first ``e + 1`` values of ``rows[e]``."""
    return PosteriorTable.from_rows(dict(enumerate(rows)))


def _phi(table, order, gbd):
    return float(table.row(order)[gbd])


def _best(table, order, gbd):
    return float(table.best[table.offsets[order] + gbd])


def _ranked_pairs(pairs):
    return sorted(pairs, key=lambda pair: (-pair[1], pair[0]))


def _top_k_row(store, num_query_vertices, query, table, k):
    """A batch of one top-k row: ``(ids, scores, visited, verified, sparse)``."""
    (found,) = store.filter_verify_rows([(num_query_vertices, query, table, TopK(k))])
    return found


def _scalar_top_k(entries, scalar, num_query_vertices, matched_total, table, k, budget):
    """``(ranking, verified, sparse)`` of the group walk, one Python step at a time.

    The ranking is checked against the plain definition first — the first ``k``
    of every row under ``(-score, id)`` — so the walk is held to it, not the
    other way round.
    """
    scored = {
        position: (entry.graph_id, _phi(table, *scalar[position]))
        for position, entry in enumerate(entries)
    }
    groups = {}
    for position, entry in enumerate(entries):
        groups.setdefault(entry.num_vertices, []).append(position)
    bounds = {}
    for order in groups:
        extended = max(num_query_vertices, order)
        lower = extended - min(matched_total, order)
        bound = _best(table, extended, lower)
        if bound > 0.0:
            bounds[order] = bound
    kept, verified, dense = [], 0, False
    for order in sorted(bounds, key=lambda order: (-bounds[order], order)):
        if len(kept) == k and bounds[order] < kept[-1][1]:
            break
        dense = dense or verified + len(groups[order]) > budget
        verified += len(groups[order])
        kept = _ranked_pairs(
            kept + [scored[position] for position in groups[order] if position in scored]
        )[:k]
    if len(kept) < k or kept[-1][1] <= 0.0:
        zero = [
            (entries[position].graph_id, 0.0)
            for order in groups.keys() - bounds.keys()
            for position in groups[order]
        ]
        kept = _ranked_pairs(kept + zero)[:k]
    assert kept == _ranked_pairs(scored.values())[:k]
    return kept, verified, (not dense) if verified else None


class TestReducerParity:
    """Hits and k-best pairs: both backends against the scalar loop, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        multisets=st.lists(reducer_branch_sets, max_size=12),
        query=reducer_queries,
        table=st.tuples(st.integers(0, 10_000), st.sampled_from([None, None, 0.5])),
        gamma=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 0.6, 2.0]),
        plan=st.sampled_from(["sparse", "dense", "by cost"]),
        position_limit=st.sampled_from([5, INT32_MAX]),
    )
    def test_threshold_reducer_equals_the_scalar_loop(
        self, multisets, query, table, gamma, plan, position_limit
    ):
        entries, stores = _reducer_stores(multisets, range(100, 100 + len(multisets)), position_limit)
        # Hits come back by position: ascending order, by arrival within one.
        by_order = sorted(range(len(entries)), key=lambda row: (entries[row].num_vertices, row))
        slot = {row: position for position, row in enumerate(by_order)}
        num_query_vertices = sum(query.values())
        scalar = _scalar_rows(entries, query)
        distinct = sorted({entry.num_vertices for entry in entries})
        largest = max([num_query_vertices, *distinct])
        table = _random_table(*table, largest)

        matched_total = stores["numpy"].matched_query_total(query)
        # A range is kept when some GBD its lower bound allows is accepted:
        # the suffix maximum there reaches γ.
        eligible = [
            max(
                _phi(table, max(num_query_vertices, order), gbd)
                for gbd in range(
                    max(num_query_vertices, order) - min(matched_total, order),
                    max(num_query_vertices, order) + 1,
                )
            ) >= gamma
            for order in distinct
        ]
        eligible_orders = {order for order, kept in zip(distinct, eligible) if kept}
        survivors = [
            position for position, entry in enumerate(entries)
            if entry.num_vertices in eligible_orders
        ]
        by_cost = columnar.sparse_row_budget
        if plan != "by cost":
            columnar.sparse_row_budget = lambda postings, rows: rows if plan == "sparse" else 0
        try:
            budget = _sparse_budget(stores["numpy"], query)
            sparse = None if not survivors else len(survivors) <= budget
            verified = survivors if sparse is not False else range(len(entries))
            hits = sorted(
                (slot[row], scalar[row][1])
                for row in verified
                if _phi(table, *scalar[row]) >= gamma
            )
            for backend, store in stores.items():
                assert (store.view()[0][1].dtype == np.int64) == (len(entries) > position_limit)
                (positions, gbds, mask, count, taken), = store.filter_verify_rows(
                    [(num_query_vertices, query, table, gamma)]
                )
                assert positions.dtype == gbds.dtype == np.int64, backend
                assert list(zip(positions.tolist(), gbds.tolist())) == hits, backend
                assert mask.dtype == np.bool_ and mask.tolist() == eligible, backend
                assert taken is sparse and count == len(verified) * bool(survivors), backend
        finally:
            columnar.sparse_row_budget = by_cost

    @settings(max_examples=250, deadline=None)
    @given(
        multisets=st.lists(reducer_branch_sets, min_size=1, max_size=12),
        query=reducer_queries,
        id_order=st.sampled_from(["ascending", "descending", "shuffled"]),
        data=st.data(),
        table=st.tuples(st.integers(0, 10_000), st.sampled_from([None, None, None, 0.5, 0.0])),
        padding=st.sampled_from([0, 1]),
        plan=st.sampled_from(["sparse", "dense", "half", "by cost"]),
        position_limit=st.sampled_from([5, INT32_MAX]),
    )
    def test_k_best_reducer_equals_the_scalar_ranking(
        self, multisets, query, id_order, data, table, padding, plan, position_limit
    ):
        # Ids in no relation to positions: under ties, and in the zero-bound
        # fill, it is the id that decides — never the position.
        ids = list(range(50, 50 + len(multisets)))
        if id_order != "ascending":
            ids = ids[::-1] if id_order == "descending" else data.draw(st.permutations(ids))
        entries, stores = _reducer_stores(multisets, ids, position_limit)
        k = data.draw(st.sampled_from([1, 2, 3, len(entries), len(entries) + 3]))
        num_query_vertices = sum(query.values())
        scalar = _scalar_rows(entries, query)
        largest = max(num_query_vertices, max(entry.num_vertices for entry in entries))
        # A table may hold rows no query reads.
        table = _random_table(*table, largest + padding)
        by_cost = columnar.sparse_row_budget
        if plan != "by cost":
            columnar.sparse_row_budget = {
                "sparse": lambda postings, rows: rows,
                "dense": lambda postings, rows: 0,
                "half": lambda postings, rows: rows // 2,  # the switch comes mid-walk
            }[plan]
        try:
            expected = _scalar_top_k(
                entries, scalar, num_query_vertices, stores["numpy"].matched_query_total(query),
                table, k, _sparse_budget(stores["numpy"], query),
            )
            for backend, store in stores.items():
                assert (store.view()[0][1].dtype == np.int64) == (len(entries) > position_limit)
                got_ids, got_scores, visited, verified, sparse = _top_k_row(
                    store, num_query_vertices, query, table, k
                )
                assert got_ids.dtype == np.int64 and got_scores.dtype == np.float64, backend
                # The k best, ranked by the reducer itself.
                got = list(zip(got_ids.tolist(), got_scores.tolist()))
                assert (got, verified, sparse) == expected, backend
                assert int(np.diff(store.view().ranges[1])[visited].sum()) == verified, backend
        finally:
            columnar.sparse_row_budget = by_cost

    @pytest.mark.parametrize("backend", available_backends())
    def test_the_named_top_k_cases(self, backend, monkeypatch):
        """Each situation the group walk has to get right, met for sure, by hand."""
        def entries_of(*rows):
            return [
                SimpleNamespace(graph_id=graph_id, num_vertices=sum(b.values()), branches=b)
                for graph_id, b in ((graph_id, Counter(branches)) for graph_id, branches in rows)
            ]

        a, b, c = ("k", 0), ("k", 1), ("k", 2)
        # Ids descend with position; orders 2 (rows 0, 3, 5), 3 (rows 1, 4), 4 (row 2).
        entries = entries_of(
            (90, {a: 2}), (80, {a: 2, b: 1}), (70, {a: 2, b: 2}),
            (60, {a: 1, b: 1}), (50, {a: 1, c: 2}), (40, {c: 2}),
        )
        store = _store_of(entries, backend)
        query = Counter({a: 2})  # |V_Q| = 2: extended orders 2, 3, 4, lower bounds 0, 1, 2
        decreasing = _table_of([1.0 / (1 + np.arange(order + 1)) for order in range(5)])
        flat = _table_of([np.full(order + 1, 0.5) for order in range(5)])
        sawtooth = _table_of([[0.25, 0.75, 0.0, 0.5, 0.25, 0.75]] * 5)  # not monotone in ϕ

        def top(table, k, budget):
            monkeypatch.setattr(columnar, "sparse_row_budget", lambda postings, rows: budget)
            ids, scores, _visited, verified, sparse = _top_k_row(store, 2, query, table, k)
            scalar = _scalar_rows(entries, query)
            expected = _scalar_top_k(
                entries, scalar, 2, store.matched_query_total(query), table, k, budget,
            )
            ranking = _ranked_pairs(zip(ids.tolist(), scores.tolist()))
            assert (ranking, verified, sparse) == expected
            return ranking, verified, sparse

        # k = 1: the exact match ends the scan inside the query's own size group.
        assert top(decreasing, 1, 6) == ([(90, 1.0)], 3, True)
        # k > rows: everything is ranked, groups by bound, ids inside a tie.
        ranking, verified, sparse = top(decreasing, 9, 6)
        assert [graph_id for graph_id, _ in ranking] == [90, 60, 80, 40, 50, 70]
        assert (verified, sparse) == (6, True)
        # One score everywhere: equal bounds across all three groups, so the id
        # alone decides and no group may be left out — the smallest ids sit in
        # the *last* rows of the groups visited last.
        assert top(flat, 2, 6) == ([(40, 0.5), (50, 0.5)], 6, True)
        # The budget holds the first group (3 rows), not the second: a dense walk
        # after a walked group, over a row that is not monotone in ϕ.
        ranking, verified, sparse = top(sawtooth, 4, 4)
        assert (verified, sparse) == (6, False) and ranking[0] == (60, 0.75)
        # Every bound zero: nothing is verified, the smallest ids fill the
        # ranking at 0.0 — by id, though positions ascend the other way.
        nothing = _table_of([np.zeros(order + 1) for order in range(5)])
        assert top(nothing, 3, 6) == ([(40, 0.0), (50, 0.0), (60, 0.0)], 0, None)
        # A query that matches no key: bounds from the sizes alone.
        query = Counter({("unknown", 0): 2})
        assert top(decreasing, 2, 6) == ([(40, 1 / 3), (60, 1 / 3)], 3, True)
        # A table grown copy on write past the orders the store holds.
        query = Counter({a: 2})
        grown = decreasing.grown({order: np.zeros(order + 1) for order in range(5, 11)})
        assert top(grown, 1, 6) == ([(90, 1.0)], 3, True)

    @pytest.mark.parametrize("backend", available_backends())
    def test_a_lone_hit_at_every_slot_of_a_long_range(self, backend, monkeypatch):
        """Ranges longer than the blocks the compiled reduce skips at a time.

        Five rows of order 2, then 40 of order 3 of which only one matches the
        query: wherever it sits, both plans find it, at its position.
        """
        # only an exact match (GBD 0) is accepted
        table = _table_of([np.eye(1, order + 1)[0] for order in range(4)])
        query = Counter({("k", 0): 3})
        for lone in range(40):
            rows = [Counter({("k", 2): 2})] * 5 + [
                Counter({("k", 0 if row == lone else 1): 3}) for row in range(40)
            ]
            entries = [
                SimpleNamespace(graph_id=row, num_vertices=sum(b.values()), branches=b)
                for row, b in enumerate(rows)
            ]
            store = _store_of(entries, backend)
            for budget in (0, len(rows)):
                monkeypatch.setattr(columnar, "sparse_row_budget", lambda postings, n: budget)
                positions, gbds, *_ = store.filter_verify_rows([(3, query, table, 0.5)])[0]
                assert positions.tolist() == [5 + lone] and gbds.tolist() == [0], (lone, budget)

    @pytest.mark.parametrize("backend", available_backends())
    def test_a_table_that_does_not_hold_a_row_the_read_needs_is_refused(
        self, backend, monkeypatch
    ):
        """Refused before any query of the batch is reduced, on both backends.

        Orders 3 and 6 stored; a query of 2 vertices reads rows 3 and 6.  A
        table that lacks either, or whose row 6 runs past its cells (by one,
        or from a negative or huge offset), is refused with ``ValueError`` —
        also when the bad row rides behind a good one.  The sanitised leg
        holds the kernel to reading nothing outside the table meanwhile.
        """
        entries = [
            SimpleNamespace(graph_id=graph_id, num_vertices=sum(b.values()), branches=b)
            for graph_id, b in ((7, Counter({("k", 0): 3})), (8, Counter({("k", 1): 6})))
        ]
        store = _store_of(entries, backend)
        query = Counter({("k", 0): 2})
        full = _table_of([np.ones(order + 1) for order in range(7)])
        offsets, phi, best = full
        short = offsets.copy()
        short[6] = len(phi) - 6  # row 6's last cell one past the end
        tables = {
            "no row 6": PosteriorTable.from_rows({3: np.ones(4)}),
            "no row 3": PosteriorTable.from_rows({6: np.ones(7)}),
            "no rows at all": PosteriorTable.from_rows({}),
            "row 6 unfilled": PosteriorTable(offsets[:6], phi, best),
            "row 6 past the cells": PosteriorTable(short, phi, best),
            "best shorter than phi": PosteriorTable(offsets, phi, best[:-1]),
            "a negative offset": PosteriorTable(
                np.where(offsets == offsets[6], -2, offsets), phi, best
            ),
            "a huge offset": PosteriorTable(
                np.where(offsets == offsets[6], np.iinfo(np.int64).max, offsets), phi, best
            ),
        }
        for name, table in tables.items():
            for reducer in (0.5, TopK(1)):
                for rows in (
                    [(2, query, table, reducer)],
                    [(2, query, full, 0.5), (2, query, table, reducer)],
                ):
                    with pytest.raises(ValueError, match="lacks a row it reads"):
                        store.filter_verify_rows(rows)
        # The full table reads fine, and so does one holding just the rows read.
        for table in (full, PosteriorTable.from_rows({3: np.ones(4), 6: np.ones(7)})):
            assert store.filter_verify_rows([(2, query, table, 0.5)])[0][0].tolist() == [0, 1]
        with pytest.raises(ValueError, match="positive"):
            store.filter_verify_rows([(2, query, full, TopK(0))])


class _SawtoothPosterior:
    """Φ that is not monotone in ϕ, with γ = 0.5 an entry of every row."""

    VALUES = (0.9, 0.2, 0.5, 0.1, 0.7)

    def posterior(self, gbd_value, tau_hat, extended_order):
        return self.VALUES[(gbd_value + extended_order + tau_hat) % len(self.VALUES)]

    def posterior_row(self, tau_hat, extended_order):
        return [self.posterior(gbd, tau_hat, extended_order) for gbd in range(extended_order + 1)]


@pytest.fixture(scope="module")
def reducer_search():
    """90 graphs of 4–9 vertices: a handful of order groups, many ties."""
    rng = random.Random(41)
    graphs = [
        random_labeled_graph(rng.randint(4, 9), rng.randint(3, 11), seed=rng) for _ in range(90)
    ]
    database = GraphDatabase(graphs, name="kernels-reducers")
    return GBDASearch(database, max_tau=3, num_prior_pairs=80, seed=5).fit()


def _path(labels):
    """A path whose vertices carry ``labels``; every edge is labeled ``x``."""
    graph = Graph()
    for vertex, label in enumerate(labels):
        graph.add_vertex(vertex, label)
    for vertex in range(1, len(labels)):
        graph.add_edge(vertex - 1, vertex, "x")
    return graph


@pytest.fixture(scope="module")
def path_searches():
    """600 ``A``/``B`` paths of 4–6 vertices, without and with the branch bound.

    Three order groups of 200 rows and half a dozen branch keys with long
    posting segments: probing a handful of rows is cheaper than the dense walk,
    so top-k starts with sparse chunks and switches inside a group.
    """
    rng = random.Random(71)
    graphs = [_path([rng.choice("AB") for _ in range(4 + index % 3)]) for index in range(600)]
    database = GraphDatabase(graphs, name="kernels-paths")
    return {
        pruning: GBDASearch(
            database, max_tau=2, num_prior_pairs=80, seed=5, use_index_pruning=pruning
        ).fit()
        for pruning in (False, True)
    }


def _reducer_queries(num, seed, *, top_k=None):
    rng = random.Random(seed)
    return [
        SimilarityQuery(
            random_labeled_graph(rng.randint(3, 10), rng.randint(2, 12), seed=rng),
            rng.randint(0, 3),
            rng.choice([0.05, 0.5, 0.9]),
            top_k=top_k and rng.choice(top_k),
        )
        for _ in range(num)
    ]


class TestReducersInTheCore:
    """The fused store calls as the execution core drives them."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("use_pruning", [False, True])
    def test_a_posterior_that_is_not_monotone_is_thresholded_like_the_loop(
        self, reducer_search, backend, use_pruning, monkeypatch
    ):
        database = _on_backend(reducer_search.database, backend)
        estimator = _SawtoothPosterior()
        for plan, budget in (("sparse", lambda postings, rows: rows), ("dense", lambda *_: 0)):
            monkeypatch.setattr(columnar, "sparse_row_budget", budget)
            core = ExecutionCore(database, estimator, max_tau=3)
            core.warm(range(4), range(1, 11))
            for query in _reducer_queries(12, seed=43):
                graph, tau_hat = query.query_graph, query.tau_hat
                expected = {}
                for entry in database:
                    gbd = database.gbd_to(graph, entry.graph_id)
                    order = max(graph.num_vertices, entry.num_vertices)
                    score = estimator.posterior(gbd, tau_hat, order)
                    if score >= 0.5 and (not use_pruning or gbd <= 2 * tau_hat):
                        expected[entry.graph_id] = score
                query = SimilarityQuery(graph, tau_hat, 0.5)
                if use_pruning:  # the branch bound: a post-filter over every posterior
                    scored = within_branch_bound(core.execute(query), tau_hat)
                    assert scored.scores_dict("accepted") == expected, (plan, tau_hat)
                    continue
                ids, scores = core.execute_pruned(query)
                assert dict(zip(ids, scores)) == expected, (plan, tau_hat)
                # Hits by ascending position: the ids of the store's layout.
                position_of = {gid: at for at, gid in enumerate(core.store.view()[2].tolist())}
                positions = [position_of[gid] for gid in ids]
                assert positions == sorted(set(positions))
            if not use_pruning:  # ``execute`` walks the dense row whatever the budget
                assert core.filter_counters.sparse_passes == 0 or plan == "sparse"
                assert core.filter_counters.dense_passes == 0 or plan == "dense"

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("use_pruning", [False, True])
    def test_a_dense_walk_after_walked_groups(
        self, path_searches, backend, use_pruning, monkeypatch
    ):
        """A budget of 250 rows: the first group of 200 is probed, the second walks densely."""
        monkeypatch.setattr(columnar, "sparse_row_budget", lambda postings, rows: 250)
        search = path_searches[use_pruning]
        core = ExecutionCore(
            _on_backend(search.database, backend), search.estimator, max_tau=2
        )
        core.warm(range(3), range(1, 9))
        counters = columnar._counters(backend)
        rng = random.Random(73)
        plans = Counter()
        for _ in range(12):
            labels = [rng.choice("AABC") for _ in range(rng.randint(3, 7))]
            query = SimilarityQuery(_path(labels), rng.randint(0, 2), 0.5)
            reference = query_topk_reference(search, query, len(search.database) + 1)
            for k in (1, 3, 250, len(search.database) + 5):
                before = dataclasses.replace(core.filter_counters)
                calls, cells = (child.value for child in counters.row)
                if use_pruning:  # the search's ablation: the first k of the dense row within 2 τ̂
                    ranking = within_branch_bound(core.execute(query), query.tau_hat).ranking(k)
                else:
                    ranking = core.execute_topk(query, k)
                assert ranking == reference[:k], (labels, k, query.tau_hat)
                after = core.filter_counters
                verified = after.candidates_verified - before.candidates_verified
                dense = after.dense_passes - before.dense_passes
                sparse = after.sparse_passes - before.sparse_passes
                # whole groups, one plan, one call — which counts the rows it produced
                assert verified % 200 == 0 and dense + sparse == bool(verified)
                assert dense == (verified > 200)
                assert counters.row[0].value - calls == 1
                assert counters.row[1].value - cells == (600 if dense else verified)
                plans[None if not verified else not dense] += 1
        if use_pruning:  # every ablation ranking reads one dense walk of all rows
            assert set(plans) == {False}
        else:  # probes only; probes, then the dense walk for the groups still in reach
            assert plans[True] and plans[False]

    def test_threads_sharing_one_engine_answer_like_a_serial_run(self, reducer_search):
        """No state is shared between calls: the accumulators are per call."""
        self.threads_answer_like_a_serial_run(reducer_search, top_k=[None, None, 1, 7])

    def test_threads_sharing_one_engine_rank_like_a_serial_run(self, reducer_search):
        """Top-k only: every call allocates, walks and frees its own accumulator."""
        self.threads_answer_like_a_serial_run(reducer_search, top_k=[1, 3, 10, 50])

    @staticmethod
    def threads_answer_like_a_serial_run(reducer_search, top_k):
        engine = BatchQueryEngine.from_search(reducer_search, cache_size=None)
        queries = _reducer_queries(150, seed=53, top_k=top_k)
        serial = [engine.query(query) for query in queries]
        answers = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def run(worker):
                answers[worker] = [engine.query(query) for query in queries]

            threads = [threading.Thread(target=run, args=(worker,)) for worker in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        for worker in range(4):
            for mine, theirs in zip(answers[worker], serial):
                assert mine.accepted_ids == theirs.accepted_ids
                assert mine.scores == theirs.scores and mine.ranking == theirs.ranking


@needs_native
class TestReducerCountGuards:
    """What the hits-only paths cost, in calls and array lengths (no clock)."""

    @staticmethod
    def kernel_calls():
        counter = get_registry().get("repro_kernel_calls_total")
        return {labels: child.value for labels, child in counter.series()}

    def calls_during(self, action):
        before = self.kernel_calls()
        result = action()
        after = self.kernel_calls()
        return result, {
            labels[0]: after[labels] - before.get(labels, 0)
            for labels in after
            if labels[1] == "native" and after[labels] != before.get(labels, 0)
        }

    def test_a_hits_only_query_is_one_fused_call_and_no_d_length_array(self, reducer_search):
        engine = _engine_on(reducer_search, "native", cache_size=None)
        engine.warm(range(4))
        core = engine._core
        for query in _reducer_queries(10, seed=59):
            _answer, calls = self.calls_during(lambda: engine.query(query))
            assert calls == {"filter_verify_rows": 1}  # no dense ``row`` call beside it
            ids, scores = core.execute_pruned(query)  # the hits, nothing per candidate
            assert type(ids) is type(scores) is list and len(ids) == len(scores)
            full = core.execute(query)
            assert dict(zip(ids, scores)) == full.scores_dict("accepted")
            assert ids == full.graph_ids[full.accepted].tolist()  # by position

    def test_filter_counters_of_a_mixed_stream(self, reducer_search, monkeypatch):
        """Per query: what the bound arithmetic says was pruned, verified, and how."""
        core = ExecutionCore(
            _on_backend(reducer_search.database, "native"), reducer_search.estimator, max_tau=3
        )
        core.warm(range(4), range(1, 11))
        store = core.store
        view = _csr, orders, _ids = store.view()
        num_rows = len(orders)
        distinct = view.ranges[0]
        # Half the store: queries land on both sides of the budget.
        monkeypatch.setattr(columnar, "sparse_row_budget", lambda postings, rows: rows // 2)
        plans = set()
        for query in _reducer_queries(40, seed=61):
            branches, num_vertices = query.branches(), query.query_graph.num_vertices
            thresholds = np.asarray([
                core.acceptance_threshold(query.tau_hat, query.gamma, max(num_vertices, order))
                for order in distinct.tolist()
            ])
            bounds = store.gbd_lower_bound_row(num_vertices, branches, view=view)
            eligible = int((bounds <= thresholds[np.searchsorted(distinct, orders)]).sum())
            sparse = None if eligible == 0 else eligible <= num_rows // 2
            verified = eligible if sparse is not False else num_rows
            expected = FilterCounters(
                num_rows, num_rows - verified, verified, int(sparse is False), int(sparse is True)
            )
            before = dataclasses.replace(core.filter_counters)
            core.execute_pruned(query, query_branches=branches)
            after = core.filter_counters
            delta = FilterCounters(
                *(
                    getattr(after, field.name) - getattr(before, field.name)
                    for field in dataclasses.fields(FilterCounters)
                )
            )
            assert delta == expected
            # The same query through ``execute``: every row verified, one dense pass.
            before = dataclasses.replace(core.filter_counters)
            core.execute(query, query_branches=branches)
            assert core.filter_counters.candidates_verified - before.candidates_verified == num_rows
            assert core.filter_counters.dense_passes - before.dense_passes == 1
            plans.add(sparse)
        assert plans == {None, True, False}

    def test_a_top_k_query_is_one_call_handing_back_k_rows(self, reducer_search, monkeypatch):
        engine = _engine_on(reducer_search, "native", cache_size=None)
        engine.warm(range(4))
        handed_back = []
        reducer = ColumnarBranchStore.filter_verify_rows

        def spy(store, *args, **kwargs):
            found = reducer(store, *args, **kwargs)
            handed_back.extend((len(row[0]), len(row[1])) for row in found)
            return found

        monkeypatch.setattr(ColumnarBranchStore, "filter_verify_rows", spy)
        for query in _reducer_queries(12, seed=67):
            for k in (1, 5):
                del handed_back[:]
                answer, calls = self.calls_during(lambda: engine.query_topk(query, k))
                assert calls == {"row": 1}  # bounds, walk, k-best and cut-off: that call
                assert handed_back == [(k, k)] and len(answer.ranking) == k

    def test_a_selective_top_k_verifies_the_groups_in_reach_and_builds_nothing_d_long(
        self, monkeypatch
    ):
        """``filter_selective`` in small: 8–120 vertices, τ̂ = 0, most bounds zero."""
        rng = random.Random(83)
        graphs = [
            random_labeled_graph(8 + index % 113, 10 + index % 113, seed=rng)
            for index in range(452)
        ]
        database = GraphDatabase(graphs, name="kernels-selective", kernel_backend="native")
        search = GBDASearch(database, max_tau=1, num_prior_pairs=120, seed=5).fit()
        engine = BatchQueryEngine.from_search(search, cache_size=None)
        engine.warm(range(2))
        core, store = engine._core, engine._core.store
        distinct, row_bounds = store.view().ranges
        built = []
        concatenate = np.concatenate

        def spied_top_k(query, k):
            """The query with every ``np.concatenate`` call recorded."""
            with monkeypatch.context() as patched:
                patched.setattr(
                    np, "concatenate", lambda arrays, *a, **kw: built.append("concatenate")
                    or concatenate(arrays, *a, **kw),
                )
                return self.calls_during(lambda: engine.query_topk(query, k))

        for index in (3, 40, 77, 110):
            query = SimilarityQuery(graphs[index].copy(), 0, 0.95)  # a planted exact match
            extended = np.maximum(query.query_graph.num_vertices, distinct)
            lower = extended - np.minimum(store.matched_query_total(query.branches()), distinct)
            table = core._table(0, query.query_graph.num_vertices, distinct)
            bounds = table.best[table.offsets[extended] + lower]
            assert 0 < (bounds > 0.0).sum() < len(distinct) // 4
            for k in (1, 10):
                reference = query_topk_reference(search, query, k)
                before = core.filter_counters.candidates_verified
                answer, calls = spied_top_k(query, k)
                assert answer.ranking == reference and calls == {"row": 1}
                # exactly the groups whose bound reaches the k-th score — ties included
                in_reach = (bounds > 0.0) & (bounds >= reference[-1][1])
                assert core.filter_counters.candidates_verified - before == int(
                    np.diff(row_bounds)[in_reach].sum()
                )
        assert built == []
