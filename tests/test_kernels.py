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
from repro.core.search import GBDASearch
from repro.db import columnar
from repro.db.columnar import ColumnarBranchStore
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
    #: The whole interface: four reads and the write path.
    KERNELS = {
        "intersection_row", "gbd_lower_bound_row", "filter_verify_row", "filter_verify_topk",
        "merge_postings",
    }

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
        # What only the reference has is backend-independent: the builders of
        # the derived structures, called by name from the store or the wrappers,
        # and the k-best selection, which the execution core reduces its direct
        # (table-less) top-k with.
        callers = (
            self.source("..", "columnar.py")
            + self.source("native.py")
            + self.source("..", "..", "core", "plan.py")
        )
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
        engine = BatchQueryEngine.from_search(fitted, kernel_backend="numpy")
        assert engine.kernel_backend == "numpy"
        assert engine.active_kernel_backend == "numpy"
        auto_engine = BatchQueryEngine.from_search(fitted)
        assert auto_engine.kernel_backend == "auto"
        assert auto_engine.active_kernel_backend in available_backends()

    def test_snapshot_round_trips_configured_backend(self, fitted, tmp_path):
        engine = BatchQueryEngine.from_search(fitted, kernel_backend="numpy")
        path = save_engine(engine, tmp_path / "numpy.snap")
        assert load_engine(path).kernel_backend == "numpy"
        # "auto" is persisted un-resolved: a snapshot from a machine with a
        # C toolchain must not pin native on a machine without one.
        auto_engine = BatchQueryEngine.from_search(fitted)
        assert auto_engine.active_kernel_backend in available_backends()
        path = save_engine(auto_engine, tmp_path / "auto.snap")
        restored = load_engine(path)
        assert restored.kernel_backend == "auto"

    @needs_native
    def test_backends_answer_identically(self, fitted):
        from repro.db.query import SimilarityQuery

        numpy_engine = BatchQueryEngine.from_search(
            fitted, cache_size=None, kernel_backend="numpy"
        )
        native_engine = BatchQueryEngine.from_search(
            fitted, cache_size=None, kernel_backend="native"
        )
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
    """The write-path kernel: native and NumPy emit the same next snapshot."""

    ORDERS = np.asarray([3, 5, 3, 9, 5, 4, 12], dtype=np.int64)  # rows 0..6
    #: ten postings over four keys; rows 0..3, position-sorted within each key
    OLD = (
        np.asarray([0, 3, 4, 8, 10], dtype=np.int64),
        np.asarray([0, 2, 3, 1, 0, 1, 2, 3, 1, 3], dtype=np.int32),
        np.asarray([1, 2, 1, 3, 1, 1, 2, 1, 2, 4], dtype=np.int32),
        4,
    )
    EMPTY = (np.zeros(1, dtype=np.int64), np.empty(0, np.int32), np.empty(0, np.int32), 0)

    @staticmethod
    def pending(*postings):
        columns = np.asarray(postings, dtype=np.int64).reshape(-1, 3)
        return tuple(np.ascontiguousarray(columns[:, i]) for i in range(3))

    def check(self, csr, pending, num_keys, orders):
        """Both backends, with and without the carried block index; returns the merged CSR."""
        from repro.db.kernels import native

        merged = None
        for blocks in (None, numpy_impl.build_order_blocks(csr, orders[: csr[3]])):
            args = (csr, blocks, pending, num_keys, orders, np.int32, np.int32)
            mine = native.merge_postings(*args)
            theirs = numpy_impl.merge_postings(*args)
            merged = (*mine[0], len(orders))
            for a, b in zip(mine[0], theirs[0]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert (mine[1] is None) == (blocks is None)
            if blocks is not None:
                built = numpy_impl.build_order_blocks(merged, orders)
                for a, b, c in zip(mine[1], theirs[1], built):
                    assert np.array_equal(a, b) and np.array_equal(a, c)
        return merged

    def test_known_and_new_keys_with_a_larger_stride(self):
        # rows 4..6: old keys, a key new to the vocabulary (4), and an order
        # (12) above every old one, so the block codes are re-based
        pending = self.pending((1, 4, 2), (3, 4, 1), (0, 5, 1), (4, 5, 3), (1, 6, 1), (4, 6, 2))
        offsets, positions, counts, rows = self.check(self.OLD, pending, 5, self.ORDERS)
        assert offsets.tolist() == [0, 4, 7, 11, 14, 16] and rows == 7
        assert positions.tolist() == [0, 2, 3, 5, 1, 4, 6, 0, 1, 2, 3, 1, 3, 4, 5, 6]
        assert counts.tolist() == [1, 2, 1, 1, 3, 2, 1, 1, 1, 2, 1, 2, 4, 1, 3, 2]

    def test_empty_pending_still_covers_new_rows(self):
        # zero-branch rows only: nothing to merge, the stride may still grow
        merged = self.check(self.OLD, self.pending(), 4, self.ORDERS[:6])
        assert all(np.array_equal(a, b) for a, b in zip(merged[:3], self.OLD[:3]))

    def test_empty_store(self):
        pending = self.pending((0, 0, 2), (1, 0, 1), (0, 1, 1), (2, 2, 3))
        offsets, positions, _counts, _rows = self.check(self.EMPTY, pending, 3, self.ORDERS[:3])
        assert offsets.tolist() == [0, 2, 3, 4] and positions.tolist() == [0, 1, 0, 2]

    def test_all_new_keys(self):
        pending = self.pending((4, 4, 1), (5, 4, 2), (6, 5, 1), (4, 6, 1))
        offsets, positions, _counts, _rows = self.check(self.OLD, pending, 7, self.ORDERS)
        assert offsets.tolist() == [0, 3, 4, 8, 10, 12, 13, 14]
        assert positions[10:].tolist() == [4, 6, 4, 5]

    def test_wide_layout_delegates_to_the_reference(self):
        from repro.db.kernels import native

        pending = self.pending((1, 4, 2), (4, 4, 1))
        arrays, _blocks = native.merge_postings(
            self.OLD, None, pending, 5, self.ORDERS[:5], np.int64, np.int32
        )
        assert arrays[1].dtype == np.int64 and arrays[2].dtype == np.int32
        assert arrays[1].tolist() == [0, 2, 3, 1, 4, 0, 1, 2, 3, 1, 3, 4]


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


def _reducer_stores(multisets, ids, position_limit):
    """The same rows under every backend (``position_limit`` 5: the wide layout)."""
    entries = [
        SimpleNamespace(graph_id=graph_id, num_vertices=sum(branches.values()), branches=branches)
        for graph_id, branches in zip(ids, multisets)
    ]
    saved = columnar._POSITION_DTYPE_LIMIT
    columnar._POSITION_DTYPE_LIMIT = position_limit
    try:
        stores = {}
        for backend in available_backends():
            stores[backend] = ColumnarBranchStore(entries, backend=backend)
            stores[backend].compact()
    finally:
        columnar._POSITION_DTYPE_LIMIT = saved
    return entries, stores


def _sparse_budget(store, query):
    """``sparse_row_budget`` (as patched, if it is) of one query over a store's snapshot."""
    csr = store.view()[0]
    return columnar.sparse_row_budget(
        columnar._segment_total(csr[0], store._match(query, csr)[0]), csr[3]
    )


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
    """A posterior table whose rows are not monotone in ϕ (nor anything else).

    ``constant``: that value everywhere — every row a hit or none, every score a tie.
    """
    shape = (largest + 1, largest + 2)
    if constant is not None:
        return np.full(shape, constant)
    return TABLE_VALUES[np.random.default_rng(seed).integers(0, len(TABLE_VALUES), size=shape)]


def _bound_table(lut, largest):
    """Suffix maxima of ``lut`` over the cells a GBD can take, in a table of its own shape."""
    bound = np.zeros((largest + 1, largest + 2))
    for order in range(min(largest + 1, lut.shape[0])):
        cells = lut[order, : min(order, lut.shape[1] - 1) + 1]
        bound[order, : len(cells)] = np.maximum.accumulate(cells[::-1])[::-1]
    return bound


def _ranked_pairs(pairs):
    return sorted(pairs, key=lambda pair: (-pair[1], pair[0]))


def _scalar_top_k(
    entries, scalar, num_query_vertices, matched_total, lut, bound_lut, max_gbd, k, budget
):
    """``(ranking, verified, sparse)`` of the group walk, one Python step at a time.

    The ranking is checked against the plain definition first — the first ``k``
    of every row within the cap under ``(-score, id)`` — so the walk is held to
    it, not the other way round.
    """
    scored = {
        position: (entry.graph_id, float(lut[scalar[position]]))
        for position, entry in enumerate(entries)
        if max_gbd is None or scalar[position][1] <= max_gbd
    }
    groups = {}
    for position, entry in enumerate(entries):
        groups.setdefault(entry.num_vertices, []).append(position)
    bounds = {}
    for order in groups:
        extended = max(num_query_vertices, order)
        lower = extended - min(matched_total, order)
        bound = float(bound_lut[extended, lower])
        if bound > 0.0 if max_gbd is None else lower <= max_gbd:
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
    if max_gbd is None and (len(kept) < k or kept[-1][1] <= 0.0):
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
        bar=st.integers(-1, 16),
        table=st.tuples(st.integers(0, 10_000), st.sampled_from([None, None, 0.5])),
        gamma=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 0.6, 2.0]),
        max_gbd=st.sampled_from([None, 0, 2, 4]),
        plan=st.sampled_from(["sparse", "dense", "by cost"]),
        position_limit=st.sampled_from([5, INT32_MAX]),
    )
    def test_threshold_reducer_equals_the_scalar_loop(
        self, multisets, query, bar, table, gamma, max_gbd, plan, position_limit
    ):
        entries, stores = _reducer_stores(multisets, range(100, 100 + len(multisets)), position_limit)
        num_query_vertices = sum(query.values())
        scalar = _scalar_rows(entries, query)
        distinct = sorted({entry.num_vertices for entry in entries})
        largest = max([num_query_vertices, *distinct])
        lut = _random_table(*table, largest)
        # Bars that differ by order, like the γ-threshold inversion's.
        bars = np.asarray([bar - (order % 3) for order in distinct], dtype=np.int64)

        matched_total = stores["numpy"].matched_query_total(query)
        eligible = [
            max(num_query_vertices, order) - min(matched_total, order) <= threshold
            for order, threshold in zip(distinct, bars.tolist())
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
            hits = [
                (position, scalar[position][1])
                for position in verified
                if (max_gbd is None or scalar[position][1] <= max_gbd)
                and lut[scalar[position]] >= gamma
            ]
            for backend, store in stores.items():
                assert (store.view()[0][1].dtype == np.int64) == (len(entries) > position_limit)
                positions, gbds, mask, count, taken = store.filter_verify_row(
                    num_query_vertices, query, bars, lut, gamma, max_gbd
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
        padding=st.sampled_from([(0, 0), (1, 0), (0, 1)]),
        max_gbd=st.sampled_from([None, 0, 2, 4]),
        plan=st.sampled_from(["sparse", "dense", "half", "by cost"]),
        position_limit=st.sampled_from([5, INT32_MAX]),
    )
    def test_k_best_reducer_equals_the_scalar_ranking(
        self, multisets, query, id_order, data, table, padding, max_gbd, plan, position_limit
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
        # The two tables grow independently in the core: each has its own shape.
        lut = _random_table(*table, largest + padding[0])
        bound_lut = _bound_table(lut, largest + padding[1])
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
                lut, bound_lut, max_gbd, k, _sparse_budget(stores["numpy"], query),
            )
            for backend, store in stores.items():
                assert (store.view()[0][1].dtype == np.int64) == (len(entries) > position_limit)
                got_ids, got_scores, verified, sparse = store.filter_verify_topk(
                    num_query_vertices, query, lut, bound_lut, max_gbd, k
                )
                assert got_ids.dtype == np.int64 and got_scores.dtype == np.float64, backend
                # The k best, in no particular order: the caller ranks once, at the end.
                got = _ranked_pairs(zip(got_ids.tolist(), got_scores.tolist()))
                assert (got, verified, sparse) == expected, backend
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
        store = ColumnarBranchStore(entries, backend=backend)
        query = Counter({a: 2})  # |V_Q| = 2: extended orders 2, 3, 4, lower bounds 0, 1, 2
        decreasing = np.zeros((5, 6))
        for order in range(5):
            decreasing[order, : order + 1] = 1.0 / (1 + np.arange(order + 1))
        flat = np.full((5, 6), 0.5)
        sawtooth = np.tile([0.25, 0.75, 0.0, 0.5, 0.25, 0.75], (5, 1))  # not monotone in ϕ

        def top(lut, max_gbd, k, budget, bound_lut=None):
            monkeypatch.setattr(columnar, "sparse_row_budget", lambda postings, rows: budget)
            bound_lut = _bound_table(lut, 4) if bound_lut is None else bound_lut
            got = store.filter_verify_topk(2, query, lut, bound_lut, max_gbd, k)
            scalar = _scalar_rows(entries, query)
            expected = _scalar_top_k(
                entries, scalar, 2, store.matched_query_total(query), lut, bound_lut, max_gbd,
                k, budget,
            )
            ranking = _ranked_pairs(zip(got[0].tolist(), got[1].tolist()))
            assert (ranking, *got[2:]) == expected
            return ranking, got[2], got[3]

        # k = 1: the exact match ends the scan inside the query's own size group.
        assert top(decreasing, None, 1, 6) == ([(90, 1.0)], 3, True)
        # k > rows: everything is ranked, groups by bound, ids inside a tie.
        ranking, verified, sparse = top(decreasing, None, 9, 6)
        assert [graph_id for graph_id, _ in ranking] == [90, 60, 80, 40, 50, 70]
        assert (verified, sparse) == (6, True)
        # One score everywhere: equal bounds across all three groups, so the id
        # alone decides and no group may be left out — the smallest ids sit in
        # the *last* rows of the groups visited last.
        assert top(flat, None, 2, 6) == ([(40, 0.5), (50, 0.5)], 6, True)
        # ... and under a k-th score above the shared bound, none is visited twice
        # nor half: the cap 0 keeps the exact match only, every group in reach.
        assert top(flat, 0, 2, 6) == ([(90, 0.5)], 3, True)
        # The budget holds the first group (3 rows), not the second: a dense walk
        # after a walked group, over a row that is not monotone in ϕ.
        ranking, verified, sparse = top(sawtooth, None, 4, 4)
        assert (verified, sparse) == (6, False) and ranking[0] == (60, 0.75)
        # Every bound zero: nothing is verified, the smallest ids fill the
        # ranking at 0.0 — by id, though positions ascend the other way.
        nothing = np.zeros((5, 6))
        assert top(nothing, None, 3, 6) == ([(40, 0.0), (50, 0.0), (60, 0.0)], 0, None)
        # ... but under the cap membership needs the exact GBD: groups are visited.
        assert top(nothing, 1, 3, 6) == ([(60, 0.0), (80, 0.0), (90, 0.0)], 5, True)
        # A query that matches no key: bounds from the sizes alone.
        query = Counter({("unknown", 0): 2})
        assert top(decreasing, None, 2, 6) == ([(40, 1 / 3), (60, 1 / 3)], 3, True)
        # The pair of shapes the core really produced: 11 x 12 beside 10 x 11.
        query = Counter({a: 2})
        wide = np.zeros((11, 12))
        wide[:5, :6] = decreasing
        assert top(wide, None, 1, 6, _bound_table(decreasing, 9)) == ([(90, 1.0)], 3, True)

    def test_a_table_that_does_not_reach_the_largest_order_is_refused(self):
        entries, stores = _reducer_stores([Counter({("k", 0): 3}), Counter({("k", 1): 6})], [7, 8], 5)
        query = Counter({("k", 0): 2})
        bars = np.asarray([9, 9], dtype=np.int64)
        full = np.ones((7, 8))
        for store in stores.values():
            for shape in ((6, 8), (7, 7)):  # a row short, a column short
                with pytest.raises(ValueError, match="does not cover extended order 6"):
                    store.filter_verify_row(2, query, bars, np.ones(shape), 0.5)
                # each of top-k's two tables is checked against its own shape
                for tables in ((np.ones(shape), full), (full, np.ones(shape))):
                    with pytest.raises(ValueError, match="does not cover extended order 6"):
                        store.filter_verify_topk(2, query, *tables, None, 1)
            with pytest.raises(ValueError, match="positive"):
                store.filter_verify_topk(2, query, full, full, None, 0)


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
        database = reducer_search.database
        estimator = _SawtoothPosterior()
        for plan, budget in (("sparse", lambda postings, rows: rows), ("dense", lambda *_: 0)):
            monkeypatch.setattr(columnar, "sparse_row_budget", budget)
            core = ExecutionCore(database, estimator, max_tau=3, kernel_backend=backend)
            core.warm(range(4), range(1, 11))  # the tables side of the tables-vs-direct choice
            for query in _reducer_queries(12, seed=43):
                graph, tau_hat = query.query_graph, query.tau_hat
                expected = {}
                for entry in database:
                    gbd = database.gbd_to(graph, entry.graph_id)
                    order = max(graph.num_vertices, entry.num_vertices)
                    score = estimator.posterior(gbd, tau_hat, order)
                    if score >= 0.5 and (not use_pruning or gbd <= 2 * tau_hat):
                        expected[entry.graph_id] = score
                scored = core.execute_pruned(
                    SimilarityQuery(graph, tau_hat, 0.5), use_pruning=use_pruning
                )
                assert scored.scores_dict("accepted") == expected, (plan, tau_hat)
                assert scored.graph_ids.tolist() == sorted(expected)
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
        core = ExecutionCore(search.database, search.estimator, max_tau=2, kernel_backend=backend)
        core.warm(range(3), range(1, 9))
        counters = columnar._counters(backend)
        rng = random.Random(73)
        plans = Counter()
        for _ in range(12):
            labels = [rng.choice("AABC") for _ in range(rng.randint(3, 7))]
            query = SimilarityQuery(_path(labels), rng.randint(0, 2), 0.5)
            reference = search.query_topk_reference(query, len(search.database) + 1)
            for k in (1, 3, 250, len(search.database) + 5):
                before = dataclasses.replace(core.filter_counters)
                calls, cells = (child.value for child in counters.row)
                ranking = core.execute_topk(query, k, use_pruning=use_pruning)
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
        # probes only; probes, then the dense walk for the groups still in reach
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
        engine = BatchQueryEngine.from_search(
            reducer_search, cache_size=None, kernel_backend="native"
        )
        engine.warm(range(4))
        core = engine._core
        for query in _reducer_queries(10, seed=59):
            _answer, calls = self.calls_during(lambda: engine.query(query))
            assert calls == {"filter_verify_row": 1}  # no dense ``row`` call beside it
            scored = core.execute_pruned(query)
            assert scored.gbds is scored.accepted is scored.eligible is scored.posteriors is None
            assert len(scored.graph_ids) == len(scored.positions) == len(scored.accepted_items[0])
            with pytest.raises(ValueError, match="not materialised"):
                scored.scores_dict("candidates")
            with pytest.raises(ValueError, match="not materialised"):
                scored.candidate_positions()
            full = core.execute(query)
            assert scored.scores_dict("accepted") == full.scores_dict("accepted")
            assert scored.positions.tolist() == np.flatnonzero(full.accepted).tolist()

    def test_filter_counters_of_a_mixed_stream(self, reducer_search, monkeypatch):
        """Per query: what the bound arithmetic says was pruned, verified, and how."""
        core = ExecutionCore(
            reducer_search.database, reducer_search.estimator, max_tau=3, kernel_backend="native"
        )
        core.warm(range(4), range(1, 11))
        store = core.ensure_index().store
        csr, orders, _ids = store.view()
        num_rows = len(orders)
        distinct = store.order_partition(csr)[0]
        # Half the store: queries land on both sides of the budget.
        monkeypatch.setattr(columnar, "sparse_row_budget", lambda postings, rows: rows // 2)
        plans = set()
        for query in _reducer_queries(40, seed=61):
            branches, num_vertices = query.branches(), query.query_graph.num_vertices
            thresholds, _lut = core._pruned_thresholds(
                query, np.maximum(num_vertices, distinct), False
            )
            bounds = store.gbd_lower_bound_row(num_vertices, branches)
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
        engine = BatchQueryEngine.from_search(
            reducer_search, cache_size=None, kernel_backend="native"
        )
        engine.warm(range(4))
        handed_back = []
        reducer = ColumnarBranchStore.filter_verify_topk

        def spy(store, *args, **kwargs):
            result = reducer(store, *args, **kwargs)
            handed_back.append((len(result[0]), len(result[1])))
            return result

        monkeypatch.setattr(ColumnarBranchStore, "filter_verify_topk", spy)
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
        search = GBDASearch(
            GraphDatabase(graphs, name="kernels-selective"), max_tau=1, num_prior_pairs=120, seed=5
        ).fit()
        engine = BatchQueryEngine.from_search(search, cache_size=None, kernel_backend="native")
        engine.warm(range(2))
        core, store = engine._core, engine._core.ensure_index().store
        distinct, _row_order, starts, ends = store.order_partition(store.view()[0])
        built = []
        concatenate = np.concatenate

        def spied_top_k(query, k):
            """The query with every ``np.concatenate`` and ``_orders_row`` call recorded."""
            with monkeypatch.context() as patched:
                patched.setattr(
                    np, "concatenate", lambda arrays, *a, **kw: built.append("concatenate")
                    or concatenate(arrays, *a, **kw),
                )
                patched.setattr(
                    ExecutionCore, "_orders_row", lambda *args: built.append("_orders_row")
                )
                return self.calls_during(lambda: engine.query_topk(query, k))

        for index in (3, 40, 77, 110):
            query = SimilarityQuery(graphs[index].copy(), 0, 0.95)  # a planted exact match
            extended = np.maximum(query.query_graph.num_vertices, distinct)
            lower = extended - np.minimum(store.matched_query_total(query.branches()), distinct)
            bounds = core._bound_lut_for(0, extended.tolist())[extended, lower]
            assert 0 < (bounds > 0.0).sum() < len(distinct) // 4
            for k in (1, 10):
                reference = search.query_topk_reference(query, k)
                before = core.filter_counters.candidates_verified
                answer, calls = spied_top_k(query, k)
                assert answer.ranking == reference and calls == {"row": 1}
                # exactly the groups whose bound reaches the k-th score — ties included
                in_reach = (bounds > 0.0) & (bounds >= reference[-1][1])
                assert core.filter_counters.candidates_verified - before == int(
                    (ends - starts)[in_reach].sum()
                )
        assert built == []
