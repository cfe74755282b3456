"""Tests for the kernel backend registry (repro.db.kernels).

The columnar store, execution core, serving engine, and snapshots all hold a
*configured* backend name and resolve it through this registry — these tests
pin the resolution semantics (auto preference, environment override, hard
errors for an explicitly requested but unbuildable native backend).
"""

from __future__ import annotations

import inspect
import random
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core.search import GBDASearch
from repro.db.columnar import ColumnarBranchStore
from repro.db.database import GraphDatabase
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

    LOADER_API = {"available", "load_error"}  # native's own, not kernels

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
        assert set(kernels) <= set(reference)
        for name, wrapper in kernels.items():
            assert len(inspect.signature(wrapper).parameters) == len(
                inspect.signature(reference[name]).parameters
            ), name
        # What only the reference has is backend-independent: the builders of
        # the derived structures, called by name from the store or the wrappers.
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
        assert declared == set(called)


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
        """Both backends, with and without each carried structure; returns the merged CSR."""
        from repro.db.kernels import native

        merged = None
        for blocks in (None, numpy_impl.build_order_blocks(csr, orders[: csr[3]])):
            for with_probe_codes in (False, True):
                args = (csr, blocks, with_probe_codes, pending, num_keys, orders,
                        np.int32, np.int32)
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
                assert (mine[2] is None) == (not with_probe_codes)
                if with_probe_codes:
                    assert np.array_equal(mine[2], theirs[2])
                    assert np.array_equal(mine[2], numpy_impl.build_probe_codes(merged))
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
        arrays, _blocks, _codes = native.merge_postings(
            self.OLD, None, False, pending, 5, self.ORDERS[:5], np.int64, np.int32
        )
        assert arrays[1].dtype == np.int64 and arrays[2].dtype == np.int32
        assert arrays[1].tolist() == [0, 2, 3, 1, 4, 0, 1, 2, 3, 1, 3, 4]
