"""Compiled (C, via ctypes) kernel backend for the columnar store.

The bundled ``_kernels.c`` is compiled on demand with the system C compiler
(``cc``/``gcc``/``clang`` — no third-party build dependency) into a per-user
cache directory keyed by the source hash, then loaded through :mod:`ctypes`.
Every wrapper returns bit-identical results to its
:mod:`repro.db.kernels.numpy_impl` twin; inputs whose CSR arrays are not in
the compact int32 layout (a store that outgrew int32) are transparently
delegated to the numpy backend rather than widening the C surface.

The compiled calls release the GIL for their whole duration (plain ctypes
foreign calls), so thread-mode serving executors scale better on this
backend than on the numpy one.

Pointer arguments are declared ``void *`` and passed as plain addresses:
extracting ``array.ctypes.data_as(...)`` costs ~2µs per array in ctypes
machinery, which at a dozen arrays per fused call would rival the kernel
itself.  Addresses of snapshot-stable arrays (the CSR triple, the block and
partition indexes, the row vectors, the execution core's threshold vectors
and posterior tables) are therefore identity-cached via :func:`_pinned` — the
cache holds a strong reference to each keyed array, so a cached address can
never dangle or alias a recycled ``id``.

The two reducers accumulate intersections inside the C call, in a buffer of
four bytes a row that lives for that call alone — nothing is shared between
threads, nothing persists on a store — and write hits into caller-allocated
outputs sized for the worst case, of which only the slots of actual hits are
ever touched.

Build products land in ``$REPRO_KERNEL_CACHE`` when set, else
``$TMPDIR/repro-kernels-<uid>`` (:func:`library_path` names the file); a
failed build is recorded once and surfaces through :func:`available` /
:func:`load_error`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.db.kernels import numpy_impl

name = "native"

_SOURCE_PATH = Path(__file__).with_name("_kernels.c")
_ABI_VERSION = 3

#: argtypes of every exported kernel (i=int64 scalar, d=double, p=array address)
_SIGNATURES = {
    "repro_kernels_abi_version": "",
    "repro_intersection_row": "pppppip",
    "repro_gbd_lower_bound_row": "iipip",
    "repro_filter_verify_row": "iipppippippiipppppipipidipppp",
    "repro_filter_verify_topk": "iipppipippipppppipipipiiippp",
    "repro_merge_postings": "pppipppiipppppppiipppp",
}
_ARG_KINDS = {"i": ctypes.c_int64, "d": ctypes.c_double, "p": ctypes.c_void_p}
#: ``max_gbd`` of a reducer called without the branch-bound cap: no GBD exceeds it.
_NO_CAP = int(np.iinfo(np.int64).max)

_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_load_error: Optional[str] = None
_attempted = False


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return Path(env)
    uid = os.getuid() if hasattr(os, "getuid") else "any"
    return Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"


def _find_compiler() -> Optional[str]:
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


def library_path() -> Path:
    """Where the compiled library of the bundled source is cached.

    The loader builds there unless the file exists and loads whatever it
    finds: placing a differently built library of the same source at this
    path (the sanitised CI leg does, inside a private ``REPRO_KERNEL_CACHE``)
    makes it the native backend of every process that shares the cache.
    """
    tag = hashlib.sha256(
        _SOURCE_PATH.read_bytes()
        + f"|{platform.system()}|{platform.machine()}|{_ABI_VERSION}".encode()
    ).hexdigest()[:16]
    return _cache_dir() / f"repro_kernels_{tag}.so"


def _build_and_load() -> ctypes.CDLL:
    path = library_path()
    if not path.exists():
        compiler = _find_compiler()
        if compiler is None:
            raise RuntimeError("no C compiler found (tried cc, gcc, clang)")
        path.parent.mkdir(parents=True, exist_ok=True)
        scratch = path.with_suffix(f".build-{os.getpid()}.so")
        command = [
            compiler,
            "-O3",
            "-std=c99",
            "-fPIC",
            "-shared",
            str(_SOURCE_PATH),
            "-o",
            str(scratch),
        ]
        result = subprocess.run(command, capture_output=True, text=True, timeout=300)
        if result.returncode != 0:
            raise RuntimeError(
                f"kernel build failed ({' '.join(command)}): {result.stderr.strip()}"
            )
        os.replace(scratch, path)  # atomic publish against racing builders
    library = ctypes.CDLL(str(path))
    for symbol, signature in _SIGNATURES.items():
        function = getattr(library, symbol)
        function.argtypes = [_ARG_KINDS[kind] for kind in signature]
        function.restype = ctypes.c_int64
    if library.repro_kernels_abi_version() != _ABI_VERSION:
        raise RuntimeError("stale kernel library: ABI version mismatch")
    return library


def _library() -> ctypes.CDLL:
    """Build/load the shared library once; raise with the recorded error after."""
    global _lib, _load_error, _attempted
    if _lib is not None:
        return _lib
    with _lock:
        if _lib is not None:
            return _lib
        if _attempted:
            raise RuntimeError(f"native kernels unavailable: {_load_error}")
        _attempted = True
        try:
            _lib = _build_and_load()
        except Exception as exc:  # noqa: BLE001 - recorded and surfaced to callers
            _load_error = str(exc)
            raise RuntimeError(f"native kernels unavailable: {exc}") from exc
    return _lib


def available() -> bool:
    """Whether the compiled library can be (or already was) built and loaded."""
    try:
        _library()
    except Exception:  # noqa: BLE001
        return False
    return True


def load_error() -> Optional[str]:
    """The recorded build/load failure, if the library is unavailable."""
    return _load_error


#: id(array) -> (keyed array, contiguous twin, address).  Entries strongly
#: reference the keyed array, so its id cannot be recycled while cached and
#: the address cannot dangle.  Snapshot arrays change only on compaction,
#: where :func:`merge_postings` drops the superseded P-sized ones; the
#: occasional wholesale clear just re-primes a handful of entries.
_PTR_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray, int]] = {}


def _pinned(array: np.ndarray, dtype) -> int:
    """Cached address of a snapshot-stable array (contiguous, ``dtype``)."""
    key = id(array)
    entry = _PTR_CACHE.get(key)
    if entry is None or entry[0] is not array:
        if len(_PTR_CACHE) > 512:
            _PTR_CACHE.clear()
        contiguous = np.ascontiguousarray(array, dtype=dtype)
        entry = (array, contiguous, contiguous.ctypes.data)
        _PTR_CACHE[key] = entry
    return entry[2]


def _c64(array: np.ndarray) -> np.ndarray:
    # No-op for the common case (already contiguous int64); copies strided
    # or mistyped caller arrays instead of reading garbage.  The caller must
    # hold the returned array until after the foreign call — addresses are
    # extracted with ``.ctypes.data``, which does not pin the array.
    return np.ascontiguousarray(array, dtype=np.int64)


def _address(array: Optional[np.ndarray]) -> Optional[int]:
    """Address of a call-scoped array the caller keeps referenced (NULL for ``None``).

    ``array.ctypes`` builds a helper object on every access (~1.9µs, and a
    read wrapper takes three to five addresses per query); the buffer
    protocol hands out the same address in a third of that.  It refuses
    empty and read-only arrays, which take the general route.
    """
    if array is None:
        return None
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError):
        return array.ctypes.data


def _compact_csr(csr) -> Optional[Tuple[int, int, int]]:
    """Pinned (offsets, positions, counts) addresses iff in the int32 layout."""
    offsets, positions, counts, _rows = csr
    if positions.dtype != np.int32 or counts.dtype != np.int32:
        return None  # store outgrew int32 — numpy backend handles the wide layout
    return (
        _pinned(offsets, np.int64),
        _pinned(positions, np.int32),
        _pinned(counts, np.int32),
    )


def intersection_row(csr, key_ids, query_counts, num_graphs):
    compact = _compact_csr(csr)
    if compact is None:
        return numpy_impl.intersection_row(csr, key_ids, query_counts, num_graphs)
    keys = _c64(key_ids)
    counts_q = _c64(query_counts)
    out = np.zeros(num_graphs, dtype=np.int64)
    _library().repro_intersection_row(
        *compact, _address(keys), _address(counts_q), len(keys), _address(out),
    )
    return out


def gbd_lower_bound_row(num_query_vertices, matched_total, orders):
    out = np.empty(len(orders), dtype=np.int64)
    _library().repro_gbd_lower_bound_row(
        int(num_query_vertices), int(matched_total),
        _pinned(orders, np.int64), len(orders), _address(out),
    )
    return out


def filter_verify_row(
    csr,
    blocks,
    partition,
    orders,
    num_query_vertices,
    matched_total,
    key_ids,
    query_counts,
    thresholds,
    max_candidates,
    lut,
    gamma,
    max_gbd,
):
    compact = _compact_csr(csr)
    if compact is None:
        return numpy_impl.filter_verify_row(
            csr, blocks, partition, orders, num_query_vertices, matched_total,
            key_ids, query_counts, thresholds, max_candidates, lut, gamma, max_gbd,
        )
    codes_sorted, permutation, stride = blocks
    distinct, row_order, starts, ends = partition
    num_rows = len(orders)
    keys = _c64(key_ids)
    counts_q = _c64(query_counts)
    # The execution core reuses one thresholds array per repeated query
    # shape, so its address is worth caching alongside the snapshot arrays.
    bars_ptr = _pinned(thresholds, np.int64)
    eligible_flags = np.empty(len(distinct), dtype=np.uint8)
    # Room for every row to be a hit; only the slots of actual hits are
    # ever written, so the rest of the pages are never touched.
    out_positions = np.empty(num_rows, dtype=np.int64)
    out_gbds = np.empty(num_rows, dtype=np.int64)
    num_hits = np.zeros(1, dtype=np.int64)
    num_eligible = int(
        _library().repro_filter_verify_row(
            int(num_query_vertices), int(matched_total),
            _pinned(distinct, np.int64), _pinned(starts, np.int64),
            _pinned(ends, np.int64), len(distinct),
            _pinned(row_order, np.int64), bars_ptr, max(int(max_candidates), 0),
            _pinned(codes_sorted, np.int64), _pinned(permutation, np.int64),
            len(codes_sorted), stride,
            *compact,
            _address(keys), _address(counts_q), len(keys),
            _pinned(orders, np.int64), num_rows,
            _pinned(lut, np.float64), lut.shape[1], float(gamma),
            _NO_CAP if max_gbd is None else int(max_gbd),
            _address(out_positions), _address(out_gbds),
            _address(eligible_flags), _address(num_hits),
        )
    )
    if num_eligible < 0:  # allocation failure inside the kernel
        return numpy_impl.filter_verify_row(
            csr, blocks, partition, orders, num_query_vertices, matched_total,
            key_ids, query_counts, thresholds, max_candidates, lut, gamma, max_gbd,
        )
    hits = int(num_hits[0])
    # Copies, not views: a few hits must not keep two D-sized buffers alive.
    return (
        out_positions[:hits].copy(), out_gbds[:hits].copy(),
        eligible_flags.view(np.bool_), num_eligible,
    )


def filter_verify_topk(
    csr,
    blocks,
    partition,
    global_ids,
    num_query_vertices,
    matched_total,
    key_ids,
    query_counts,
    max_candidates,
    lut,
    bound_lut,
    max_gbd,
    k,
):
    compact = _compact_csr(csr)
    capacity = min(int(k), len(global_ids))
    if compact is not None and capacity >= 1:
        codes_sorted, permutation, stride = blocks
        distinct, row_order, starts, ends = partition
        keys = _c64(key_ids)
        counts_q = _c64(query_counts)
        out_ids = np.empty(capacity, dtype=np.int64)
        out_scores = np.empty(capacity, dtype=np.float64)
        plan = np.zeros(2, dtype=np.int64)
        kept = int(
            _library().repro_filter_verify_topk(
                int(num_query_vertices), int(matched_total),
                _pinned(distinct, np.int64), _pinned(starts, np.int64),
                _pinned(ends, np.int64), len(distinct),
                _pinned(row_order, np.int64), max(int(max_candidates), 0),
                _pinned(codes_sorted, np.int64), _pinned(permutation, np.int64), stride,
                *compact,
                _address(keys), _address(counts_q), len(keys),
                _pinned(global_ids, np.int64), len(global_ids),
                _pinned(lut, np.float64), lut.shape[1],
                _pinned(bound_lut, np.float64), bound_lut.shape[1],
                _NO_CAP if max_gbd is None else int(max_gbd), capacity,
                _address(out_ids), _address(out_scores), _address(plan),
            )
        )
        if kept >= 0:
            return out_ids[:kept], out_scores[:kept], int(plan[0]), bool(plan[1])
    # A store that outgrew int32, no row to rank, or an allocation failure
    # inside the kernel: the dtype-agnostic reference handles it.
    return numpy_impl.filter_verify_topk(
        csr, blocks, partition, global_ids, num_query_vertices, matched_total,
        key_ids, query_counts, max_candidates, lut, bound_lut, max_gbd, k,
    )


def merge_postings(csr, blocks, pending, num_keys, orders, position_dtype, count_dtype):
    old_offsets, old_positions, old_counts, _old_rows = csr
    # The snapshot these arrays belong to is being superseded: stop pinning
    # them, or every compaction's P-sized arrays stay alive (and the next
    # ones land on fresh pages) until the address cache's wholesale clear.
    # A reader still on that snapshot holds the arrays itself and re-pins.
    for array in csr[:3] + (blocks[:2] if blocks is not None else ()):
        _PTR_CACHE.pop(id(array), None)
    if not (
        old_positions.dtype == old_counts.dtype == position_dtype == count_dtype == np.int32
    ):
        # Wide layout on either side of the merge (the promotion itself
        # included): the dtype-agnostic reference handles it.
        return numpy_impl.merge_postings(
            csr, blocks, pending, num_keys, orders, position_dtype, count_dtype
        )
    pending_keys, pending_positions, pending_counts = (_c64(part) for part in pending)
    orders = _c64(orders)
    old_offsets = _c64(old_offsets)
    old_positions = np.ascontiguousarray(old_positions)
    old_counts = np.ascontiguousarray(old_counts)
    num_pending = len(pending_keys)
    total = len(old_positions) + num_pending
    offsets = np.empty(num_keys + 1, dtype=np.int64)
    positions = np.empty(total, dtype=np.int32)
    counts = np.empty(total, dtype=np.int32)
    cursor = np.empty(num_keys, dtype=np.int64)
    pending_slots = np.empty(num_pending, dtype=np.int64)
    if blocks is None:
        old_codes = old_permutation = pending_codes = by_code = codes = permutation = None
        old_stride = stride = 0
    else:
        old_codes, old_permutation, old_stride = blocks
        old_codes = _c64(old_codes)
        old_permutation = _c64(old_permutation)
        stride = numpy_impl.block_stride(orders)
        # The only sort of a compaction, over the pending postings alone;
        # stable over arrival, so equal codes keep their slot order.
        pending_codes = pending_keys * stride + orders[pending_positions]
        by_code = np.argsort(pending_codes, kind="stable")
        codes = np.empty(total, dtype=np.int64)
        permutation = np.empty(total, dtype=np.int64)

    _library().repro_merge_postings(
        old_offsets.ctypes.data, old_positions.ctypes.data, old_counts.ctypes.data,
        len(old_offsets) - 1,
        pending_keys.ctypes.data, pending_positions.ctypes.data,
        pending_counts.ctypes.data, num_pending, num_keys,
        offsets.ctypes.data, positions.ctypes.data, counts.ctypes.data,
        cursor.ctypes.data, pending_slots.ctypes.data,
        _address(old_codes), _address(old_permutation), int(old_stride), stride,
        _address(pending_codes), _address(by_code), _address(codes), _address(permutation),
    )
    new_blocks = None if blocks is None else (codes, permutation, stride)
    return (offsets, positions, counts), new_blocks
