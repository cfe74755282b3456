"""Compiled (C, via ctypes) kernel backend for the columnar store.

The bundled ``_kernels.c`` is compiled on demand with the system C compiler
(``cc``/``gcc``/``clang`` — no third-party build dependency) into a per-user
cache directory keyed by the source hash, then loaded through :mod:`ctypes`.
Every wrapper returns bit-identical results to its
:mod:`repro.db.kernels.numpy_impl` twin; inputs whose CSR arrays are not in
the compact int32 layout (a store that outgrew int32) are transparently
delegated to the numpy backend rather than widening the C surface.

The compiled calls release the GIL for their whole duration (plain ctypes
foreign calls), so threads sharing one engine — the service's scoring
thread, callers' own — overlap better on this backend than on the numpy one.

Pointer arguments are declared ``void *`` and passed as plain addresses:
extracting ``array.ctypes.data_as(...)`` costs ~2µs per array in ctypes
machinery, which at a dozen arrays per fused call would rival the kernel
itself.  Addresses of snapshot-stable arrays (the CSR triple, the order
ranges, the row vectors, and the three arrays of each τ̂'s posterior table)
are therefore identity-cached via :func:`_pinned` — an entry lives exactly
as long as its array, so a cached address can never dangle or alias a
recycled ``id``, and superseded snapshots and tables leave the cache.

Both reducers run inside one C call, ``repro_filter_verify_rows``, for a
whole batch of queries: a query's row names its reducer — the γ threshold or
the k best — and the queries' scalars travel as one int64 row table and one
γ vector; a table that lacks a row its query reads refuses the batch
before any query is reduced (``ValueError``).  Intersections accumulate in
buffers of four bytes a row that live for one query alone — nothing is
shared between threads, nothing persists on a store — and hits are appended
to one caller-allocated buffer with room for the batch's hits up to two
queries that hit every row (a k-best query has at most ``k``), their GBDs
beside them and the k-best rows' scores in a buffer of their own; only the
slots of actual hits are ever touched.  The call
returns how many queries it finished, and :func:`filter_verify_rows` calls
again from there when the buffer filled first.

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
import weakref
from array import array
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.db.kernels import numpy_impl

name = "native"

_SOURCE_PATH = Path(__file__).with_name("_kernels.c")
_ABI_VERSION = 8

#: argtypes of every exported kernel (i=int64 scalar, d=double, p=array address)
_SIGNATURES = {
    "repro_kernels_abi_version": "",
    "repro_intersection_row": "pppppip",
    "repro_gbd_lower_bound_row": "iipip",
    "repro_filter_verify_rows": "ppippppppppiiipppp",
    "repro_merge_postings": "pppippppiipppppp",
}
_ARG_KINDS = {"i": ctypes.c_int64, "d": ctypes.c_double, "p": ctypes.c_void_p}

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


#: id(array) -> (weak reference to the keyed array, contiguous twin or
#: ``None`` when that is the array itself, address).  The reference's callback
#: drops the entry when the array is collected — before its id can be reused —
#: so the cache never keeps an array alive: a write stream's superseded
#: snapshots leave it with their arrays.
_PTR_CACHE: Dict[int, Tuple[weakref.ref, Optional[np.ndarray], int]] = {}


def _pinned(array: np.ndarray, dtype) -> int:
    """Cached address of a snapshot-stable array (contiguous, ``dtype``)."""
    key = id(array)
    entry = _PTR_CACHE.get(key)
    if entry is None or entry[0]() is not array:
        contiguous = np.ascontiguousarray(array, dtype=dtype)
        entry = (
            weakref.ref(array, lambda _dead, key=key, drop=_PTR_CACHE.pop: drop(key, None)),
            None if contiguous is array else contiguous,
            contiguous.ctypes.data,
        )
        _PTR_CACHE[key] = entry
    return entry[2]


def _c64(array: np.ndarray) -> np.ndarray:
    # No-op for the common case (already contiguous int64); copies strided
    # or mistyped caller arrays instead of reading garbage.  The caller must
    # hold the returned array until after the foreign call — addresses are
    # extracted with ``.ctypes.data``, which does not pin the array.
    return np.ascontiguousarray(array, dtype=np.int64)


def _address(array: np.ndarray) -> int:
    """Address of a call-scoped array the caller keeps referenced.

    ``array.ctypes`` builds a helper object on every access (~1.9µs, and a
    read wrapper takes three to five addresses per query); the buffer
    protocol hands out the same address in a third of that.  It refuses
    empty and read-only arrays, which take the general route.
    """
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


#: Slots of one query's row in the table of ``repro_filter_verify_rows`` (the
#: ``ROW_*`` enum of ``_kernels.c``): eleven inputs, then the three outputs.
_ROW_FIELDS = 14
_ROW_FIRST_KEY, _ROW_VERIFIED, _ROW_DENSE, _ROW_HITS_END = 3, 11, 12, 13


def filter_verify_rows(csr, ranges, global_ids, rows, key_ids, query_counts):
    compact = _compact_csr(csr)
    if compact is None:
        # A store that outgrew int32: the dtype-agnostic reference handles it.
        return numpy_impl.filter_verify_rows(csr, ranges, global_ids, rows, key_ids, query_counts)
    distinct, bounds = ranges
    keys = _c64(key_ids)
    counts_q = _c64(query_counts)
    num_store_rows = csr[3]
    # The per-query scalars as one flat int64 table and one double vector:
    # ``array`` buffers, whose addresses cost nothing to take.
    fields = []
    gammas = []
    first_key = room = ranked = 0
    for num_query_vertices, matched_total, num_keys, budget, table, gamma, k in rows:
        # The execution core hands every query of a τ̂ the same table until
        # it grows, so its addresses are worth caching.
        offsets, phi, best = table
        if k:
            room += min(k, num_store_rows)
            ranked += 1
        else:
            room += num_store_rows
        fields += (
            num_query_vertices, matched_total, max(budget, 0), first_key, num_keys,
            _pinned(offsets, np.int64), len(offsets), _pinned(phi, np.float64),
            _pinned(best, np.float64), min(len(phi), len(best)), k, 0, 0, 0,
        )
        gammas.append(gamma)
        first_key += num_keys
    table = array("q", fields)
    gammas = array("d", gammas)
    num_rows, width = len(rows), len(distinct)
    eligible = np.empty(num_rows * width, dtype=np.bool_)
    # Hits and their GBDs, and the k-best rows' scores, with room for the
    # batch's hits up to two queries that hit every row; a query fits in any
    # empty buffer.  Only the slots of actual hits are ever written, so the
    # rest of the pages are never touched.
    capacity = max(min(room, 2 * num_store_rows), 1)
    out = np.empty(2 * capacity, dtype=np.int64)
    out_address = _address(out)
    # Graph ids and the scores buffer only matter to k-best rows.
    scores = np.empty(capacity, dtype=np.float64) if ranked else out[:0]
    head = (
        _pinned(distinct, np.int64), _pinned(bounds, np.int64), width, *compact,
        _pinned(global_ids, np.int64) if ranked else 0, _address(keys), _address(counts_q),
        table.buffer_info()[0], gammas.buffer_info()[0],
    )
    tail = (
        capacity, out_address, out_address + 8 * capacity, _address(scores) if ranked else 0,
        _address(eligible),
    )
    # Views of the buffers suffice when one call answers a batch of top-k
    # rows alone: the buffer is never refilled and holds no more than their k
    # slots each.  Otherwise the hits are copied out, so that a few of them
    # do not keep a buffer with room for every row of the store alive.
    views = ranked == num_rows and room == capacity
    results = []
    first = 0
    while first < num_rows:
        done = int(_library().repro_filter_verify_rows(*head, first, num_rows, *tail))
        if done < 0:
            raise ValueError(f"the posterior table of row {-1 - done} lacks a row it reads")
        used = table[(done - 1) * _ROW_FIELDS + _ROW_HITS_END]
        hits, gbds, found = out[:used], out[capacity : capacity + used], scores[:used]
        if not views:
            hits, gbds = hits.copy(), gbds.copy()
            found = found.copy() if ranked else found
        start = 0
        for row in range(first, done):
            at = row * _ROW_FIELDS
            verified, end = table[at + _ROW_VERIFIED], table[at + _ROW_HITS_END]
            if verified < 0:
                # An allocation failure inside the kernel: the reference answers.
                key_start = table[at + _ROW_FIRST_KEY]
                key_span = slice(key_start, key_start + rows[row][2])
                results.append(numpy_impl.filter_verify_rows(
                    csr, ranges, global_ids, [rows[row]], keys[key_span], counts_q[key_span]
                )[0])
            else:
                results.append((
                    hits[start:end], (found if rows[row][6] else gbds)[start:end],
                    eligible[row * width : (row + 1) * width], verified,
                    not table[at + _ROW_DENSE] if verified else None,
                ))
            start = end
        first = done
    return results


def merge_postings(csr, pending, num_keys, shift, position_dtype, count_dtype):
    old_offsets, old_positions, old_counts, _old_rows = csr
    if not (
        old_positions.dtype == old_counts.dtype == position_dtype == count_dtype == np.int32
    ):
        # Wide layout on either side of the merge (the promotion itself
        # included): the dtype-agnostic reference handles it.
        return numpy_impl.merge_postings(
            csr, pending, num_keys, shift, position_dtype, count_dtype
        )
    pending_keys, pending_positions, pending_counts = (_c64(part) for part in pending)
    old_offsets = _c64(old_offsets)
    old_positions = np.ascontiguousarray(old_positions)
    old_counts = np.ascontiguousarray(old_counts)
    shift = _c64(shift)
    num_pending = len(pending_keys)
    total = len(old_positions) + num_pending
    offsets = np.empty(num_keys + 1, dtype=np.int64)
    positions = np.empty(total, dtype=np.int32)
    counts = np.empty(total, dtype=np.int32)
    cursor = np.empty(num_keys + 1, dtype=np.int64)
    sorted_positions = np.empty(num_pending, dtype=np.int32)
    sorted_counts = np.empty(num_pending, dtype=np.int32)
    _library().repro_merge_postings(
        old_offsets.ctypes.data, old_positions.ctypes.data, old_counts.ctypes.data,
        len(old_offsets) - 1, shift.ctypes.data,
        pending_keys.ctypes.data, pending_positions.ctypes.data,
        pending_counts.ctypes.data, num_pending, num_keys,
        offsets.ctypes.data, positions.ctypes.data, counts.ctypes.data,
        cursor.ctypes.data, sorted_positions.ctypes.data, sorted_counts.ctypes.data,
    )
    return offsets, positions, counts
