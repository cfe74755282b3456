"""Compiled (C, via ctypes) kernel backend for the columnar store.

The bundled ``_kernels.c`` is compiled on demand with the system C compiler
(``cc``/``gcc``/``clang`` — no third-party build dependency) into a per-user
cache directory keyed by the source hash, then loaded through :mod:`ctypes`.
Its three wrappers (``intersection_row``, ``filter_verify_rows`` and
``merge_postings``) return bit-identical results to their
:mod:`repro.db.kernels.numpy_impl` twins; inputs whose CSR arrays are not in
the compact int32 layout (a store that outgrew int32) are transparently
delegated to the numpy backend rather than widening the C surface.

The compiled calls release the GIL for their whole duration (plain ctypes
foreign calls), so threads sharing one engine — the service's scoring
thread, callers' own — overlap better on this backend than on the numpy one.

Pointer arguments are declared ``void *`` and passed as plain addresses:
extracting ``array.ctypes.data_as(...)`` costs ~2µs per array in ctypes
machinery, which at a dozen arrays per fused call would rival the kernel
itself.  The reducer's long-lived arrays are therefore never looked up per
call.  A store snapshot carries its own argument block
(``_Snapshot.arguments`` in :mod:`repro.db.columnar`: the addresses of its
order ranges, CSR triple and ``global_ids``, derived when the record is
built; ``None`` when the CSR is not in the int32 layout), and a
:class:`~repro.db.columnar.PosteriorTable` its own addresses and sizes
(``PosteriorTable.arguments``, derived when the table is built).  Each
lives exactly as long as the arrays it names, which the snapshot or table
holds, so an address can never dangle, and this module keeps a reference
to neither.  The per-call inputs are ``array`` buffers, whose addresses
cost nothing to take: the store's vocabulary pass appends a batch's matched
keys and counts straight into them.

Both reducers run inside one C call, ``repro_filter_verify_rows``, for a
whole batch of queries: a query's row names its reducer — the γ threshold or
the k best — and the queries' scalars travel as one int64 row table and one
γ vector beside the snapshot's block; a table that lacks a row its query
reads refuses the batch before any query is reduced (``ValueError``).
Intersections accumulate in buffers of four bytes a row that live for one
query alone — nothing is shared between threads, nothing persists on a
store — and hits are appended to one caller-allocated buffer with room for
the batch's hits up to two queries that hit every row (a k-best query has
at most ``k``), their GBDs beside them and the k-best rows' scores in a
buffer of their own; only the slots of actual hits are ever touched.  The
call returns how many queries it finished, and :func:`filter_verify_rows`
calls again from there when the buffer filled first.

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
from array import array
from pathlib import Path
from typing import Optional

import numpy as np

from repro.db.kernels import numpy_impl

name = "native"

_SOURCE_PATH = Path(__file__).with_name("_kernels.c")
_ABI_VERSION = 10

#: argtypes of every exported kernel (i=int64 scalar, d=double, p=array address)
_SIGNATURES = {
    "repro_kernels_abi_version": "",
    "repro_intersection_row": "pppppip",
    "repro_filter_verify_rows": "pppppiiipppp",
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


def _c64(array: np.ndarray) -> np.ndarray:
    # No-op for the common case (already contiguous int64); copies strided
    # or mistyped caller arrays instead of reading garbage.  The caller must
    # hold the returned array until after the foreign call — addresses are
    # extracted with ``.ctypes.data``, which does not pin the array.
    return np.ascontiguousarray(array, dtype=np.int64)


def _address(array: np.ndarray) -> int:
    """Address of a call-scoped array the caller keeps referenced.

    ``array.ctypes`` builds a helper object on every access (~1.9µs, and a
    read wrapper takes two or three addresses per call); the buffer
    protocol hands out the same address in a third of that.  It refuses
    empty and read-only arrays, which take the general route.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError):
        return array.ctypes.data


#: The CSR triple's slots in a snapshot's argument block (``SNAPSHOT_OFFSETS``
#: .. ``SNAPSHOT_COUNTS`` of ``_kernels.c``).
_CSR_SLOTS = slice(2, 5)


def intersection_row(snapshot, key_ids, query_counts):
    arguments = snapshot.arguments
    if arguments is None:
        # A store that outgrew int32: the dtype-agnostic reference handles it.
        return numpy_impl.intersection_row(snapshot, key_ids, query_counts)
    keys = _c64(key_ids)
    counts_q = _c64(query_counts)
    out = np.zeros(snapshot.csr[3], dtype=np.int64)
    _library().repro_intersection_row(
        *arguments[_CSR_SLOTS], _address(keys), _address(counts_q), len(keys), _address(out),
    )
    return out


#: Slots of one query's row in the table of ``repro_filter_verify_rows`` (the
#: ``ROW_*`` enum of ``_kernels.c``): eleven inputs, then the three outputs.
_ROW_FIELDS = 14
_ROW_FIRST_KEY, _ROW_VERIFIED, _ROW_DENSE, _ROW_HITS_END = 3, 11, 12, 13


#: An int64 buffer for a batch that matched no key: an empty ``array`` has no
#: storage, and the reducer is handed real addresses only.
_NO_KEYS = array("q", (0,))


def filter_verify_rows(snapshot, rows, key_ids, query_counts):
    arguments = snapshot.arguments
    if arguments is None:
        # A store that outgrew int32: the dtype-agnostic reference handles it.
        return numpy_impl.filter_verify_rows(snapshot, rows, key_ids, query_counts)
    num_store_rows = snapshot.csr[3]
    # The per-query scalars as one flat int64 table and one double vector,
    # each table by the addresses and sizes it carries.
    fields = []
    gammas = array("d")
    first_key = room = ranked = 0
    for num_query_vertices, matched_total, num_keys, budget, table, gamma, k in rows:
        if k:
            room += min(k, num_store_rows)
            ranked += 1
        else:
            room += num_store_rows
        fields += (
            num_query_vertices, matched_total, max(budget, 0), first_key, num_keys,
            *table.arguments, k, 0, 0, 0,
        )
        gammas.append(gamma)
        first_key += num_keys
    table = array("q", fields)
    num_rows, width = len(rows), len(snapshot.ranges[0])
    eligible = np.empty(num_rows * width, dtype=np.bool_)
    # Hits and their GBDs, and the k-best rows' scores, with room for the
    # batch's hits up to two queries that hit every row; a query fits in any
    # empty buffer.  Only the slots of actual hits are ever written, so the
    # rest of the pages are never touched.
    capacity = max(min(room, 2 * num_store_rows), 1)
    out = np.empty(2 * capacity, dtype=np.int64)
    out_address = _address(out)
    # The scores buffer only matters to k-best rows.
    scores = np.empty(capacity, dtype=np.float64) if ranked else out[:0]
    head = (
        arguments.buffer_info()[0],
        (key_ids if first_key else _NO_KEYS).buffer_info()[0],
        (query_counts if first_key else _NO_KEYS).buffer_info()[0],
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
                    snapshot, [rows[row]], key_ids[key_span], query_counts[key_span]
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
