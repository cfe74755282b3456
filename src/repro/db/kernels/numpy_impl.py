"""Pure-NumPy kernel backend for the columnar (CSR) branch-postings store.

This module is the behaviour-defining reference implementation of the kernel
backend interface — ``intersection_row`` and ``filter_verify_rows`` on the
read path, ``merge_postings`` on the write path: every function is a
stateless array transform over one CSR snapshot plus the pre-matched query
arrays the store's vocabulary pass produced.  The compiled backend (:mod:`repro.db.kernels.native`) must return
bit-identical results for every function here; the hypothesis parity suite
drives both against the scalar reference loop.

Interface conventions shared by all backends:

* ``csr`` is the store's ``(offsets, positions, counts, rows_covered)``
  snapshot tuple.  ``offsets`` is int64; ``positions``/``counts`` are int32
  under the compact layout (int64 once the store outgrows it — this backend
  is dtype-agnostic, the native backend falls back to this one).
* A *position* is a row's slot in the snapshot's clustered layout: rows lie
  in ascending ``|V_G|``, by arrival within one order, and every key's CSR
  segment is sorted by position.  Every array a kernel reads or returns is
  indexed by position; the store translates to arrival order at its boundary.
* ``ranges`` is ``(distinct orders, bounds)``: the rows of order
  ``distinct[u]`` are the positions ``bounds[u]:bounds[u + 1]`` (``bounds``
  holds one slot per distinct order plus the row count), so the rows of a
  ``(key, |V_G|)`` pair are one contiguous slice of the key's segment.
* ``key_ids``/``query_counts`` are parallel int64 arrays of the query's
  *matched* branch keys (possibly empty, never ``None``); the batch reducer
  takes them as the int64 ``array`` buffers the store's vocabulary pass
  filled, and converts them once.
* ``snapshot`` (the reads' first argument) is the store's published read
  state (:class:`~repro.db.columnar._Snapshot`): its ``csr``, ``ranges`` and
  ``global_ids``, and the ``arguments`` block the compiled twin reads.
* ``global_ids`` is the snapshot's int64 ``position -> graph id`` vector: the
  k-best reducer ranks, and hands back, graph ids.
* ``table`` is a query's :class:`~repro.db.columnar.PosteriorTable`
  ``(offsets, phi, best)``: row ``e`` — an extended order — holds ``Φ(0..e)``
  at ``phi[offsets[e]:]`` and its suffix maximum ``M`` at
  ``best[offsets[e]:]``.  Read at a range's GBD *lower bound*, ``M`` keeps a
  γ range (``M >= γ``) and bounds a k-best one.  The one reducer,
  :func:`filter_verify_rows`, turns verified rows into *hits* inside the
  kernel, for every query of a batch; the compiled twin never materialises
  a dense row.
* Outputs are int64 but for the k-best scores (float64); weighted
  ``bincount`` sums are exact small integers, so the float64 round-trip is
  lossless.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

name = "numpy"

_EMPTY_I64 = np.empty(0, dtype=np.int64)


def _flat_slices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices ``starts[i] .. starts[i] + lengths[i] - 1`` of every slice, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(
        int(ends[-1]) if len(ends) else 0, dtype=np.int64
    )


def intersection_row(snapshot, key_ids: np.ndarray, query_counts: np.ndarray) -> np.ndarray:
    """``|B_Q ∩ B_G|`` for every position of ``snapshot`` (:func:`_intersections`)."""
    csr = snapshot.csr
    return _intersections(csr, key_ids, query_counts, csr[3])


def _intersections(
    csr, key_ids: np.ndarray, query_counts: np.ndarray, num_graphs: int
) -> np.ndarray:
    """``|B_Q ∩ B_G|`` for every position: one gather plus one bincount scatter-add.

    The gather is one range concatenation — repeat each matched segment's
    start and add the within-segment offset ``0..length-1`` — with no
    Python-level loop.
    """
    offsets, all_positions, all_counts, _rows = csr
    starts = offsets[key_ids]
    lengths = offsets[key_ids + 1] - starts
    if int(lengths.sum()) == 0:
        return np.zeros(num_graphs, dtype=np.int64)
    flat = _flat_slices(starts, lengths)
    values = np.minimum(np.repeat(query_counts, lengths), all_counts[flat])
    return np.bincount(all_positions[flat], weights=values, minlength=num_graphs).astype(
        np.int64
    )


def _range_intersections(
    csr,
    key_ids: np.ndarray,
    query_counts: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> np.ndarray:
    """``|B_Q ∩ B_G|`` over the rows of the position ranges ``starts[i]:ends[i]``.

    The sparse plan of both reducers.  The ranges ascend and do not overlap;
    the result has one column per row, ranges laid end to end.  Per matched
    key, each range is one slice of the key's position-sorted segment, found
    by a binary search at each end — only postings of those rows are read.
    """
    offsets, all_positions, all_counts, _rows = csr
    sizes = ends - starts
    if len(key_ids) == 0:
        return np.zeros(int(sizes.sum()), dtype=np.int64)
    cuts = np.concatenate((starts, ends)).astype(all_positions.dtype)
    firsts = offsets[key_ids]
    found = firsts[:, None] + np.stack(
        [
            np.searchsorted(all_positions[first:last], cuts)
            for first, last in zip(firsts.tolist(), offsets[key_ids + 1].tolist())
        ]
    )
    low = found[:, : len(starts)].ravel()
    lengths = found[:, len(starts) :].ravel() - low
    flat = _flat_slices(low, lengths)
    # a row's column: its position less its range's start, plus the range's first column
    to_column = np.tile(np.cumsum(sizes) - sizes - starts, len(key_ids))
    capped = np.minimum(np.repeat(np.repeat(query_counts, len(starts)), lengths), all_counts[flat])
    return np.bincount(
        all_positions[flat] + np.repeat(to_column, lengths),
        weights=capped,
        minlength=int(sizes.sum()),
    ).astype(np.int64)


def _table_starts(table, extended: np.ndarray, row: int) -> np.ndarray:
    """Where ``table``'s row of each extended order starts; ``ValueError`` unless all lie inside."""
    offsets, phi, best = table
    if not len(extended) or extended[-1] < len(offsets):  # extended orders ascend
        starts = np.asarray(offsets, dtype=np.int64)[extended]
        if (starts >= 0).all() and (starts < min(len(phi), len(best)) - extended).all():
            return starts
    raise ValueError(f"the posterior table of row {row} lacks a row it reads")


def filter_verify_rows(snapshot, rows: Sequence[Tuple], key_ids, query_counts):
    """Fused bound filter → verify → reduce of a batch of queries against one snapshot.

    ``rows`` holds one ``(num_query_vertices, matched_total, num_keys,
    max_candidates, table, gamma, k)`` tuple per query; ``key_ids`` /
    ``query_counts`` are the queries' matched keys laid end to end, ``num_keys``
    of them each.  ``k`` picks the reducer: 0 the γ threshold
    (:func:`_filter_verify_one`), ``k >= 1`` the k best (:func:`_k_best_one`).
    A table lacking a row its query reads refuses the batch (``ValueError``)
    first.  Returns one ``(positions, values, eligible, verified, sparse)`` per
    query, in order: the queries share the snapshot and nothing else.
    ``sparse`` is ``None`` when nothing was verified, ``True`` when range
    slices did all of it and ``False`` when the dense walk ran.
    """
    csr, ranges, global_ids = snapshot.csr, snapshot.ranges, snapshot.global_ids
    key_ids = np.asarray(key_ids, dtype=np.int64)
    query_counts = np.asarray(query_counts, dtype=np.int64)
    distinct = ranges[0]
    tables = []
    for row, (num_query_vertices, _total, _keys, _budget, table, _gamma, _k) in enumerate(rows):
        extended = np.maximum(int(num_query_vertices), distinct)
        tables.append((extended, _table_starts(table, extended, row), table[1], table[2]))
    results = []
    first = 0
    for (num_query_vertices, matched_total, num_keys, budget, _table, gamma, k), table in zip(
        rows, tables
    ):
        last = first + num_keys
        keys, counts = key_ids[first:last], query_counts[first:last]
        if k:
            results.append(_k_best_one(
                csr, ranges, global_ids, matched_total, keys, counts, budget, table, k,
            ))
        else:
            results.append(_filter_verify_one(
                csr, ranges, matched_total, keys, counts, budget, table, gamma,
            ))
        first = last
    return results


def _filter_verify_one(
    csr,
    ranges: Tuple[np.ndarray, np.ndarray],
    matched_total: int,
    key_ids: np.ndarray,
    query_counts: np.ndarray,
    max_candidates: int,
    table: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    gamma: float,
):
    """Fused single-query bound filter → verify → threshold reduce.

    ``table`` is ``(extended orders, their rows' starts, phi, best)`` per
    distinct order.  ``eligible`` is the per-distinct-order bool mask of the
    bound filter: ``M >= γ`` at the range's GBD lower bound.  None eligible:
    nothing is verified.  At most ``max_candidates`` rows (the caller's
    dense-plan bar): exactly those rows are verified, range by range, through
    the slices of the matched segments.  More: every row is, from one dense
    row.  A verified row is a *hit* when ``Φ(gbd) >= gamma`` at ``gbd =
    max(|V_Q|, |V_G|) - |B_Q ∩ B_G|`` (Step 4's comparison, on the very
    doubles the posteriors are); ``positions`` are the hits' positions,
    ascending, and the values their GBDs.
    """
    distinct, bounds = ranges
    extended, starts, phi, best = table
    sizes = np.diff(bounds)
    lower_bounds = extended - np.minimum(int(matched_total), distinct)
    eligible = best[starts + lower_bounds] >= gamma
    num_eligible = int(sizes[eligible].sum())
    if num_eligible == 0:
        return _EMPTY_I64, _EMPTY_I64, eligible, 0, None
    if num_eligible > max_candidates:
        positions = None
        row_extended = np.repeat(extended, sizes)
        row_starts = np.repeat(starts, sizes)
        gbds = row_extended - _intersections(csr, key_ids, query_counts, int(bounds[-1]))
    else:
        first, last = bounds[:-1][eligible], bounds[1:][eligible]
        positions = _flat_slices(first, last - first)
        row_extended = np.repeat(extended[eligible], sizes[eligible])
        row_starts = np.repeat(starts[eligible], sizes[eligible])
        gbds = row_extended - _range_intersections(csr, key_ids, query_counts, first, last)
    hits = np.flatnonzero(phi[row_starts + gbds] >= gamma)
    if positions is None:
        return hits, gbds[hits], eligible, int(bounds[-1]), False
    return positions[hits], gbds[hits], eligible, num_eligible, True


def _k_best(ids: np.ndarray, scores: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The first ``k`` of the scored rows under ``(-score, id)``, unsorted.

    The selection of the top-k reducer — exact group by group because the
    ranking is a prefix of a total order.  The k-th score comes from a full
    sort: ``np.partition`` degenerates when one score dominates (a store of
    uniform sizes) — 0.7 ms against 0.04 ms for the SIMD sort on 40 000 scores.
    """
    if len(ids) <= k:
        return ids, scores
    kth_score = np.sort(scores)[-k]
    keep = np.flatnonzero(scores > kth_score)
    tied = np.flatnonzero(scores == kth_score)
    short = k - len(keep)  # places left for the smallest ids among the tied
    keep = np.concatenate((keep, tied[np.argpartition(ids[tied], short - 1)[:short]]))
    return ids[keep], scores[keep]


def _k_best_one(
    csr,
    ranges: Tuple[np.ndarray, np.ndarray],
    global_ids: np.ndarray,
    matched_total: int,
    key_ids: np.ndarray,
    query_counts: np.ndarray,
    max_candidates: int,
    table: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    k: int,
):
    """The k-best reducer of one query.

    Every distinct ``|V_G|`` gets its GBD lower bound and, from ``M`` there
    (``table`` as in :func:`_filter_verify_one`), the posterior upper bound
    its rows share.  Ranked in are the order groups — position ranges — whose
    upper bound is positive (a zero bound settles the score at 0.0).  They
    are visited by descending bound, ties in ``distinct`` order, until the
    first whose bound is strictly below the k-th best score so far.  A
    visited range is verified through its slices of the matched segments
    while the rows verified so far plus its own stay within
    ``max_candidates`` (the caller's dense-plan bar); the first range past
    it, and every one after, reads one dense row.  A verified row scores
    ``Φ(gbd)`` at ``gbd = max(|V_Q|, |V_G|) - |B_Q ∩ B_G|``.  A ranking that
    is short or whose k-th score is 0.0 is filled from the zero-bound ranges
    by smallest graph id.  Returned are the graph ids and scores of at most
    ``k`` rows, the first under ``(-score, id)``, in that order, the mask of
    the ranges verified, the rows verified, and the plan.
    """
    distinct, bounds = ranges
    extended, starts, phi, best = table
    lower_bounds = extended - np.minimum(int(matched_total), distinct)
    upper = best[starts + lower_bounds]
    ranked_in = upper > 0.0
    groups = np.argsort(-upper, kind="stable")
    ids, scores = global_ids[:0], np.empty(0, dtype=np.float64)
    visited = np.zeros(len(distinct), dtype=np.bool_)
    verified, dense_row = 0, None
    for group in groups[ranked_in[groups]].tolist():
        if len(ids) == k and upper[group] < scores.min():
            break
        start, end = bounds[group : group + 2].tolist()
        if dense_row is None and verified + end - start > max_candidates:
            dense_row = _intersections(csr, key_ids, query_counts, int(bounds[-1]))
        if dense_row is None:
            intersections = _range_intersections(
                csr, key_ids, query_counts, bounds[group : group + 1], bounds[group + 1 : group + 2]
            )
        else:
            intersections = dense_row[start:end]
        verified += end - start
        visited[group] = True
        ids, scores = _k_best(
            np.concatenate((ids, global_ids[start:end])),
            np.concatenate((scores, phi[starts[group] + extended[group] - intersections])),
            k,
        )
    if len(ids) < k or scores.min() <= 0.0:
        zero = np.flatnonzero(~ranked_in)
        zero_ids = global_ids[_flat_slices(bounds[zero], bounds[zero + 1] - bounds[zero])]
        ids, scores = _k_best(
            np.concatenate((ids, zero_ids)), np.concatenate((scores, np.zeros(len(zero_ids)))), k
        )
    ranked = np.lexsort((ids, -scores))
    return ids[ranked], scores[ranked], visited, verified, (dense_row is None) if verified else None


# --------------------------------------------------------------------------- #
# the write path
# --------------------------------------------------------------------------- #
def merge_postings(
    csr,
    pending: Tuple[np.ndarray, np.ndarray, np.ndarray],
    num_keys: int,
    shift: np.ndarray,
    position_dtype,
    count_dtype,
):
    """One compaction: the next snapshot's ``(offsets, positions, counts)``, linearly.

    ``shift`` maps every old position to its new one (monotone: new rows are
    interleaved into their order's range, never reordering old ones).
    ``pending`` is the append buffer as int64 ``(key ids, new positions,
    counts)``, ascending in position.  Each old segment, its positions sent
    through ``shift``, moves by the room the keys before it grew, and the key's
    pending postings are merged into it, so every segment stays sorted by
    position.
    """
    old_offsets, old_positions, old_counts, _old_rows = csr
    pending_keys, pending_positions, pending_counts = pending
    old_num_keys = len(old_offsets) - 1
    lengths = np.bincount(pending_keys, minlength=num_keys)
    lengths[:old_num_keys] += np.diff(old_offsets)
    offsets = np.zeros(num_keys + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])

    # (key, position) codes: ascending along the old CSR and, once the pending
    # postings are grouped by key (stably: positions stay ascending), along
    # theirs — one sorted insertion merges the two.
    moved = shift[old_positions]
    stride = int(max(moved.max(initial=-1), pending_positions.max(initial=-1))) + 1
    old_keys = np.repeat(np.arange(old_num_keys, dtype=np.int64), np.diff(old_offsets))
    by_key = np.argsort(pending_keys, kind="stable")
    new_codes = pending_keys[by_key] * stride + pending_positions[by_key]
    at = np.searchsorted(old_keys * stride + moved, new_codes)
    positions = np.insert(moved, at, pending_positions[by_key]).astype(position_dtype)
    counts = np.insert(old_counts.astype(np.int64), at, pending_counts[by_key]).astype(
        count_dtype
    )
    return offsets, positions, counts
