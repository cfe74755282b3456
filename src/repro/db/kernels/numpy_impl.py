"""Pure-NumPy kernel backend for the columnar (CSR) branch-postings store.

This module is the behaviour-defining reference implementation of the kernel
backend interface: every function is a stateless array transform over one CSR
snapshot plus the pre-matched query arrays the store's vocabulary pass
produced.  The compiled backend (:mod:`repro.db.kernels.native`) must return
bit-identical results for every function here; the hypothesis parity suite
drives both against the scalar reference loop.

Interface conventions shared by all backends:

* ``csr`` is the store's ``(offsets, positions, counts, rows_covered)``
  snapshot tuple.  ``offsets`` is int64; ``positions``/``counts`` are int32
  under the compact layout (int64 once the store outgrows it — this backend
  is dtype-agnostic, the native backend falls back to this one).
* ``key_ids``/``query_counts`` are parallel int64 arrays of the query's
  *matched* branch keys (possibly empty, never ``None``).
* ``blocks`` is the snapshot's ``(sorted codes, permutation, stride)``
  (key, row-order) block index.
* ``partition`` is ``(distinct orders, row_order, starts, ends)``: rows
  grouped by ``|V_G|``, each group's slice of ``row_order`` ascending.
* ``orders`` / ``global_ids`` are the snapshot's int64 row vectors
  (``position -> |V_G|`` / ``-> graph id``).
* ``lut`` is a float64 posterior table, ``lut[order, gbd] = Pr[GED <= τ̂ |
  GBD = gbd]`` at extended order ``order``, with a row for every extended
  order the query can meet (the store checks); ``bound_lut`` is its
  suffix-max twin, ``bound_lut[order, ϕ] = max(lut[order, ϕ:])`` — read at a
  GBD *lower bound* it upper-bounds the posterior — a table of its own
  shape; ``max_gbd`` is the branch-bound cap on an acceptable GBD, or
  ``None`` for no cap.  The two reducers (:func:`filter_verify_row`,
  :func:`filter_verify_topk`) read them to turn verified rows into *hits*
  inside the kernel; the compiled twins never materialise a dense row.
* ``build_*`` are the from-scratch builders of those derived structures —
  the first-build path of a snapshot and the oracle of the carried ones;
  :func:`merge_postings` / :func:`extend_order_partition` carry them from one
  snapshot to the next in linear time.
* Outputs are always int64; weighted ``bincount`` sums are exact small
  integers, so the float64 round-trip is lossless.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

name = "numpy"

_EMPTY_I64 = np.empty(0, dtype=np.int64)


def intersection_row(
    csr, key_ids: np.ndarray, query_counts: np.ndarray, num_graphs: int
) -> np.ndarray:
    """``|B_Q ∩ B_G|`` for every row: one gather plus one bincount scatter-add.

    The gather is one range concatenation — repeat each matched segment's
    start and add the within-segment offset ``0..length-1`` — with no
    Python-level loop.
    """
    offsets, all_positions, all_counts, _rows = csr
    starts = offsets[key_ids]
    lengths = offsets[key_ids + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(num_graphs, dtype=np.int64)
    ends = np.cumsum(lengths)
    flat = np.repeat(starts - (ends - lengths), lengths) + np.arange(total, dtype=np.int64)
    values = np.minimum(np.repeat(query_counts, lengths), all_counts[flat])
    return np.bincount(all_positions[flat], weights=values, minlength=num_graphs).astype(
        np.int64
    )


def _block_intersections(
    csr,
    blocks: Tuple[np.ndarray, np.ndarray, int],
    key_ids: np.ndarray,
    query_counts: np.ndarray,
    order_values: np.ndarray,
    positions: np.ndarray,
) -> np.ndarray:
    """``|B_Q ∩ B_G|`` over the rows of the given orders via block probes.

    The sparse plan of both reducers: ``positions`` are exactly the (sorted)
    rows of ``order_values``, and each (query key, order) pair is one
    contiguous block of the snapshot's block index — only postings of those
    rows are gathered.
    """
    _offsets, all_positions, all_counts, _rows = csr
    num_positions = len(positions)
    out = np.zeros(num_positions, dtype=np.int64)
    codes_sorted, permutation, stride = blocks
    block_codes = (key_ids[:, None] * stride + order_values[None, :]).ravel()
    starts = np.searchsorted(codes_sorted, block_codes, side="left")
    ends = np.searchsorted(codes_sorted, block_codes, side="right")
    lengths = ends - starts
    total = int(lengths.sum())
    if total == 0:
        return out
    block_ends = np.cumsum(lengths)
    flat = np.repeat(starts - (block_ends - lengths), lengths) + np.arange(
        total, dtype=np.int64
    )
    posting_slots = permutation[flat]
    rows = all_positions[posting_slots]
    counts = all_counts[posting_slots]
    capped = np.minimum(
        np.repeat(np.repeat(query_counts, len(order_values)), lengths), counts
    )
    columns = np.searchsorted(positions, rows)
    return np.bincount(columns, weights=capped, minlength=num_positions).astype(np.int64)


def gbd_lower_bound_row(
    num_query_vertices: int, matched_total: int, orders: np.ndarray
) -> np.ndarray:
    """``max(|V_Q|, |V_G|) - min(matched_total, |V_G|)`` per row."""
    return np.maximum(int(num_query_vertices), orders) - np.minimum(
        int(matched_total), orders
    )


def filter_verify_row(
    csr,
    blocks: Tuple[np.ndarray, np.ndarray, int],
    partition: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    orders: np.ndarray,
    num_query_vertices: int,
    matched_total: int,
    key_ids: np.ndarray,
    query_counts: np.ndarray,
    thresholds: np.ndarray,
    max_candidates: int,
    lut: np.ndarray,
    gamma: float,
    max_gbd: Optional[int],
):
    """Fused single-query bound filter → verify → threshold reduce.

    Returns ``(positions, gbds, eligible, num_eligible)``.  ``eligible`` is
    the per-distinct-order bool mask of the bound filter (lower bound ``<=
    thresholds``) and ``num_eligible`` the rows of the eligible orders.  None
    eligible: nothing is verified.  At most ``max_candidates`` (the caller's
    dense-plan bar): exactly those rows are verified, through the block
    index.  More: every row is, from one dense row.  A verified row is a
    *hit* when ``gbd = max(|V_Q|, |V_G|) - |B_Q ∩ B_G|`` is within
    ``max_gbd`` and ``lut[order, gbd] >= gamma`` (Step 4's comparison, on the
    very doubles the posteriors are); ``positions`` are the hits' store
    positions, ascending, and ``gbds`` their GBDs.
    """
    distinct, row_order, starts, ends = partition
    lower_bounds = np.maximum(int(num_query_vertices), distinct) - np.minimum(
        int(matched_total), distinct
    )
    eligible = lower_bounds <= thresholds
    num_eligible = int((ends - starts)[eligible].sum())
    if num_eligible == 0:
        return _EMPTY_I64, _EMPTY_I64, eligible, 0
    if num_eligible > max_candidates:
        positions = None
        row_orders = np.maximum(int(num_query_vertices), orders)
        gbds = row_orders - intersection_row(csr, key_ids, query_counts, len(orders))
    else:
        slots = np.flatnonzero(eligible)
        if len(slots) == len(distinct):
            positions = np.arange(len(row_order), dtype=np.int64)
        else:
            positions = np.concatenate(
                [row_order[starts[slot] : ends[slot]] for slot in slots.tolist()]
            )
            positions.sort()
        row_orders = np.maximum(int(num_query_vertices), orders[positions])
        gbds = row_orders - _block_intersections(
            csr, blocks, key_ids, query_counts, distinct[eligible], positions
        )
    accepted = lut.take(row_orders * lut.shape[1] + gbds) >= gamma
    if max_gbd is not None:
        accepted &= gbds <= max_gbd
    hits = np.flatnonzero(accepted)
    return hits if positions is None else positions[hits], gbds[hits], eligible, num_eligible


def k_best(ids: np.ndarray, scores: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
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


def filter_verify_topk(
    csr,
    blocks: Tuple[np.ndarray, np.ndarray, int],
    partition: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    global_ids: np.ndarray,
    num_query_vertices: int,
    matched_total: int,
    key_ids: np.ndarray,
    query_counts: np.ndarray,
    max_candidates: int,
    lut: np.ndarray,
    bound_lut: np.ndarray,
    max_gbd: Optional[int],
    k: int,
):
    """The k-best reducer of one query: ``(ids, scores, verified, dense)``.

    Every distinct ``|V_G|`` gets its GBD lower bound and, from ``bound_lut``,
    the posterior upper bound its rows share.  Ranked in are the order groups
    whose lower bound is within ``max_gbd`` or, without the cap, whose upper
    bound is positive (a zero bound settles the score at 0.0).  They are
    visited by descending bound, ties in ``distinct`` order, until the first
    whose bound is strictly below the k-th best score so far.  A visited
    group is verified through its ``(key, |V_G|)`` blocks while the rows
    verified so far plus its own stay within ``max_candidates`` (the caller's
    dense-plan bar); the first group past it, and every one after, reads one
    dense row.  A verified row with ``gbd = max(|V_Q|, |V_G|) - |B_Q ∩ B_G|``
    within ``max_gbd`` scores ``lut[order, gbd]``.  Without the cap, a ranking
    that is short or whose k-th score is 0.0 is filled from the zero-bound
    groups by smallest graph id.  Returned are at most ``k`` graph ids and
    scores, the first under ``(-score, id)`` in no particular order (the
    caller ranks once, at the end), the rows verified, and whether the dense
    row was walked.
    """
    distinct, row_order, starts, ends = partition
    extended = np.maximum(int(num_query_vertices), distinct)
    lower_bounds = extended - np.minimum(int(matched_total), distinct)
    upper = bound_lut[extended, lower_bounds]
    ranked_in = lower_bounds <= max_gbd if max_gbd is not None else upper > 0.0
    groups = np.argsort(-upper, kind="stable")
    ids, scores = global_ids[:0], np.empty(0, dtype=np.float64)
    verified, dense_row = 0, None
    for group in groups[ranked_in[groups]].tolist():
        if len(ids) == k and upper[group] < scores.min():
            break
        rows = row_order[starts[group] : ends[group]]
        if dense_row is None and verified + len(rows) > max_candidates:
            dense_row = intersection_row(csr, key_ids, query_counts, len(global_ids))
        if dense_row is None:
            intersections = _block_intersections(
                csr, blocks, key_ids, query_counts, distinct[group : group + 1], rows
            )
        else:
            intersections = dense_row[rows]
        verified += len(rows)
        gbds = extended[group] - intersections
        if max_gbd is not None:
            rows, gbds = rows[gbds <= max_gbd], gbds[gbds <= max_gbd]
        ids, scores = k_best(
            np.concatenate((ids, global_ids[rows])),
            np.concatenate((scores, lut[extended[group], gbds])),
            k,
        )
    if max_gbd is None and (len(ids) < k or scores.min() <= 0.0):
        zero_rows = np.concatenate(
            [row_order[:0]]
            + [row_order[starts[g] : ends[g]] for g in np.flatnonzero(~ranked_in).tolist()]
        )
        ids, scores = k_best(
            np.concatenate((ids, global_ids[zero_rows])),
            np.concatenate((scores, np.zeros(len(zero_rows)))),
            k,
        )
    return ids, scores, verified, dense_row is not None


# --------------------------------------------------------------------------- #
# derived structures of a snapshot: from-scratch builders and the write path
# --------------------------------------------------------------------------- #
def _keys_of_postings(offsets: np.ndarray) -> np.ndarray:
    """Key id of every posting slot of a CSR."""
    return np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))


def block_stride(orders: np.ndarray) -> int:
    """Stride of the ``key_id * stride + |V_row|`` block codes: past the largest order."""
    return int(orders.max()) + 1 if len(orders) else 1


def build_order_blocks(csr, orders: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(sorted codes, permutation, stride)`` of a snapshot, from scratch: O(P log P).

    ``codes = key_id * stride + |V_row|``; ``permutation`` maps the sorted
    order back to posting slots, ties in slot order.
    """
    offsets, all_positions, _counts, _rows = csr
    stride = block_stride(orders)
    codes = _keys_of_postings(offsets) * stride + orders[all_positions]
    permutation = np.argsort(codes, kind="stable")
    return codes[permutation], permutation, stride


def _partition_of(distinct: np.ndarray, row_order: np.ndarray, orders: np.ndarray):
    sorted_orders = orders[row_order]
    starts = np.searchsorted(sorted_orders, distinct, side="left")
    ends = np.searchsorted(sorted_orders, distinct, side="right")
    return distinct, row_order, starts, ends


def build_order_partition(orders: np.ndarray):
    """``(distinct, row_order, starts, ends)`` of a snapshot, from scratch: O(D log D)."""
    return _partition_of(np.unique(orders), np.argsort(orders, kind="stable"), orders)


def extend_order_partition(partition, orders: np.ndarray, old_rows: int):
    """Carry a partition over ``old_rows`` rows to all of ``orders``: O(D + n log n).

    The ``n`` new rows have the largest positions, so each joins the end of
    its order's run; only they are sorted.
    """
    distinct, row_order, _starts, _ends = partition
    new_orders = orders[old_rows:]
    if len(new_orders) == 0:
        return partition
    by_order = np.argsort(new_orders, kind="stable")
    at = np.searchsorted(orders[row_order], new_orders[by_order], side="right")
    return _partition_of(
        np.union1d(distinct, new_orders),
        np.insert(row_order, at, old_rows + by_order),
        orders,
    )


def merge_postings(
    csr,
    blocks: Optional[Tuple[np.ndarray, np.ndarray, int]],
    pending: Tuple[np.ndarray, np.ndarray, np.ndarray],
    num_keys: int,
    orders: np.ndarray,
    position_dtype,
    count_dtype,
):
    """One compaction: the next snapshot's arrays from the previous one's, linearly.

    ``pending`` is the append buffer as int64 ``(key ids, row positions,
    counts)`` in arrival order (rows ascending, every one past the old CSR);
    ``orders`` covers old and new rows.  Returns ``((offsets, positions,
    counts), blocks)``: each old segment shifted by the room the keys before
    it grew, its pending postings behind it in arrival order.  ``blocks`` —
    the previous snapshot's block index, or ``None`` when it had none — is
    carried by remapping its permutation through that shift and merging the
    pending postings in by ``(code, slot)``, and equals its from-scratch
    builder on the merged CSR.  Only the pending postings are sorted.
    """
    old_offsets, old_positions, old_counts, _old_rows = csr
    pending_keys, pending_positions, pending_counts = pending
    old_num_keys = len(old_offsets) - 1
    old_lengths = np.diff(old_offsets)
    added = np.bincount(pending_keys, minlength=num_keys)
    lengths = added.copy()
    lengths[:old_num_keys] += old_lengths
    offsets = np.zeros(num_keys + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    positions = np.empty(int(offsets[-1]), dtype=position_dtype)
    counts = np.empty(int(offsets[-1]), dtype=count_dtype)

    destination = np.arange(len(old_positions), dtype=np.int64) + np.repeat(
        offsets[:old_num_keys] - old_offsets[:-1], old_lengths
    )
    positions[destination] = old_positions
    counts[destination] = old_counts

    # Pending postings fill the tail of their key's segment in arrival order.
    arrival = np.argsort(pending_keys, kind="stable")
    sorted_keys = pending_keys[arrival]
    ranks = np.arange(len(sorted_keys)) - np.searchsorted(sorted_keys, sorted_keys)
    new_slots = offsets[sorted_keys + 1] - added[sorted_keys] + ranks
    new_rows = pending_positions[arrival]
    positions[new_slots] = new_rows
    counts[new_slots] = pending_counts[arrival]

    if blocks is not None:
        codes, permutation, old_stride = blocks
        stride = block_stride(orders)
        if stride != old_stride:  # a new row raised the largest order: re-base
            key_of, order_of = np.divmod(codes, old_stride)
            codes = key_of * stride + order_of
        new_codes = sorted_keys * stride + orders[new_rows]
        # Stable over (key, arrival): equal codes stay in slot order, and an
        # old posting of the same block (a smaller slot) stays ahead of them.
        by_code = np.argsort(new_codes, kind="stable")
        at = np.searchsorted(codes, new_codes[by_code], side="right")
        blocks = (
            np.insert(codes, at, new_codes[by_code]),
            np.insert(destination[permutation], at, new_slots[by_code]),
            stride,
        )
    return (offsets, positions, counts), blocks
