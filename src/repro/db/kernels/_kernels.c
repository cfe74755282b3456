/* Compiled kernels for the columnar (CSR) branch-postings hot path.
 *
 * Compiled on demand by repro/db/kernels/native.py with the system C
 * compiler and loaded through ctypes; repro/db/kernels/numpy_impl.py is the
 * behaviour-defining reference implementation.  Every function here must
 * return bit-identical results to its numpy twin — the hypothesis parity
 * suite (tests/test_execution_parity.py) drives both backends against the
 * scalar reference loop.
 *
 * Data layout contract (enforced by the ctypes wrappers):
 *   - CSR ``offsets`` are int64, one slot per branch key plus a sentinel.
 *   - CSR ``positions`` (row of each posting) and ``counts`` (multiplicity)
 *     are int32 — the compact layout ColumnarBranchStore.compact() emits
 *     unless the store outgrows int32, in which case the wrappers fall back
 *     to the numpy backend instead of calling in here.
 *   - Everything else (key ids, query counts, orders, block codes,
 *     permutations, outputs) is int64.
 *   - Output buffers are caller-allocated; intersection outputs must be
 *     zero-initialised unless noted otherwise.
 *   - Within one key's CSR segment the postings are sorted by row position
 *     and rows are unique; ``sub_positions`` arguments are sorted ascending.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MIN64(a, b) ((a) < (b) ? (a) : (b))
#define MAX64(a, b) ((a) > (b) ? (a) : (b))

int64_t repro_kernels_abi_version(void) { return 1; }

/* First slot in arr[0..n) not less than value (arr ascending). */
static int64_t lower_bound_i64(const int64_t *arr, int64_t n, int64_t value) {
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (arr[mid] < value) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    return lo;
}

static int64_t lower_bound_i32(const int32_t *arr, int64_t n, int32_t value) {
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (arr[mid] < value) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    return lo;
}

/* ------------------------------------------------------------------ *
 * dense intersection kernel
 * ------------------------------------------------------------------ */

/* |B_Q ∩ B_G| for every row: direct scatter-add over the matched keys'
 * CSR segments into the zeroed dense output. */
void repro_intersection_row(const int64_t *offsets, const int32_t *positions,
                            const int32_t *counts, const int64_t *key_ids,
                            const int64_t *query_counts, int64_t num_keys,
                            int64_t *out) {
    for (int64_t ki = 0; ki < num_keys; ++ki) {
        int64_t qc = query_counts[ki];
        int64_t start = offsets[key_ids[ki]];
        int64_t end = offsets[key_ids[ki] + 1];
        for (int64_t s = start; s < end; ++s) {
            out[positions[s]] += MIN64(qc, (int64_t)counts[s]);
        }
    }
}

/* ------------------------------------------------------------------ *
 * position-restricted (sparse) intersections
 * ------------------------------------------------------------------ */

/* Add one key segment's contribution restricted to sub_positions into one
 * output row.  Adaptive: walk whichever side is shorter and binary-search
 * the other — min(seg log E, E log seg) instead of a full gather. */
static void segment_into_subrow(const int32_t *positions, const int32_t *counts,
                                int64_t start, int64_t end, int64_t qc,
                                const int64_t *sub_positions, int64_t num_sub,
                                int64_t *out) {
    int64_t seg = end - start;
    if (seg <= num_sub) {
        for (int64_t s = start; s < end; ++s) {
            int64_t row = positions[s];
            int64_t slot = lower_bound_i64(sub_positions, num_sub, row);
            if (slot < num_sub && sub_positions[slot] == row) {
                out[slot] += MIN64(qc, (int64_t)counts[s]);
            }
        }
    } else {
        for (int64_t e = 0; e < num_sub; ++e) {
            int32_t row = (int32_t)sub_positions[e];
            int64_t slot = start + lower_bound_i32(positions + start, seg, row);
            if (slot < end && positions[slot] == row) {
                out[e] += MIN64(qc, (int64_t)counts[slot]);
            }
        }
    }
}

/* |B_Q ∩ B_G| for a sorted subset of rows (zeroed output, length num_sub). */
void repro_intersection_subrow(const int64_t *offsets, const int32_t *positions,
                               const int32_t *counts, const int64_t *key_ids,
                               const int64_t *query_counts, int64_t num_keys,
                               const int64_t *sub_positions, int64_t num_sub,
                               int64_t *out) {
    for (int64_t ki = 0; ki < num_keys; ++ki) {
        segment_into_subrow(positions, counts, offsets[key_ids[ki]],
                            offsets[key_ids[ki] + 1], query_counts[ki],
                            sub_positions, num_sub, out);
    }
}

/* ------------------------------------------------------------------ *
 * (key, row-order) block probes
 * ------------------------------------------------------------------ */

/* |B_Q ∩ B_G| for every row whose order is in order_values: add every
 * posting of the query's (key, order) blocks into the zeroed out, indexed by
 * the slot of the posting's row in sub_positions.  codes_sorted is the
 * snapshot's block index (key_id * stride + |V_row|, ascending) and
 * permutation maps sorted slots back to posting slots.  Rows of the probed
 * orders are members of sub_positions by contract; the membership check only
 * guards against contract violations. */
void repro_intersection_for_orders(const int64_t *codes_sorted,
                                   const int64_t *permutation, int64_t num_postings,
                                   int64_t stride, const int32_t *positions,
                                   const int32_t *counts, const int64_t *key_ids,
                                   const int64_t *query_counts, int64_t num_keys,
                                   const int64_t *order_values, int64_t num_orders,
                                   const int64_t *sub_positions, int64_t num_sub,
                                   int64_t *out) {
    for (int64_t ki = 0; ki < num_keys; ++ki) {
        int64_t base = key_ids[ki] * stride;
        int64_t qc = query_counts[ki];
        for (int64_t u = 0; u < num_orders; ++u) {
            int64_t code = base + order_values[u];
            int64_t lo = lower_bound_i64(codes_sorted, num_postings, code);
            for (; lo < num_postings && codes_sorted[lo] == code; ++lo) {
                int64_t slot = permutation[lo];
                int64_t row = positions[slot];
                int64_t col = lower_bound_i64(sub_positions, num_sub, row);
                if (col < num_sub && sub_positions[col] == row) {
                    out[col] += MIN64(qc, (int64_t)counts[slot]);
                }
            }
        }
    }
}

/* ------------------------------------------------------------------ *
 * GBD lower bound
 * ------------------------------------------------------------------ */

/* GBD(Q, G) >= max(|V_Q|, |V_G|) - min(matched_total, |V_G|) per row. */
void repro_gbd_lower_bound_row(int64_t num_query_vertices, int64_t matched_total,
                               const int64_t *orders, int64_t num_rows,
                               int64_t *out) {
    for (int64_t i = 0; i < num_rows; ++i) {
        int64_t order = orders[i];
        out[i] = MAX64(num_query_vertices, order) - MIN64(matched_total, order);
    }
}

/* ------------------------------------------------------------------ *
 * fused filter-and-verify
 * ------------------------------------------------------------------ */

/* k-way merge of the eligible orders' ascending row runs. */
typedef struct {
    int64_t value;
    int64_t next;
    int64_t end;
} merge_run;

static void heap_sift_down(merge_run *heap, int64_t size, int64_t i) {
    for (;;) {
        int64_t left = 2 * i + 1;
        int64_t right = left + 1;
        int64_t smallest = i;
        if (left < size && heap[left].value < heap[smallest].value) smallest = left;
        if (right < size && heap[right].value < heap[smallest].value) smallest = right;
        if (smallest == i) break;
        merge_run tmp = heap[i];
        heap[i] = heap[smallest];
        heap[smallest] = tmp;
        i = smallest;
    }
}

/* Single-pass filter-and-verify for one query:
 *   1. per distinct |V_G|, the GBD lower bound is compared against the
 *      caller's max-acceptable-GBD threshold (out_eligible is always
 *      filled; ineligible orders' rows are never touched again);
 *   2. the eligible row count is returned as-is when it is 0 or exceeds
 *      max_candidates (the caller's dense-plan bar) — no per-row work;
 *   3. otherwise the eligible orders' row runs (row_order[starts[u]:ends[u]],
 *      each ascending) are heap-merged into out_positions (sorted), and the
 *      survivors' intersections are accumulated into out_intersections via
 *      the (key, order) block index — postings of pruned rows are never read.
 * Returns the eligible row count, or -1 on allocation failure (the wrapper
 * then falls back to the numpy backend).  out_positions/out_intersections
 * must hold at least max_candidates slots; they are written only when
 * 0 < count <= max_candidates. */
int64_t repro_filter_verify_row(
    int64_t num_query_vertices, int64_t matched_total, const int64_t *distinct,
    const int64_t *starts, const int64_t *ends, int64_t num_distinct,
    const int64_t *row_order, const int64_t *thresholds, int64_t max_candidates,
    const int64_t *codes_sorted, const int64_t *permutation, int64_t num_postings,
    int64_t stride, const int32_t *positions, const int32_t *counts,
    const int64_t *key_ids, const int64_t *query_counts, int64_t num_keys,
    int64_t *out_positions, int64_t *out_intersections, uint8_t *out_eligible) {
    int64_t num_eligible = 0;
    int64_t num_runs = 0;
    for (int64_t u = 0; u < num_distinct; ++u) {
        int64_t order = distinct[u];
        int64_t bound = MAX64(num_query_vertices, order) - MIN64(matched_total, order);
        if (bound <= thresholds[u]) {
            out_eligible[u] = 1;
            num_eligible += ends[u] - starts[u];
            ++num_runs;
        } else {
            out_eligible[u] = 0;
        }
    }
    if (num_eligible == 0 || num_eligible > max_candidates) {
        return num_eligible;
    }

    merge_run *heap = (merge_run *)malloc((size_t)num_runs * sizeof(merge_run));
    if (heap == NULL) {
        return -1;
    }
    int64_t size = 0;
    for (int64_t u = 0; u < num_distinct; ++u) {
        if (out_eligible[u] && starts[u] < ends[u]) {
            heap[size].value = row_order[starts[u]];
            heap[size].next = starts[u] + 1;
            heap[size].end = ends[u];
            ++size;
        }
    }
    for (int64_t i = size / 2 - 1; i >= 0; --i) {
        heap_sift_down(heap, size, i);
    }
    int64_t cursor = 0;
    while (size > 0) {
        out_positions[cursor++] = heap[0].value;
        if (heap[0].next < heap[0].end) {
            heap[0].value = row_order[heap[0].next++];
        } else {
            heap[0] = heap[size - 1];
            --size;
        }
        heap_sift_down(heap, size, 0);
    }
    free(heap);

    memset(out_intersections, 0, (size_t)num_eligible * sizeof(int64_t));
    for (int64_t ki = 0; ki < num_keys; ++ki) {
        int64_t base = key_ids[ki] * stride;
        int64_t qc = query_counts[ki];
        for (int64_t u = 0; u < num_distinct; ++u) {
            if (!out_eligible[u]) continue;
            int64_t code = base + distinct[u];
            int64_t lo = lower_bound_i64(codes_sorted, num_postings, code);
            for (; lo < num_postings && codes_sorted[lo] == code; ++lo) {
                int64_t slot = permutation[lo];
                int64_t row = positions[slot];
                int64_t col = lower_bound_i64(out_positions, num_eligible, row);
                if (col < num_eligible && out_positions[col] == row) {
                    out_intersections[col] += MIN64(qc, (int64_t)counts[slot]);
                }
            }
        }
    }
    return num_eligible;
}

/* ------------------------------------------------------------------ *
 * the write path: one compaction as one linear pass
 * ------------------------------------------------------------------ */

/* Merge the append buffer into a CSR snapshot and carry the derived indexes.
 *
 * Pending postings (key, row, count — arrival order, rows ascending and past
 * every old row) join the tail of their key's segment; an old segment moves
 * by the room the keys before it grew.  Outputs (caller-allocated):
 *   - offsets[num_keys + 1], positions/counts[old total + num_pending];
 *   - probe_codes (or NULL): key * probe_stride + position per posting slot;
 *   - codes/permutation (old_codes NULL: skipped): the (key, |V_row|) block
 *     index of the merged CSR.  The old index is walked once in sorted order —
 *     keys ascend along it, so the key of each entry, and with it the slot
 *     shift of its segment and its code under a grown stride, is tracked with
 *     no division — while the pending postings, visited through by_code
 *     (their stable order by pending_codes = key * stride + |V_row|), are
 *     merged in behind the old postings of their block.
 * cursor[num_keys] and pending_slots[num_pending] are scratch. */
void repro_merge_postings(
    const int64_t *old_offsets, const int32_t *old_positions,
    const int32_t *old_counts, int64_t old_num_keys, const int64_t *pending_keys,
    const int64_t *pending_positions, const int64_t *pending_counts,
    int64_t num_pending, int64_t num_keys, int64_t *offsets, int32_t *positions,
    int32_t *counts, int64_t *cursor, int64_t *pending_slots, int64_t probe_stride,
    int64_t *probe_codes, const int64_t *old_codes, const int64_t *old_permutation,
    int64_t old_stride, int64_t stride, const int64_t *pending_codes,
    const int64_t *by_code, int64_t *codes, int64_t *permutation) {
    memset(offsets, 0, (size_t)(num_keys + 1) * sizeof(int64_t));
    for (int64_t i = 0; i < num_pending; ++i) {
        ++offsets[pending_keys[i] + 1];
    }
    for (int64_t k = 0; k < num_keys; ++k) {
        int64_t old_length = k < old_num_keys ? old_offsets[k + 1] - old_offsets[k] : 0;
        offsets[k + 1] += offsets[k] + old_length;
        cursor[k] = offsets[k] + old_length;
        /* A plain loop rather than memcpy: one more imported symbol moves
         * every kernel above by a PLT slot, and the block-probe loops ran 3 %
         * slower at the new alignment. */
        int64_t from = old_length ? old_offsets[k] : 0;
        for (int64_t s = 0; s < old_length; ++s) {
            positions[offsets[k] + s] = old_positions[from + s];
            counts[offsets[k] + s] = old_counts[from + s];
        }
    }
    for (int64_t i = 0; i < num_pending; ++i) {
        int64_t slot = cursor[pending_keys[i]]++;
        positions[slot] = (int32_t)pending_positions[i];
        counts[slot] = (int32_t)pending_counts[i];
        pending_slots[i] = slot;
    }
    if (probe_codes != NULL) {
        for (int64_t k = 0; k < num_keys; ++k) {
            int64_t base = k * probe_stride;
            for (int64_t s = offsets[k]; s < offsets[k + 1]; ++s) {
                probe_codes[s] = base + positions[s];
            }
        }
    }
    if (old_codes == NULL) {
        return;
    }
    int64_t num_old = old_offsets[old_num_keys];
    int64_t rebase = stride - old_stride;
    int64_t key = 0, key_end = old_stride, shift = 0, lift = 0;
    int64_t i = 0, out = 0;
    for (int64_t j = 0; j <= num_pending; ++j) {
        /* Old entries up to (and equal to) the next pending code go first. */
        int64_t next = j < num_pending ? by_code[j] : -1;
        for (; i < num_old; ++i) {
            int64_t code = old_codes[i];
            if (code >= key_end) {
                do {
                    ++key;
                    key_end += old_stride;
                } while (code >= key_end);
                shift = offsets[key] - old_offsets[key];
                lift = key * rebase;
            }
            if (next >= 0 && code + lift > pending_codes[next]) break;
            codes[out] = code + lift;
            permutation[out++] = old_permutation[i] + shift;
        }
        if (next >= 0) {
            codes[out] = pending_codes[next];
            permutation[out++] = pending_slots[next];
        }
    }
}
