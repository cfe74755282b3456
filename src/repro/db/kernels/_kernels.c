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
 *     permutations, outputs) is int64, except posterior tables and scores,
 *     which are doubles: ``lut[order * lut_width + gbd]`` is
 *     Pr[GED <= tau | GBD = gbd] at extended order ``order`` (row-major, every
 *     order a query can meet covered — checked by the store before the call).
 *   - Output buffers are caller-allocated; intersection outputs must be
 *     zero-initialised unless noted otherwise.  The two reducers accumulate
 *     intersections in a private int32 buffer, one slot per row (an entry a
 *     reducer reads is at most |B_Q|), that lives for one call: threads share
 *     nothing.
 *   - Within one key's CSR segment the postings are sorted by row position
 *     and rows are unique.
 *   - The (key, |V_row|) block index (``codes_sorted`` = key * stride + order,
 *     ascending, ``permutation`` back to posting slots) lists the postings of
 *     key k in its slots offsets[k]..offsets[k + 1], like the CSR itself.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MIN64(a, b) ((a) < (b) ? (a) : (b))
#define MAX64(a, b) ((a) > (b) ? (a) : (b))

int64_t repro_kernels_abi_version(void) { return 3; }

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
 * fused filter → verify → reduce
 * ------------------------------------------------------------------ */

/* Scatter-add the matched keys' posting segments into acc (one slot per row). */
static void dense_walk(const int64_t *offsets, const int32_t *positions,
                       const int32_t *counts, const int64_t *key_ids,
                       const int64_t *query_counts, int64_t num_keys, int32_t *acc) {
    for (int64_t ki = 0; ki < num_keys; ++ki) {
        /* The minimum is taken in 32 bits: narrowed from a 64-bit one it
         * compiles to a branch (gcc 12, -O3) that real multiplicities
         * mispredict half the time — four times the whole walk. */
        int32_t qc = (int32_t)MIN64(query_counts[ki], INT32_MAX);
        int64_t end = offsets[key_ids[ki] + 1];
        for (int64_t s = offsets[key_ids[ki]]; s < end; ++s) {
            int32_t count = counts[s];
            acc[positions[s]] += count < qc ? count : qc;
        }
    }
}

/* A fresh all-zero int32 accumulator (NULL: out of memory); the caller frees it. */
static int32_t *zeroed_accumulator(int64_t num_rows) {
    return (int32_t *)calloc((size_t)MAX64(num_rows, 1), sizeof(int32_t));
}

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

/* Single-pass filter, verify and threshold reduce for one query:
 *   1. per distinct |V_G|, the GBD lower bound is compared against the
 *      caller's max-acceptable-GBD threshold (out_eligible is always
 *      filled; ineligible orders' rows are never touched again on the sparse
 *      plan);
 *   2. no eligible row: nothing else happens;
 *   3. at most max_candidates eligible rows (the sparse plan): the eligible
 *      orders' row runs (row_order[starts[u]:ends[u]], each ascending) are
 *      heap-merged into out_positions (sorted) and the survivors'
 *      intersections accumulated via the (key, order) block index — postings
 *      of pruned rows are never read;
 *      more (the dense plan): the matched keys' segments are scatter-added
 *      into a private accumulator, every row verified;
 *   4. each verified row is a hit when
 *          gbd = max(|V_Q|, |V_G|) - |B_Q ∩ B_G| <= max_gbd
 *          && lut[order * lut_width + gbd] >= gamma
 *      — Step 4's own comparison of doubles — and the hits' store positions
 *      (ascending) and GBDs are compacted into out_positions / out_gbds, their
 *      number written to *out_num_hits.
 * Returns the eligible row count, or -1 on allocation failure (the wrapper
 * then falls back to the numpy backend).  out_positions / out_gbds must hold
 * num_rows slots. */
int64_t repro_filter_verify_row(
    int64_t num_query_vertices, int64_t matched_total, const int64_t *distinct,
    const int64_t *starts, const int64_t *ends, int64_t num_distinct,
    const int64_t *row_order, const int64_t *thresholds, int64_t max_candidates,
    const int64_t *codes_sorted, const int64_t *permutation, int64_t num_postings,
    int64_t stride, const int64_t *offsets, const int32_t *positions,
    const int32_t *counts, const int64_t *key_ids, const int64_t *query_counts,
    int64_t num_keys, const int64_t *orders, int64_t num_rows, const double *lut,
    int64_t lut_width, double gamma, int64_t max_gbd, int64_t *out_positions,
    int64_t *out_gbds, uint8_t *out_eligible, int64_t *out_num_hits) {
    int64_t num_eligible = 0;
    int64_t num_runs = 0;
    int64_t num_hits = 0;
    *out_num_hits = 0;
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
    if (num_eligible == 0) {
        return 0;
    }

    if (num_eligible > max_candidates) {
        int32_t *acc = zeroed_accumulator(num_rows);
        if (acc == NULL) {
            return -1;
        }
        dense_walk(offsets, positions, counts, key_ids, query_counts, num_keys, acc);
        /* The fewest shared branches any hit can have: a row of extended
         * order e is one only if lut[e, g] >= gamma for its GBD g = e - acc, so
         * acc >= e - (largest accepting g within the cap), minimised over the
         * orders present.  Most rows fail that one comparison.  Read off the
         * table, not off thresholds: this plan's hits are the rows the table
         * accepts, whatever bars the caller filters with. */
        int64_t fewest = INT64_MAX;
        for (int64_t u = 0; u < num_distinct; ++u) {
            int64_t order = MAX64(num_query_vertices, distinct[u]);
            const double *row_of = lut + order * lut_width;
            for (int64_t gbd = MIN64(order, max_gbd); gbd >= 0; --gbd) {
                if (row_of[gbd] >= gamma) {
                    fewest = MIN64(fewest, order - gbd);
                    break;
                }
            }
        }
        for (int64_t row = 0; row < num_rows; ++row) {
            if (acc[row] < fewest) continue;
            int64_t order = MAX64(num_query_vertices, orders[row]);
            int64_t gbd = order - acc[row];
            if (gbd <= max_gbd && lut[order * lut_width + gbd] >= gamma) {
                out_positions[num_hits] = row;
                out_gbds[num_hits++] = gbd;
            }
        }
        free(acc);
        *out_num_hits = num_hits;
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

    /* out_gbds holds the survivors' intersections until the reduce below. */
    memset(out_gbds, 0, (size_t)num_eligible * sizeof(int64_t));
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
                    out_gbds[col] += MIN64(qc, (int64_t)counts[slot]);
                }
            }
        }
    }
    for (int64_t col = 0; col < num_eligible; ++col) {
        int64_t row = out_positions[col];
        int64_t order = MAX64(num_query_vertices, orders[row]);
        int64_t gbd = order - out_gbds[col];
        if (gbd <= max_gbd && lut[order * lut_width + gbd] >= gamma) {
            out_positions[num_hits] = row;
            out_gbds[num_hits++] = gbd;
        }
    }
    *out_num_hits = num_hits;
    return num_eligible;
}

/* Whether (score a, id a) ranks after (score b, id b) under (-score, id). */
static int ranks_after(double score_a, int64_t id_a, double score_b, int64_t id_b) {
    return score_a < score_b || (score_a == score_b && id_a > id_b);
}

/* Restore, from slot i down, the heap whose root ranks last of its entries. */
static void last_ranked_sift_down(int64_t *ids, double *scores, int64_t size, int64_t i) {
    for (;;) {
        int64_t left = 2 * i + 1;
        int64_t right = left + 1;
        int64_t last = i;
        if (left < size && ranks_after(scores[left], ids[left], scores[last], ids[last]))
            last = left;
        if (right < size && ranks_after(scores[right], ids[right], scores[last], ids[last]))
            last = right;
        if (last == i) break;
        int64_t id = ids[i];
        double score = scores[i];
        ids[i] = ids[last];
        scores[i] = scores[last];
        ids[last] = id;
        scores[last] = score;
        i = last;
    }
}

/* Offer (id, score) to the heap of at most k entries whose root ranks last
 * under (-score, id); returns the new size. */
static int64_t offer_to_heap(int64_t *ids, double *scores, int64_t size, int64_t k,
                             int64_t id, double score) {
    if (size < k) {
        /* sift up: a child that ranks after its parent moves towards the root */
        int64_t slot = size;
        while (slot > 0) {
            int64_t parent = (slot - 1) / 2;
            if (!ranks_after(score, id, scores[parent], ids[parent])) break;
            ids[slot] = ids[parent];
            scores[slot] = scores[parent];
            slot = parent;
        }
        ids[slot] = id;
        scores[slot] = score;
        return size + 1;
    }
    if (ranks_after(scores[0], ids[0], score, id)) {
        ids[0] = id;
        scores[0] = score;
        last_ranked_sift_down(ids, scores, size, 0);
    }
    return size;
}

/* An order group in reach of the ranking and the posterior upper bound its
 * rows share; groups are visited by descending bound, then ascending slot. */
typedef struct {
    double bound;
    int64_t group;
} group_bound;

static int visited_before(group_bound a, group_bound b) {
    return a.bound > b.bound || (a.bound == b.bound && a.group < b.group);
}

static void next_group_sift_down(group_bound *heap, int64_t size, int64_t i) {
    for (;;) {
        int64_t left = 2 * i + 1;
        int64_t right = left + 1;
        int64_t first = i;
        if (left < size && visited_before(heap[left], heap[first])) first = left;
        if (right < size && visited_before(heap[right], heap[first])) first = right;
        if (first == i) break;
        group_bound tmp = heap[i];
        heap[i] = heap[first];
        heap[first] = tmp;
        i = first;
    }
}

/* The whole k-best reducer for one query — bound, ordered candidates, verify,
 * reduce:
 *   1. per distinct |V_G| (slot u): extended order e = max(|V_Q|, |V_G|), GBD
 *      lower bound b = e - min(matched_total, |V_G|), posterior upper bound
 *      bound_lut[e * bound_width + b].  With the branch-bound cap (max_gbd <
 *      INT64_MAX) the groups with b <= max_gbd are ranked in; without it those
 *      with a positive bound — a zero bound settles the score at 0.0;
 *   2. ranked-in groups are visited by descending bound and the visit ends at
 *      the first whose bound is strictly below the k-th best score so far;
 *   3. a visited group's rows (row_order[starts[u]:ends[u]]) are verified by
 *      scatter-adding the group's (key, |V_G|) blocks into a private
 *      accumulator, until the rows verified so far plus the next group exceed
 *      max_candidates: from there the matched keys' whole segments are walked
 *      once (rows of groups already visited take a second helping nobody
 *      reads) and the groups that follow read the accumulator as it is;
 *   4. a verified row with gbd = e - |B_Q ∩ B_G| <= max_gbd is scored
 *      lut[e * lut_width + gbd] and offered to the heap under (-score, id);
 *   5. without the cap, a heap that is short or whose root scores 0.0 is filled
 *      from the zero-bound groups, smallest graph ids first.
 * out_ids / out_scores (k slots, k <= num_rows) are the heap, left in heap
 * order: the caller ranks once, at the end.  out_plan[0] is the number of rows
 * verified, out_plan[1] whether the dense walk ran.  Returns the number of
 * entries, or -1 on allocation failure (the wrapper then falls back to the
 * numpy backend). */
int64_t repro_filter_verify_topk(
    int64_t num_query_vertices, int64_t matched_total, const int64_t *distinct,
    const int64_t *starts, const int64_t *ends, int64_t num_distinct,
    const int64_t *row_order, int64_t max_candidates, const int64_t *codes_sorted,
    const int64_t *permutation, int64_t stride, const int64_t *offsets,
    const int32_t *positions, const int32_t *counts, const int64_t *key_ids,
    const int64_t *query_counts, int64_t num_keys, const int64_t *global_ids,
    int64_t num_rows, const double *lut, int64_t lut_width, const double *bound_lut,
    int64_t bound_width, int64_t max_gbd, int64_t k, int64_t *out_ids,
    double *out_scores, int64_t *out_plan) {
    int capped = max_gbd != INT64_MAX;
    group_bound *reach =
        (group_bound *)malloc((size_t)MAX64(num_distinct, 1) * sizeof(group_bound));
    int32_t *acc = zeroed_accumulator(num_rows);
    if (reach == NULL || acc == NULL) {
        free(reach);
        free(acc);
        return -1;
    }
    /* Ranked-in groups fill reach from the front (the heap), zero-bound groups
     * from the back: the heap only shrinks, so the two never meet. */
    int64_t in_reach = 0, settled = num_distinct;
    for (int64_t u = 0; u < num_distinct; ++u) {
        int64_t order = MAX64(num_query_vertices, distinct[u]);
        int64_t lower = order - MIN64(matched_total, distinct[u]);
        double bound = bound_lut[order * bound_width + lower];
        if (capped ? lower <= max_gbd : bound > 0.0) {
            reach[in_reach].bound = bound;
            reach[in_reach++].group = u;
        } else if (!capped) {
            reach[--settled].group = u;
        }
    }
    for (int64_t i = in_reach / 2 - 1; i >= 0; --i) {
        next_group_sift_down(reach, in_reach, i);
    }

    int64_t size = 0, verified = 0;
    int dense = 0;
    while (in_reach > 0 && !(size == k && reach[0].bound < out_scores[0])) {
        int64_t u = reach[0].group;
        reach[0] = reach[--in_reach];
        next_group_sift_down(reach, in_reach, 0);
        if (!dense && verified + ends[u] - starts[u] > max_candidates) {
            dense_walk(offsets, positions, counts, key_ids, query_counts, num_keys, acc);
            dense = 1;
        }
        if (!dense) {
            for (int64_t ki = 0; ki < num_keys; ++ki) {
                int64_t key = key_ids[ki];
                int64_t code = key * stride + distinct[u];
                int64_t key_end = offsets[key + 1];
                int32_t qc = (int32_t)MIN64(query_counts[ki], INT32_MAX);
                int64_t lo = offsets[key] + lower_bound_i64(codes_sorted + offsets[key],
                                                            key_end - offsets[key], code);
                for (; lo < key_end && codes_sorted[lo] == code; ++lo) {
                    int64_t slot = permutation[lo];
                    int32_t count = counts[slot];
                    acc[positions[slot]] += count < qc ? count : qc;
                }
            }
        }
        verified += ends[u] - starts[u];
        int64_t order = MAX64(num_query_vertices, distinct[u]);
        const double *row_of = lut + order * lut_width;
        for (int64_t i = starts[u]; i < ends[u]; ++i) {
            int64_t row = row_order[i];
            int64_t gbd = order - acc[row];
            if (gbd > max_gbd) continue;
            size = offer_to_heap(out_ids, out_scores, size, k, global_ids[row], row_of[gbd]);
        }
    }
    free(acc);

    if (size < k || out_scores[0] <= 0.0) {
        for (; settled < num_distinct; ++settled) {
            int64_t u = reach[settled].group;
            for (int64_t i = starts[u]; i < ends[u]; ++i) {
                size = offer_to_heap(out_ids, out_scores, size, k, global_ids[row_order[i]], 0.0);
            }
        }
    }
    free(reach);
    out_plan[0] = verified;
    out_plan[1] = dense;
    return size;
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
    int32_t *counts, int64_t *cursor, int64_t *pending_slots, const int64_t *old_codes,
    const int64_t *old_permutation, int64_t old_stride, int64_t stride,
    const int64_t *pending_codes, const int64_t *by_code, int64_t *codes,
    int64_t *permutation) {
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
