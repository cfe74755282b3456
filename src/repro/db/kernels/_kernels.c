/* Compiled kernels for the columnar (CSR) branch-postings hot path.
 *
 * Compiled on demand by repro/db/kernels/native.py with the system C
 * compiler and loaded through ctypes; repro/db/kernels/numpy_impl.py is the
 * behaviour-defining reference implementation.  Every function here must
 * return bit-identical results to its numpy twin — the hypothesis parity
 * suite (tests/test_execution_parity.py) drives both backends against the
 * scalar reference loop.
 *
 * Three kernels are exported: repro_intersection_row (the dense row of
 * |B_Q ∩ B_G|), repro_filter_verify_rows (both reducers, a batch of queries
 * per call) and repro_merge_postings (the write path's compaction).  The GBD
 * lower bound has no kernel of its own: the reducers apply it once per order
 * range.
 *
 * Data layout contract (enforced by the ctypes wrappers):
 *   - A row is addressed by its position in the clustered layout: rows lie in
 *     ascending |V_row|, by arrival within one order.  ``bounds`` (one slot
 *     per distinct order plus the row count) cuts the positions into ranges:
 *     the rows of order distinct[u] are bounds[u]..bounds[u + 1].
 *   - CSR ``offsets`` are int64, one slot per branch key plus a sentinel.
 *   - CSR ``positions`` (row of each posting) and ``counts`` (multiplicity)
 *     are int32 — the compact layout ColumnarBranchStore.compact() emits
 *     unless the store outgrows int32, in which case the wrappers fall back
 *     to the numpy backend instead of calling in here.
 *   - Within one key's CSR segment the postings are sorted by position and
 *     positions are unique, so the rows of one (key, |V_row|) pair are one
 *     contiguous slice of the segment.
 *   - Everything else (key ids, query counts, orders, bounds, ids, outputs)
 *     is int64, except posterior tables and scores, which are doubles.  A
 *     query's posterior table is ragged (repro.db.columnar.PosteriorTable):
 *     row e — an extended order max(|V_Q|, |V_G|) — starts at offsets[e]
 *     (-1: not filled); phi[offsets[e] + gbd] is Pr[GED <= tau | GBD = gbd]
 *     and best[offsets[e] + gbd] its suffix maximum over gbd..e.  A batch
 *     whose table lacks a row some query reads, or whose row would run past
 *     the table's cells, is refused before any query is reduced
 *     (table_covers): no table is read outside itself.
 *   - Output buffers are caller-allocated.  The one exported reducer,
 *     repro_filter_verify_rows, takes a batch of queries against one
 *     snapshot: the snapshot's arrays as one int64 block of addresses
 *     (SNAPSHOT_*), and the queries' scalars packed as one int64 row per
 *     query (the tables by address) plus one double γ each.  A row names
 *     its reducer: the γ threshold, whose hits are positions and GBDs, or
 *     the k best, whose hits are at most k graph ids and their scores, best
 *     first.  Every query's hits are appended to one buffer of the
 *     caller's capacity, one query after the other; the call writes where
 *     each query's hits end into its row and returns how many queries it
 *     finished: a query is started only while the buffer has room for as
 *     many hits as it can have (every row of the store for a γ query,
 *     min(k, rows) for a k-best one), so the caller resumes from there with
 *     the buffer emptied.
 *   - Both reducers accumulate intersections in private int32 buffers that
 *     live for one query (an entry a reducer reads is at most |B_Q|):
 *     threads share nothing.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MIN64(a, b) ((a) < (b) ? (a) : (b))
#define MAX64(a, b) ((a) > (b) ? (a) : (b))

int64_t repro_kernels_abi_version(void) { return 10; }

/* First slot in arr[0..n) not less than value (arr ascending). */
static int64_t lower_bound_i32(const int32_t *arr, int64_t n, int64_t value) {
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

/* Scatter-add the matched keys' postings of the rows of the ranges picked[r]
 * (ascending) into acc, ranges laid end to end.  Per key, each range is one
 * slice of the position-sorted segment, found by one binary search from where
 * the slice of the range before it ended: no other row's postings are read. */
static void ranges_walk(const int64_t *offsets, const int32_t *positions,
                        const int32_t *counts, const int64_t *key_ids,
                        const int64_t *query_counts, int64_t num_keys,
                        const int64_t *bounds, const int64_t *picked, int64_t num_picked,
                        int32_t *acc) {
    for (int64_t ki = 0; ki < num_keys; ++ki) {
        int32_t qc = (int32_t)MIN64(query_counts[ki], INT32_MAX);
        int64_t s = offsets[key_ids[ki]];
        int64_t end = offsets[key_ids[ki] + 1];
        int32_t *column = acc;
        for (int64_t r = 0; r < num_picked && s < end; ++r) {
            int64_t first = bounds[picked[r]];
            int64_t last = bounds[picked[r] + 1];
            s += lower_bound_i32(positions + s, end - s, first);
            for (; s < end && positions[s] < last; ++s) {
                int32_t count = counts[s];
                column[positions[s] - first] += count < qc ? count : qc;
            }
            column += last - first;
        }
    }
}

/* A fresh all-zero int32 accumulator (NULL: out of memory); the caller frees it. */
static int32_t *zeroed_accumulator(int64_t num_rows) {
    return (int32_t *)calloc((size_t)MAX64(num_rows, 1), sizeof(int32_t));
}

/* A query's posterior table: row e starts at offsets[e] in phi (Φ) and in
 * best (M, Φ's suffix maximum, non-increasing). */
typedef struct {
    const int64_t *offsets;
    const double *phi;
    const double *best;
} posterior_table;

/* Hits among rows from..to of a range (see reduce_range). */
static int64_t reduce_rows(const int32_t *acc, int64_t from, int64_t to, int64_t first,
                           int64_t order, int32_t fewest, const double *row_of, double gamma,
                           int64_t *out_positions, int64_t *out_gbds, int64_t num_hits) {
    for (int64_t i = from; i < to; ++i) {
        if (acc[i] < fewest) continue;
        int64_t gbd = order - acc[i];
        if (row_of[gbd] >= gamma) {
            out_positions[num_hits] = first + i;
            out_gbds[num_hits++] = gbd;
        }
    }
    return num_hits;
}

/* The largest GBD in 0..order whose posterior reaches gamma, or -1: the
 * last slot of the non-increasing best_of that does, by binary search. */
static int64_t largest_accepting(const double *best_of, int64_t order, double gamma) {
    int64_t lo = 0, hi = order + 1; /* best_of[ϕ] >= gamma below lo, not from hi on */
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (best_of[mid] >= gamma) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    return lo - 1;
}

/* The hits among the `size` rows of one range, whose first row is position
 * `first` and whose extended order is `order`: row i is one when
 * Φ(gbd) >= gamma at its GBD order - acc[i] — Step 4's own comparison of
 * doubles.  The order is constant over the range, so the largest accepting
 * GBD is found once, and a row sharing fewer branches than order minus that
 * GBD cannot be a hit: most rows are, and blocks of 16 of them are dismissed
 * by one test the compiler vectorises.  Appends to out_positions / out_gbds
 * from slot num_hits on; returns the new hit count. */
static int64_t reduce_range(const int32_t *acc, int64_t first, int64_t size,
                            int64_t order, posterior_table table, double gamma,
                            int64_t *out_positions, int64_t *out_gbds, int64_t num_hits) {
    const double *row_of = table.phi + table.offsets[order];
    int64_t largest = largest_accepting(table.best + table.offsets[order], order, gamma);
    if (largest < 0) return num_hits;
    int32_t fewest = (int32_t)(order - largest);
    int64_t block = 0;
    for (; block + 16 <= size; block += 16) {
        int32_t any = 0;
        for (int64_t i = block; i < block + 16; ++i) any |= acc[i] >= fewest;
        if (any) {
            num_hits = reduce_rows(acc, block, block + 16, first, order, fewest, row_of, gamma,
                                   out_positions, out_gbds, num_hits);
        }
    }
    return reduce_rows(acc, block, size, first, order, fewest, row_of, gamma, out_positions,
                       out_gbds, num_hits);
}

/* Single-pass filter, verify and threshold reduce for one query:
 *   1. per distinct |V_G| (range u), the range is eligible when M >= gamma at
 *      its GBD lower bound: some GBD it can reach is accepted (out_eligible
 *      is always filled; ineligible ranges' rows are never touched again on
 *      the sparse plan);
 *   2. no eligible row: nothing else happens;
 *   3. at most max_candidates eligible rows (the sparse plan): the eligible
 *      ranges' intersections are accumulated from the slices of the matched
 *      segments — postings of pruned rows are never read;
 *      more (the dense plan): the matched keys' segments are scatter-added
 *      into a private accumulator, every row verified;
 *   4. each verified range is reduced with its order held constant
 *      (reduce_range); the hits' positions (ascending) and GBDs are
 *      compacted into out_positions / out_gbds, their number written to
 *      *out_num_hits.
 * Returns the eligible row count, or -1 on allocation failure.
 * out_positions / out_gbds must hold as many slots as there are rows. */
static int64_t filter_verify_one(
    int64_t num_query_vertices, int64_t matched_total, const int64_t *distinct,
    const int64_t *bounds, int64_t num_distinct, int64_t max_candidates,
    const int64_t *offsets, const int32_t *positions, const int32_t *counts,
    const int64_t *key_ids, const int64_t *query_counts, int64_t num_keys,
    posterior_table table, double gamma, int64_t *out_positions, int64_t *out_gbds,
    uint8_t *out_eligible, int64_t *out_num_hits) {
    int64_t num_eligible = 0, num_picked = 0, num_hits = 0;
    *out_num_hits = 0;
    for (int64_t u = 0; u < num_distinct; ++u) {
        int64_t order = MAX64(num_query_vertices, distinct[u]);
        int64_t bound = order - MIN64(matched_total, distinct[u]);
        out_eligible[u] = table.best[table.offsets[order] + bound] >= gamma;
        if (out_eligible[u]) {
            num_eligible += bounds[u + 1] - bounds[u];
            ++num_picked;
        }
    }
    if (num_eligible == 0) {
        return 0;
    }

    if (num_eligible > max_candidates) {
        int32_t *acc = zeroed_accumulator(bounds[num_distinct]);
        if (acc == NULL) {
            return -1;
        }
        dense_walk(offsets, positions, counts, key_ids, query_counts, num_keys, acc);
        for (int64_t u = 0; u < num_distinct; ++u) {
            num_hits = reduce_range(acc + bounds[u], bounds[u], bounds[u + 1] - bounds[u],
                                    MAX64(num_query_vertices, distinct[u]), table, gamma,
                                    out_positions, out_gbds, num_hits);
        }
        free(acc);
        *out_num_hits = num_hits;
        return num_eligible;
    }

    int64_t *picked = (int64_t *)malloc((size_t)num_picked * sizeof(int64_t));
    int32_t *acc = zeroed_accumulator(num_eligible);
    if (picked == NULL || acc == NULL) {
        free(picked);
        free(acc);
        return -1;
    }
    for (int64_t u = 0, r = 0; u < num_distinct; ++u) {
        if (out_eligible[u]) picked[r++] = u;
    }
    ranges_walk(offsets, positions, counts, key_ids, query_counts, num_keys, bounds, picked,
                num_picked, acc);
    const int32_t *column = acc;
    for (int64_t r = 0; r < num_picked; ++r) {
        int64_t u = picked[r];
        int64_t size = bounds[u + 1] - bounds[u];
        num_hits = reduce_range(column, bounds[u], size, MAX64(num_query_vertices, distinct[u]),
                                table, gamma, out_positions, out_gbds, num_hits);
        column += size;
    }
    free(picked);
    free(acc);
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

/* The k-best reducer for one query — bound, ordered candidates, verify,
 * reduce:
 *   1. per distinct |V_G| (range u): extended order e = max(|V_Q|, |V_G|), GBD
 *      lower bound b = e - min(matched_total, |V_G|), posterior upper bound
 *      M(b) of row e.  Groups with a positive bound are
 *      ranked in; a zero bound settles the score at 0.0;
 *   2. ranked-in groups are visited by descending bound and the visit ends at
 *      the first whose bound is strictly below the k-th best score so far;
 *   3. a visited group's rows (positions bounds[u]..bounds[u + 1]) are
 *      verified from the group's slices of the matched segments, into a fresh
 *      stretch of a probe accumulator of max_candidates slots, until the rows
 *      verified so far plus the next group exceed max_candidates: from there
 *      the matched keys' whole segments are walked once into a dense
 *      accumulator the groups that follow read as it is;
 *   4. a verified row is scored Φ(e - |B_Q ∩ B_G|) of row e and
 *      offered to the heap under (-score, graph id);
 *   5. a heap that is short or whose root scores 0.0 is filled from the
 *      zero-bound groups, smallest graph ids first.
 * out_ids / out_scores (min(k, rows) slots) hold the heap of graph ids and
 * scores, ranked in place at the end: best first.  out_visited[u] says whether
 * group u was verified, *out_verified how many rows were, *out_dense whether
 * the dense walk ran.  Returns the number of entries, or -1 on allocation
 * failure. */
static int64_t k_best_one(
    int64_t num_query_vertices, int64_t matched_total, const int64_t *distinct,
    const int64_t *bounds, int64_t num_distinct, int64_t max_candidates,
    const int64_t *offsets, const int32_t *positions, const int32_t *counts,
    const int64_t *key_ids, const int64_t *query_counts, int64_t num_keys,
    const int64_t *global_ids, posterior_table table, int64_t k, int64_t *out_ids,
    double *out_scores, uint8_t *out_visited, int64_t *out_verified, int64_t *out_dense) {
    int64_t num_rows = bounds[num_distinct];
    group_bound *reach =
        (group_bound *)malloc((size_t)MAX64(num_distinct, 1) * sizeof(group_bound));
    int32_t *probe = zeroed_accumulator(MIN64(max_candidates, num_rows));
    int32_t *acc = NULL;
    if (reach == NULL || probe == NULL) {
        free(reach);
        free(probe);
        return -1;
    }
    /* Ranked-in groups fill reach from the front (the heap), zero-bound groups
     * from the back: the heap only shrinks, so the two never meet. */
    int64_t in_reach = 0, settled = num_distinct;
    for (int64_t u = 0; u < num_distinct; ++u) {
        int64_t order = MAX64(num_query_vertices, distinct[u]);
        int64_t lower = order - MIN64(matched_total, distinct[u]);
        double bound = table.best[table.offsets[order] + lower];
        out_visited[u] = 0;
        if (bound > 0.0) {
            reach[in_reach].bound = bound;
            reach[in_reach++].group = u;
        } else {
            reach[--settled].group = u;
        }
    }
    for (int64_t i = in_reach / 2 - 1; i >= 0; --i) {
        next_group_sift_down(reach, in_reach, i);
    }

    int64_t size = 0, verified = 0;
    while (in_reach > 0 && !(size == k && reach[0].bound < out_scores[0])) {
        int64_t u = reach[0].group;
        reach[0] = reach[--in_reach];
        next_group_sift_down(reach, in_reach, 0);
        int64_t first = bounds[u], rows = bounds[u + 1] - first;
        if (acc == NULL && verified + rows > max_candidates) {
            acc = zeroed_accumulator(num_rows);
            if (acc == NULL) {
                free(reach);
                free(probe);
                return -1;
            }
            dense_walk(offsets, positions, counts, key_ids, query_counts, num_keys, acc);
        }
        const int32_t *shared;
        if (acc != NULL) {
            shared = acc + first;
        } else {
            shared = probe + verified;
            ranges_walk(offsets, positions, counts, key_ids, query_counts, num_keys, bounds, &u,
                        1, probe + verified);
        }
        verified += rows;
        out_visited[u] = 1;
        int64_t order = MAX64(num_query_vertices, distinct[u]);
        const double *row_of = table.phi + table.offsets[order];
        for (int64_t i = 0; i < rows; ++i) {
            size = offer_to_heap(out_ids, out_scores, size, k, global_ids[first + i],
                                 row_of[order - shared[i]]);
        }
    }
    *out_dense = acc != NULL;
    free(acc);
    free(probe);

    if (size < k || out_scores[0] <= 0.0) {
        for (; settled < num_distinct; ++settled) {
            int64_t u = reach[settled].group;
            for (int64_t row = bounds[u]; row < bounds[u + 1]; ++row) {
                size = offer_to_heap(out_ids, out_scores, size, k, global_ids[row], 0.0);
            }
        }
    }
    free(reach);
    /* Rank the heap in place, best first: the root ranks last of the entries
     * still in the heap, so it moves behind them and the heap shrinks. */
    for (int64_t end = size - 1; end > 0; --end) {
        int64_t id = out_ids[0];
        double score = out_scores[0];
        out_ids[0] = out_ids[end];
        out_scores[0] = out_scores[end];
        out_ids[end] = id;
        out_scores[end] = score;
        last_ranked_sift_down(out_ids, out_scores, end, 0);
    }
    *out_verified = verified;
    return size;
}

/* The slots of a snapshot's argument block (repro.db.columnar._Snapshot.arguments),
 * built once per snapshot: the addresses of its arrays and its range count. */
enum {
    SNAPSHOT_DISTINCT,     /* int64: the distinct orders, ascending */
    SNAPSHOT_BOUNDS,       /* int64: where each order's range starts, plus the row count */
    SNAPSHOT_OFFSETS,      /* int64: the CSR row pointers */
    SNAPSHOT_POSITIONS,    /* int32: the CSR positions */
    SNAPSHOT_COUNTS,       /* int32: the CSR counts */
    SNAPSHOT_GLOBAL_IDS,   /* int64: position -> graph id */
    SNAPSHOT_NUM_DISTINCT, /* how many distinct orders */
    SNAPSHOT_FIELDS
};

/* The slots of one query's row in the table of repro_filter_verify_rows. */
enum {
    ROW_QUERY_VERTICES, /* |V_Q| */
    ROW_MATCHED_TOTAL,  /* Σ_k min(q_k, cap_k): the bound's intersection ceiling */
    ROW_MAX_CANDIDATES, /* the most rows verified by range slices */
    ROW_FIRST_KEY,      /* the query's matched keys: key_ids / query_counts */
    ROW_NUM_KEYS,       /*   from ROW_FIRST_KEY on, ROW_NUM_KEYS of them */
    ROW_OFFSETS,        /* the posterior table: address of its row offsets ... */
    ROW_NUM_OFFSETS,    /*   and how many there are, */
    ROW_PHI,            /*   the address of its Φ cells, */
    ROW_BEST,           /*   of its M cells, */
    ROW_CELLS,          /*   and how many cells each holds */
    ROW_K,              /* the reducer: 0 the γ threshold (gammas[r]), k >= 1 the k best */
    ROW_VERIFIED,       /* out: rows verified, or -1 on allocation failure */
    ROW_DENSE,          /* out: whether the dense walk ran */
    ROW_HITS_END,       /* out: the slot after the query's last hit */
    ROW_FIELDS
};

/* Whether the table of a query's row holds, inside its cells, every row the
 * query reads: that of each extended order max(|V_Q|, distinct[u]). */
static int table_covers(const int64_t *row, const int64_t *distinct, int64_t num_distinct) {
    const int64_t *offsets = (const int64_t *)(intptr_t)row[ROW_OFFSETS];
    for (int64_t u = 0; u < num_distinct; ++u) {
        int64_t order = MAX64(row[ROW_QUERY_VERTICES], distinct[u]);
        if (order >= row[ROW_NUM_OFFSETS]) return 0;
        int64_t start = offsets[order];
        if (start < 0 || start >= row[ROW_CELLS] - order) return 0;
    }
    return 1;
}

/* The reducers for the queries first..num_rows of one batch, against one
 * snapshot, whose arrays the block `snapshot` names (SNAPSHOT_FIELDS slots).
 * Query r's scalars are row r of the int64 table `rows` (ROW_FIELDS slots
 * each, its posterior table by address) and gammas[r]; ROW_K picks its
 * reducer:
 *   - 0, the γ threshold (filter_verify_one): its hits are positions and GBDs,
 *     appended to out_positions / out_gbds, and out_eligible[r * num_distinct
 *     ..] flags the ranges the bound kept;
 *   - k >= 1, the k best (k_best_one): its hits are graph ids and scores,
 *     appended to out_positions / out_scores best first, and the flags say
 *     which ranges were verified.
 * First every query's table is checked (table_covers): when one's is short,
 * nothing is reduced and -1 - r is returned for the first such query r.
 * Hits are appended from slot 0 on, one query after the other, and
 * rows[r * ROW_FIELDS + ROW_HITS_END] says where query r's end.  A γ query can
 * hit every row of the store, a k-best one min(k, rows), so a query after the
 * first is started only while `capacity` leaves that many slots: returns the
 * first query not run (num_rows once all are), and the caller calls again
 * from there with an emptied buffer.  A query whose allocation failed has
 * ROW_VERIFIED = -1 and no hits (the wrapper answers it with the numpy
 * backend); the queries after it still run. */
int64_t repro_filter_verify_rows(
    const int64_t *snapshot, const int64_t *key_ids, const int64_t *query_counts,
    int64_t *rows, const double *gammas, int64_t first, int64_t num_rows, int64_t capacity,
    int64_t *out_positions, int64_t *out_gbds, double *out_scores, uint8_t *out_eligible) {
    const int64_t *distinct = (const int64_t *)(intptr_t)snapshot[SNAPSHOT_DISTINCT];
    const int64_t *bounds = (const int64_t *)(intptr_t)snapshot[SNAPSHOT_BOUNDS];
    int64_t num_distinct = snapshot[SNAPSHOT_NUM_DISTINCT];
    const int64_t *offsets = (const int64_t *)(intptr_t)snapshot[SNAPSHOT_OFFSETS];
    const int32_t *positions = (const int32_t *)(intptr_t)snapshot[SNAPSHOT_POSITIONS];
    const int32_t *counts = (const int32_t *)(intptr_t)snapshot[SNAPSHOT_COUNTS];
    const int64_t *global_ids = (const int64_t *)(intptr_t)snapshot[SNAPSHOT_GLOBAL_IDS];
    for (int64_t r = first; r < num_rows; ++r) {
        if (!table_covers(rows + r * ROW_FIELDS, distinct, num_distinct)) return -1 - r;
    }
    int64_t num_hits = 0, store_rows = bounds[num_distinct];
    for (int64_t r = first; r < num_rows; ++r) {
        int64_t *row = rows + r * ROW_FIELDS;
        int64_t k = row[ROW_K];
        if (r > first && capacity - num_hits < (k ? MIN64(k, store_rows) : store_rows)) return r;
        const int64_t *keys = key_ids + row[ROW_FIRST_KEY];
        const int64_t *keys_counts = query_counts + row[ROW_FIRST_KEY];
        posterior_table table = {
            (const int64_t *)(intptr_t)row[ROW_OFFSETS],
            (const double *)(intptr_t)row[ROW_PHI],
            (const double *)(intptr_t)row[ROW_BEST],
        };
        uint8_t *eligible = out_eligible + r * num_distinct;
        int64_t hits = 0;
        if (k) {
            hits = k_best_one(
                row[ROW_QUERY_VERTICES], row[ROW_MATCHED_TOTAL], distinct, bounds, num_distinct,
                row[ROW_MAX_CANDIDATES], offsets, positions, counts, keys, keys_counts,
                row[ROW_NUM_KEYS], global_ids, table, k, out_positions + num_hits,
                out_scores + num_hits, eligible, &row[ROW_VERIFIED], &row[ROW_DENSE]);
            if (hits < 0) {
                row[ROW_VERIFIED] = -1;
                hits = 0;
            }
        } else {
            int64_t num_eligible = filter_verify_one(
                row[ROW_QUERY_VERTICES], row[ROW_MATCHED_TOTAL], distinct, bounds, num_distinct,
                row[ROW_MAX_CANDIDATES], offsets, positions, counts, keys, keys_counts,
                row[ROW_NUM_KEYS], table, gammas[r], out_positions + num_hits,
                out_gbds + num_hits, eligible, &hits);
            row[ROW_DENSE] = num_eligible > row[ROW_MAX_CANDIDATES];
            row[ROW_VERIFIED] = num_eligible < 0 ? -1 : row[ROW_DENSE] ? store_rows : num_eligible;
        }
        num_hits += hits;
        row[ROW_HITS_END] = num_hits;
    }
    return num_rows;
}

/* ------------------------------------------------------------------ *
 * the write path: one compaction as one linear pass
 * ------------------------------------------------------------------ */

/* Merge the append buffer into a CSR snapshot whose rows were re-laid out.
 *
 * shift[p] is the new position of old position p (monotone: new rows are
 * interleaved into their order's range, old rows keep their relative order);
 * the pending postings (key, new position, count) come ascending in position.
 * They are counting-sorted by key into sorted_positions / sorted_counts
 * (stable, so each key's run stays ascending), then every key's old segment,
 * sent through shift, and its run are merged into the key's new segment — so
 * segments stay sorted by position.  Outputs (caller-allocated):
 * offsets[num_keys + 1], positions/counts[old total + num_pending].
 * cursor[num_keys + 1] and sorted_positions / sorted_counts[num_pending] are
 * scratch. */
void repro_merge_postings(
    const int64_t *old_offsets, const int32_t *old_positions,
    const int32_t *old_counts, int64_t old_num_keys, const int64_t *shift,
    const int64_t *pending_keys, const int64_t *pending_positions,
    const int64_t *pending_counts, int64_t num_pending, int64_t num_keys,
    int64_t *offsets, int32_t *positions, int32_t *counts, int64_t *cursor,
    int32_t *sorted_positions, int32_t *sorted_counts) {
    memset(cursor, 0, (size_t)(num_keys + 1) * sizeof(int64_t));
    for (int64_t i = 0; i < num_pending; ++i) {
        ++cursor[pending_keys[i] + 1];
    }
    offsets[0] = 0;
    for (int64_t k = 0; k < num_keys; ++k) {
        int64_t old_length = k < old_num_keys ? old_offsets[k + 1] - old_offsets[k] : 0;
        offsets[k + 1] = offsets[k] + old_length + cursor[k + 1];
        cursor[k + 1] += cursor[k];
    }
    /* cursor[k] is where key k's run starts; placing a posting advances it,
     * so afterwards the run of key k ends at cursor[k]. */
    for (int64_t i = 0; i < num_pending; ++i) {
        int64_t slot = cursor[pending_keys[i]]++;
        sorted_positions[slot] = (int32_t)pending_positions[i];
        sorted_counts[slot] = (int32_t)pending_counts[i];
    }
    for (int64_t k = 0; k < num_keys; ++k) {
        int64_t a = k < old_num_keys ? old_offsets[k] : 0;
        int64_t a_end = k < old_num_keys ? old_offsets[k + 1] : 0;
        int64_t b = k ? cursor[k - 1] : 0, b_end = cursor[k];
        int64_t out = offsets[k];
        /* Plain loops rather than memcpy: one more imported symbol moves every
         * kernel above by a PLT slot, and the walks ran 3 % slower at the new
         * alignment. */
        while (a < a_end && b < b_end) {
            int64_t moved = shift[old_positions[a]];
            if (moved < sorted_positions[b]) {
                positions[out] = (int32_t)moved;
                counts[out++] = old_counts[a++];
            } else {
                positions[out] = sorted_positions[b];
                counts[out++] = sorted_counts[b++];
            }
        }
        for (; a < a_end; ++a) {
            positions[out] = (int32_t)shift[old_positions[a]];
            counts[out++] = old_counts[a];
        }
        for (; b < b_end; ++b) {
            positions[out] = sorted_positions[b];
            counts[out++] = sorted_counts[b];
        }
    }
}
