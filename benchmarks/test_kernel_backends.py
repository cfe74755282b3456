"""Per-kernel A/B microbenchmark: numpy vs native, fused vs unfused.

Times each CSR kernel of the columnar branch store under every available
backend on one identical store + query stream, and prices the headline
fusion win — the single-pass ``filter_verify_rows`` (bound filter → verify →
γ threshold, hits out), one query per call, against the unfused pipeline it
replaced: one dense ``intersection_row`` and the NumPy reduce over its ``D``
cells (GBD, posterior lookup, comparison with γ, ``flatnonzero``).  Beside it
``filter_verify_rows_32`` prices the same reducer handed 32 queries per call
(the serving engine's flush), per query, and ``filter_verify_rows_topk`` /
``filter_verify_rows_topk_32`` the same reducer's k-best rows (bound order →
verify → k-best heap with the order-group cut, ``k`` = 10), one query per
call and 32 per call, per query.  The write path's one kernel,
``merge_postings``, is timed through its only caller: one
``ColumnarBranchStore.compact`` of a batch of appended graphs, interleaved
into the store's ``|V_G|``-clustered layout.

Asserts only *correctness* (both backends bit-identical per kernel); the
timing ratios are recorded in ``results/BENCH_kernels.json`` for the
serving-level acceptance bar rather than asserted here, because per-call
microbenchmark noise on a shared box easily exceeds the effect size.
``REPRO_SMOKE=1`` shrinks the store for CI.
"""

from __future__ import annotations

import json
import os
import random
import time

import numpy as np
import pytest

from repro.core.branches import branch_multiset
from repro.db.columnar import ColumnarBranchStore, PosteriorTable, TopK
from repro.db.kernels import available_backends, native_load_error
from repro.graphs.generators import random_labeled_graph

SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")

DATABASE_SIZE = 300 if SMOKE else 4_000
MAX_ORDER = 40 if SMOKE else 80
NUM_QUERIES = 8 if SMOKE else 16
NUM_ROUNDS = 3 if SMOKE else 5                # best-of rounds per (kernel, backend)
WRITE_BATCH = 16 if SMOKE else 64             # graphs appended per timed compaction
TAU = 2                                       # GBD bar of the filter kernels' table
BATCH = 32                                    # queries per call of the batch lines
TOP_K = 10                                    # k of the top-k lines
#: A posterior table that accepts exactly ``GBD <= TAU``: Φ = 1 / (1 + ϕ) at every order.
GAMMA = 1.0 / (1 + TAU)
TABLE = PosteriorTable.from_rows(
    {order: 1.0 / (1.0 + np.arange(order + 1)) for order in range(MAX_ORDER + 1)}
)

BACKENDS = available_backends()


@pytest.fixture(scope="module")
def workload():
    rng = random.Random(11)
    graphs = [
        random_labeled_graph(rng.randint(8, MAX_ORDER), rng.randint(10, MAX_ORDER + 20), seed=rng)
        for _ in range(DATABASE_SIZE)
    ]
    multisets = [branch_multiset(graph) for graph in graphs]
    stores = {}
    for backend in BACKENDS:
        store = ColumnarBranchStore(multisets, backend=backend)
        store.compact()
        stores[backend] = store
    qrng = random.Random(13)
    queries = [
        random_labeled_graph(qrng.randint(8, 14), qrng.randint(10, 20), seed=qrng)
        for _ in range(NUM_QUERIES)
    ]
    branch_sets = [branch_multiset(query) for query in queries]
    vertices = [query.num_vertices for query in queries]
    writes = [
        branch_multiset(
            random_labeled_graph(rng.randint(8, MAX_ORDER), rng.randint(10, MAX_ORDER + 20), seed=rng)
        )
        for _ in range(NUM_ROUNDS * WRITE_BATCH)
    ]
    return stores, vertices, branch_sets, writes


def _per_call_us(fn, calls: int) -> float:
    """Best-of-NUM_ROUNDS wall time of ``fn`` in microseconds per call."""
    best = min(_timed(fn) for _ in range(NUM_ROUNDS))
    return best / calls * 1e6


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _unfused_filter_verify(store, num_query_vertices, branches):
    """The pre-fusion pipeline: one dense row by position, then the reduce in NumPy."""
    view = store.view()
    orders = np.maximum(num_query_vertices, view[1])
    gbds = orders - store.intersection_row(branches, view=view)
    positions = np.flatnonzero(TABLE.phi[TABLE.offsets[orders] + gbds] >= GAMMA)
    return positions, gbds[positions]


def _compaction_us(store, writes) -> float:
    """Best-of-NUM_ROUNDS wall time of compacting one appended batch, in microseconds."""
    best = float("inf")
    for low in range(0, len(writes), WRITE_BATCH):
        store.extend(writes[low : low + WRITE_BATCH])
        best = min(best, _timed(store.compact))
    return best * 1e6


def test_kernel_backend_microbench(workload, results_dir):
    stores, vertices, branch_sets, writes = workload
    reference = stores["numpy"]
    rows = [(nq, branches, TABLE, GAMMA) for nq, branches in zip(vertices, branch_sets)]
    batch = (rows * BATCH)[:BATCH]
    ranked = [(nq, branches, TABLE, TopK(TOP_K)) for nq, branches in zip(vertices, branch_sets)]
    ranked_batch = (ranked * BATCH)[:BATCH]
    # queries per timed call; else len(rows)
    calls = {"filter_verify_rows_32": BATCH, "filter_verify_rows_topk_32": BATCH}

    def ops(store):
        return {
            "intersection_row": lambda: [
                store.intersection_row(branches) for branches in branch_sets
            ],
            "gbd_lower_bound_row": lambda: [
                store.gbd_lower_bound_row(nq, branches)
                for nq, branches in zip(vertices, branch_sets)
            ],
            "filter_verify_rows": lambda: [store.filter_verify_rows([row]) for row in rows],
            "filter_verify_rows_32": lambda: store.filter_verify_rows(batch),
            "filter_verify_rows_topk": lambda: [store.filter_verify_rows([row]) for row in ranked],
            "filter_verify_rows_topk_32": lambda: store.filter_verify_rows(ranked_batch),
            "unfused_filter_verify": lambda: [
                _unfused_filter_verify(store, nq, branches)
                for nq, branches in zip(vertices, branch_sets)
            ],
        }

    # correctness first: every backend must agree with the numpy reference
    def ranking(found):
        """A top-k row's k best by (-score, graph id): the heap order is the backend's own."""
        ids, scores = found[:2]
        return sorted(zip(ids.tolist(), scores.tolist()), key=lambda pair: (-pair[1], pair[0]))

    for backend, store in stores.items():
        if backend == "numpy":
            continue
        batched = store.filter_verify_rows(batch)
        for row, mine, theirs in zip(batch, batched, reference.filter_verify_rows(batch)):
            assert all(np.array_equal(a, b) for a, b in zip(mine[:3], theirs[:3]))
            assert mine[3:] == theirs[3:]
            alone = store.filter_verify_rows([row])[0]  # a batch row is the query alone
            assert all(np.array_equal(a, b) for a, b in zip(mine[:3], alone[:3]))
            assert mine[3:] == alone[3:]
        batched = store.filter_verify_rows(ranked_batch)
        numpy_rows = reference.filter_verify_rows(ranked_batch)
        for row, mine, theirs in zip(ranked_batch, batched, numpy_rows):
            alone = store.filter_verify_rows([row])[0]
            assert len(mine[0]) == TOP_K and ranking(mine) == ranking(theirs) == ranking(alone)
            assert np.array_equal(mine[2], theirs[2]) and np.array_equal(mine[2], alone[2])
            assert mine[3:] == theirs[3:] == alone[3:]
        for row in rows:
            nq, branches = row[:2]
            assert (
                store.intersection_row(branches).tolist()
                == reference.intersection_row(branches).tolist()
            )
            mine = store.filter_verify_rows([row])[0]
            theirs = reference.filter_verify_rows([row])[0]
            assert mine[4] is True, "the sparse plan is what this store's fused row prices"
            assert all(np.array_equal(a, b) for a, b in zip(mine[:3], theirs[:3]))
            assert mine[3:] == theirs[3:]
            # and the fused hits are the unfused pipeline's
            assert all(
                np.array_equal(a, b)
                for a, b in zip(mine[:2], _unfused_filter_verify(store, nq, branches))
            )

    kernels = {}
    for name in ops(reference):
        kernels[name] = {}
        for backend, store in stores.items():
            fn = ops(store)[name]
            fn()  # warm caches (pinned addresses, posterior table)
            kernels[name][backend] = _per_call_us(fn, calls.get(name, len(rows)))

    # The write path last (it grows the stores): every backend compacts the
    # same batches, interleaving them into the layout the reads above used.
    kernels["merge_postings"] = {
        backend: _compaction_us(store, writes) for backend, store in stores.items()
    }
    for store in stores.values():
        for mine, theirs in zip(store.view()[0][:3], reference.view()[0][:3]):
            assert np.array_equal(mine, theirs)
        for nq, branches in zip(vertices, branch_sets):
            mine = store.filter_verify_rows([(nq, branches, TABLE, GAMMA)])[0]
            theirs = reference.filter_verify_rows([(nq, branches, TABLE, GAMMA)])[0]
            assert all(np.array_equal(a, b) for a, b in zip(mine[:3], theirs[:3]))

    record = {
        "benchmark": "kernel_backends",
        "mode": "smoke" if SMOKE else "full",
        "database_size": DATABASE_SIZE,
        "num_queries": len(branch_sets),
        "rounds": NUM_ROUNDS,
        "tau": TAU,
        "write_batch": WRITE_BATCH,
        "backends": list(BACKENDS),
        "native_load_error": native_load_error(),
        "kernels_us_per_call": kernels,
        "speedups": {
            "native_vs_numpy": {
                name: timings["numpy"] / timings["native"]
                for name, timings in kernels.items()
                if "native" in timings
            },
            "fused_vs_unfused": {
                backend: kernels["unfused_filter_verify"][backend]
                / kernels["filter_verify_rows"][backend]
                for backend in BACKENDS
            },
            "topk_batch_vs_single": {
                backend: kernels["filter_verify_rows_topk"][backend]
                / kernels["filter_verify_rows_topk_32"][backend]
                for backend in BACKENDS
            },
        },
    }
    path = results_dir / "BENCH_kernels.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print()
    for name, timings in kernels.items():
        line = ", ".join(f"{backend} {us:8.1f}us" for backend, us in timings.items())
        print(f"{name:>24}: {line}")
    for label, ratios in record["speedups"].items():
        rendered = ", ".join(f"{key} {value:.2f}x" for key, value in ratios.items())
        print(f"{label}: {rendered}")
