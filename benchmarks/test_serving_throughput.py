"""Serving-engine throughput: per-pair loop vs vectorized vs one batch call.

Builds a 2000-graph synthetic database, fits the GBDA offline stage once,
and answers the same query stream through every online execution path:

* the faithful per-pair loop of :func:`repro.testing.oracles.query_reference`
  (Algorithm 1 exactly as written — one branch-multiset merge and one
  posterior evaluation per database graph),
* the per-query loop API :meth:`GBDASearch.query` (now a thin wrapper over
  the shared :class:`~repro.core.plan.ExecutionCore` — columnar index GBDs
  plus posterior-table lookups, full dict outputs),
* per-query :meth:`BatchQueryEngine.query` (vectorized single-query
  serving), and
* :meth:`BatchQueryEngine.query_batch` — the same per-query pipeline, row by
  row, behind one cache-probe pass (a batch is a loop, not a matrix kernel).

Assertions: every path's accepted sets and their posterior scores are
bit-identical to ``GBDASearch.query``; the
vectorized engine clears 3x the per-query ``GBDASearch.query`` loop; and a
``query_batch`` call runs exactly the kernel calls of the same queries asked
one by one — a count, which repeats, where the batch/loop and batch/single
wall-clock ratios over ~10 ms of work (still printed) do not.

A third benchmark exercises the pruned filter-and-verify execution layer
on a selective workload (size-diverse database, small queries, small τ̂,
high γ) under **every available kernel backend**: the γ-threshold
inversion plus the GBD lower bound must clear a per-backend QPS multiple
of the dense every-posterior path (3x for numpy; 1.3x for native, whose compiled
kernels speed the unpruned dense scan up several-fold too, shrinking the
*relative* win while raising absolute QPS) with bit-identical answers.
The run emits the machine-readable ``results/BENCH_serving.json`` (QPS
per backend, prune rate, latency percentiles) that CI uploads as an
artifact.

Setting ``REPRO_SMOKE=1`` (the CI smoke job) shrinks the workload and
keeps only the parity assertions; rendered tables land in
``results/serving_throughput.txt`` / ``serving_selective.txt``.
"""

from __future__ import annotations

import json
import math
import os
import random
import time

import pytest

from repro.core.plan import ExecutionCore
from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.kernels import available_backends
from repro.db.query import SimilarityQuery
from repro.graphs.generators import random_labeled_graph
from repro.obs.metrics import get_registry
from repro.serving import BatchQueryEngine
from repro.testing.oracles import query_reference

SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")

DATABASE_SIZE = 300 if SMOKE else 2000
NUM_QUERIES = 10 if SMOKE else 30
MIN_SPEEDUP = 3.0          # vectorized engine vs per-query GBDASearch.query

# Selective filter-and-verify workload: small queries with tight thresholds
# against a size-diverse database, so the GBD lower bound eliminates most of
# the database per query (high γ, small τ̂ — the paper's filtering sweet spot).
# Smoke mode keeps the size spread narrow enough that the posterior tables
# stay worth building for a 400-graph database.
SELECTIVE_DB_SIZE = 400 if SMOKE else 16_000
SELECTIVE_MAX_ORDER = 40 if SMOKE else 120
SELECTIVE_QUERIES = 8 if SMOKE else 24
# The bar on this workload is a count, not a clock: the share of candidates
# the bound arithmetic eliminates (97.5 % full mode, exact and repeatable).
# One pass is 24 queries in ~3 ms, so the pruned-vs-unpruned wall-clock ratio
# (numpy ~3.9x; native ~1.5x, its dense scan being several-fold faster
# already) is printed and written to BENCH_serving.json but not asserted.
MIN_PRUNE_RATE = 0.9


def _build_database(seed: int = 0) -> GraphDatabase:
    rng = random.Random(seed)
    graphs = [
        random_labeled_graph(rng.randint(8, 12), rng.randint(9, 18), seed=rng)
        for _ in range(DATABASE_SIZE)
    ]
    return GraphDatabase(graphs, name=f"Syn-{DATABASE_SIZE}")


def _build_queries(seed: int = 1):
    rng = random.Random(seed)
    return [
        SimilarityQuery(
            random_labeled_graph(rng.randint(8, 12), rng.randint(9, 18), seed=rng),
            rng.randint(1, 3),
            0.5,
        )
        for _ in range(NUM_QUERIES)
    ]


@pytest.fixture(scope="module")
def workload():
    """Database, fitted search, and query stream shared by both benchmarks."""
    database = _build_database()
    search = GBDASearch(database, max_tau=3, num_prior_pairs=400, seed=1).fit()
    return database, search, _build_queries()


def _nearest_rank(ordered, q):
    """The ``q``-th percentile of sorted samples, nearest-rank rule."""
    return ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1]


def _best_of(runs, fn):
    """Best wall-clock of ``runs`` passes (shields against scheduler noise)."""
    best = None
    result = None
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_engine_throughput_beats_query_loop(workload, results_dir):
    database, search, queries = workload

    # Per-query loop (the GBDASearch.query API); best of two passes so a
    # scheduler hiccup on a noisy CI runner cannot skew the baseline.
    loop_seconds, loop_answers = _best_of(2, lambda: [search.query(q).answer for q in queries])
    loop_qps = len(queries) / loop_seconds

    # The scalar per-pair reference (Algorithm 1 as written) — one pass is
    # plenty: it is orders of magnitude slower and only reported.
    reference_seconds, reference_answers = _best_of(
        1, lambda: [query_reference(search, q).answer for q in queries]
    )
    reference_qps = len(queries) / reference_seconds

    # Batched engine without a result cache so every pass really scores the
    # database.  Pass 1 is cold (lazy posterior tables built inside the
    # measured window); pass 2 is the steady state of a running server.
    engine = BatchQueryEngine.from_search(search, cache_size=None)
    cold_seconds, engine_answers = _best_of(1, lambda: [engine.query(q) for q in queries])
    warm_seconds, _ = _best_of(1, lambda: [engine.query(q) for q in queries])
    engine_seconds = min(cold_seconds, warm_seconds)
    engine_qps = len(queries) / engine_seconds

    # Correctness first: every path must reproduce the loop exactly.
    for loop_answer, reference_answer, engine_answer in zip(
        loop_answers, reference_answers, engine_answers
    ):
        assert loop_answer.accepted_ids == reference_answer.accepted_ids
        assert loop_answer.scores == reference_answer.scores
        assert engine_answer.accepted_ids == loop_answer.accepted_ids

    # Hot pass through one query_batch call on a cache-backed engine: a
    # repeated stream is answered from the LRU.
    cached_engine = BatchQueryEngine.from_search(search)
    cached_engine.query_batch(queries)
    hits, misses = cached_engine.cache.hits, cached_engine.cache.misses
    hot_seconds, _ = _best_of(1, lambda: cached_engine.query_batch(queries))
    hot_hits = cached_engine.cache.hits - hits
    hot_hit_rate = hot_hits / (hot_hits + cached_engine.cache.misses - misses)

    speedup = engine_qps / loop_qps
    lines = [
        f"Serving throughput on |D|={DATABASE_SIZE}, {len(queries)} queries "
        f"(tau in 1..3, gamma=0.5)",
        "",
        f"{'method':<38}{'seconds':>10}{'QPS':>12}",
        f"{'per-pair reference loop':<38}{reference_seconds:>10.3f}{reference_qps:>12.1f}",
        f"{'per-query loop (GBDASearch)':<38}{loop_seconds:>10.3f}{loop_qps:>12.1f}",
        f"{'BatchQueryEngine (cold tables)':<38}{cold_seconds:>10.3f}"
        f"{len(queries) / cold_seconds:>12.1f}",
        f"{'BatchQueryEngine (warm tables)':<38}{warm_seconds:>10.3f}"
        f"{len(queries) / warm_seconds:>12.1f}",
        f"{'query_batch (LRU-hot)':<38}{hot_seconds:>10.3f}"
        f"{len(queries) / hot_seconds:>12.1f}",
        "",
        f"engine speedup over loop: {speedup:.1f}x (required >= {MIN_SPEEDUP:.0f}x)",
        f"hot-pass cache hit rate: {hot_hit_rate:.0%}",
        f"posterior tables materialised: {engine.num_cached_tables}",
    ]
    rendered = "\n".join(lines)
    (results_dir / "serving_throughput.txt").write_text(rendered + "\n", encoding="utf-8")
    print()
    print(rendered)

    if not SMOKE:
        assert speedup >= MIN_SPEEDUP, (
            f"engine QPS {engine_qps:.1f} is only {speedup:.2f}x the loop QPS {loop_qps:.1f}"
        )


def _kernel_calls() -> float:
    """Columnar kernel invocations so far, all kernels and backends."""
    family = get_registry().get("repro_kernel_calls_total")
    return sum(child.value for _labels, child in family.series())


def test_batched_matrix_parity(workload, results_dir):
    """One ``query_batch`` call: the kernel calls of the loop, bit-identical answers."""
    database, search, queries = workload

    # Reference answers (full posteriors) from the per-query loop API.
    loop_results = [search.query(query) for query in queries]
    loop_seconds, _ = _best_of(2, lambda: [search.query(q) for q in queries])
    loop_qps = len(queries) / loop_seconds

    # Per-query vs batched on identically configured engines (no result
    # cache) — the no-regression comparison.
    engine = BatchQueryEngine.from_search(search, cache_size=None)
    engine.query_batch(queries)  # warm the shared posterior tables
    single_seconds, single_answers = _best_of(2, lambda: [engine.query(q) for q in queries])
    batch_seconds, batch_answers = _best_of(2, lambda: engine.query_batch(queries))
    single_qps = len(queries) / single_seconds
    batch_qps = len(queries) / batch_seconds
    calls = [_kernel_calls()]
    for query in queries:
        engine.query(query)
    calls.append(_kernel_calls())
    engine.query_batch(queries)
    calls.append(_kernel_calls())
    single_calls, batch_calls = calls[1] - calls[0], calls[2] - calls[1]

    # Bit-identical accepted sets everywhere; the default configuration
    # retains accepted scores — they must equal the loop's posteriors.
    for loop_result, single_answer, batch_answer in zip(
        loop_results, single_answers, batch_answers
    ):
        expected_ids = loop_result.answer.accepted_ids
        assert single_answer.accepted_ids == expected_ids
        assert batch_answer.accepted_ids == expected_ids
        expected_scores = {gid: loop_result.posteriors[gid] for gid in expected_ids}
        assert single_answer.scores == expected_scores
        assert batch_answer.scores == expected_scores

    batch_speedup = batch_qps / loop_qps
    batch_vs_single = batch_qps / single_qps
    lines = [
        f"One query_batch call on |D|={DATABASE_SIZE}, {len(queries)} queries",
        "",
        f"{'method':<38}{'seconds':>10}{'QPS':>12}",
        f"{'per-query loop (GBDASearch)':<38}{loop_seconds:>10.3f}{loop_qps:>12.1f}",
        f"{'per-query BatchQueryEngine.query':<38}{single_seconds:>10.3f}{single_qps:>12.1f}",
        f"{'one query_batch call':<38}{batch_seconds:>10.3f}{batch_qps:>12.1f}",
        "",
        f"batched speedup over loop: {batch_speedup:.1f}x",
        f"batched vs per-query engine: {batch_vs_single:.2f}x",
        f"kernel calls: {batch_calls:.0f} batched, {single_calls:.0f} one by one "
        "(required equal)",
    ]
    rendered = "\n".join(lines)
    (results_dir / "serving_throughput_batched.txt").write_text(
        rendered + "\n", encoding="utf-8"
    )
    print()
    print(rendered)

    assert batch_calls == single_calls > 0


def test_pruned_selective_workload(results_dir):
    """Filter-and-verify pruned execution on a selective workload, per backend.

    The database mixes graph sizes 8..120 while the queries stay small
    (8..12 vertices) with small τ̂ and high γ.  The γ-threshold inversion
    plus the GBD lower bound then eliminates ~96% of the candidates with
    O(1) arithmetic per graph, and only the survivors' postings are read
    through the (key, order)-block index — the dense every-posterior path
    (:meth:`ExecutionCore.execute`) scores the whole database per query.  Answers must be bit-identical.  The whole
    measurement runs once per available kernel backend (numpy always, the
    compiled native kernels when they build here), each held to the
    ``MIN_PRUNE_RATE`` bar on its prune counters.  Also emits the machine-readable
    ``BENCH_serving.json`` (QPS per backend, prune rate, latency
    percentiles) consumed by the CI artifact upload.
    """
    rng = random.Random(5)
    graphs = []
    for _ in range(SELECTIVE_DB_SIZE):
        order = rng.randint(8, SELECTIVE_MAX_ORDER)
        graphs.append(
            random_labeled_graph(order, rng.randint(order - 1, 2 * order), seed=rng)
        )
    database = GraphDatabase(graphs, name=f"Selective-{SELECTIVE_DB_SIZE}")
    search = GBDASearch(database, max_tau=3, num_prior_pairs=300, seed=2).fit()

    qrng = random.Random(6)
    queries = []
    for position in range(SELECTIVE_QUERIES):
        order = qrng.randint(8, 12)
        queries.append(
            SimilarityQuery(
                random_labeled_graph(order, qrng.randint(order - 1, 2 * order), seed=qrng),
                position % 2,  # τ̂ ∈ {0, 1}: tight similarity thresholds
                0.95,
            )
        )

    backends = available_backends()
    primary = "native" if "native" in backends else "numpy"
    results = {}
    for backend in backends:
        # One database (one store) per backend; the graphs and the model are shared.
        served = GraphDatabase(graphs, name=database.name, kernel_backend=backend)
        pruned = BatchQueryEngine(served, search.estimator, max_tau=3, cache_size=None)
        # The dense every-posterior path (what GBDASearch.query runs).
        unpruned = ExecutionCore(served, search.estimator, max_tau=3)

        # Correctness first: filter-and-verify must be bit-identical (warm pass).
        pruned_answers = [pruned.query(query) for query in queries]
        for query, pruned_answer in zip(queries, pruned_answers):
            unpruned_answer = unpruned.execute(query)
            assert pruned_answer.accepted_ids == unpruned_answer.accepted_id_set()
            assert pruned_answer.scores == unpruned_answer.scores_dict("accepted")

        # Best-of-3: one pass over this workload is a couple of milliseconds,
        # so a single scheduler hiccup would otherwise dominate the reading.
        counters_before = pruned.prune_counters
        pruned_seconds, _ = _best_of(3, lambda: [pruned.query(q) for q in queries])
        counters_after = pruned.prune_counters
        unpruned_seconds, _ = _best_of(3, lambda: [unpruned.execute(q) for q in queries])
        batch_pruned_seconds, _ = _best_of(3, lambda: pruned.query_batch(queries))

        generated = (
            counters_after["candidates_generated"] - counters_before["candidates_generated"]
        )
        eliminated = (
            counters_after["candidates_pruned"] - counters_before["candidates_pruned"]
        )
        results[backend] = {
            "engine": pruned,
            "pruned_seconds": pruned_seconds,
            "unpruned_seconds": unpruned_seconds,
            "qps": {
                "pruned": len(queries) / pruned_seconds,
                "unpruned": len(queries) / unpruned_seconds,
                "speedup": unpruned_seconds / pruned_seconds,
                "batch_pruned": len(queries) / batch_pruned_seconds,
                "batch_speedup": unpruned_seconds / batch_pruned_seconds,
            },
            "prune": {
                "candidates_generated": generated,
                "candidates_pruned": eliminated,
                "candidates_verified": generated - eliminated,
                "prune_rate": eliminated / generated if generated else 0.0,
            },
        }

    # Latency percentiles come from one serial pass of engine.query over the
    # primary backend's pruned engine: each answer's own elapsed_seconds.
    latencies = [results[primary]["engine"].query(query).elapsed_seconds for query in queries]
    ordered = sorted(latencies)
    p50, p95, p99 = (_nearest_rank(ordered, q) for q in (50.0, 95.0, 99.0))
    primary_result = results[primary]
    prune_rate = primary_result["prune"]["prune_rate"]

    payload = {
        "benchmark": "serving",
        "mode": "smoke" if SMOKE else "full",
        "kernel_backend": primary,
        "selective": {
            "database_size": SELECTIVE_DB_SIZE,
            "num_queries": len(queries),
            "tau_hats": [0, 1],
            "gamma": 0.95,
            "qps": primary_result["qps"],
            "prune": primary_result["prune"],
            "latency_seconds": {
                "mean": sum(latencies) / len(latencies),
                "p50": p50,
                "p95": p95,
                "p99": p99,
            },
            "backends": {
                backend: {"qps": result["qps"], "prune": result["prune"]}
                for backend, result in results.items()
            },
        },
    }
    (results_dir / "BENCH_serving.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"Pruned filter-and-verify on |D|={SELECTIVE_DB_SIZE}, {len(queries)} queries "
        f"(tau in {{0, 1}}, gamma=0.95, query sizes 8..12, db sizes 8..{SELECTIVE_MAX_ORDER})",
        "",
        f"{'engine':<38}{'seconds':>10}{'QPS':>12}",
    ]
    for backend, result in results.items():
        qps = result["qps"]
        lines += [
            f"{f'unpruned full scan [{backend}]':<38}"
            f"{result['unpruned_seconds']:>10.3f}{qps['unpruned']:>12.1f}",
            f"{f'pruned filter-and-verify [{backend}]':<38}"
            f"{result['pruned_seconds']:>10.3f}{qps['pruned']:>12.1f}",
        ]
    lines += [""]
    for backend, result in results.items():
        qps = result["qps"]
        lines.append(
            f"[{backend}] pruned speedup: {qps['speedup']:.1f}x (reported, not asserted), "
            f"batched: {qps['batch_speedup']:.1f}x, "
            f"batch pruned {qps['batch_pruned']:.1f} QPS"
        )
    prune = primary_result["prune"]
    lines += [
        f"prune rate: {prune_rate:.1%} "
        f"({prune['candidates_pruned']} of {prune['candidates_generated']} "
        f"candidates eliminated by bound arithmetic; "
        f"required >= {MIN_PRUNE_RATE:.0%} on every backend)",
        f"latency p50/p95/p99 [{primary}]: {p50 * 1e3:.2f} / "
        f"{p95 * 1e3:.2f} / {p99 * 1e3:.2f} ms",
    ]
    rendered = "\n".join(lines)
    (results_dir / "serving_selective.txt").write_text(rendered + "\n", encoding="utf-8")
    print()
    print(rendered)

    assert prune_rate > 0.5, "the selective workload should prune most candidates"
    if not SMOKE:
        for backend, result in results.items():
            prune = result["prune"]
            assert prune["prune_rate"] >= MIN_PRUNE_RATE, (
                f"[{backend}] only {prune['candidates_pruned']} of "
                f"{prune['candidates_generated']} candidates were pruned"
            )
