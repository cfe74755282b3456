"""Tests for the concurrent serving executor (repro.serving.executor)."""

from __future__ import annotations

import random
import sys

import pytest

from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.query import SimilarityQuery
from repro.exceptions import ServingError
from repro.graphs.generators import random_labeled_graph
from repro.serving import BatchQueryEngine, ServingExecutor, ServingStats


NUM_GRAPHS = 30


def _fitted_search(seed: int, name: str) -> GBDASearch:
    rng = random.Random(seed)
    graphs = [
        random_labeled_graph(rng.randint(5, 8), rng.randint(5, 10), seed=rng)
        for _ in range(NUM_GRAPHS)
    ]
    database = GraphDatabase(graphs, name=name)
    return GBDASearch(database, max_tau=4, num_prior_pairs=100, seed=2).fit()


@pytest.fixture(scope="module")
def engine():
    return BatchQueryEngine.from_search(_fitted_search(41, "executor-db"))


@pytest.fixture(scope="module")
def queries():
    rng = random.Random(43)
    return [
        SimilarityQuery(
            random_labeled_graph(rng.randint(4, 9), rng.randint(4, 12), seed=rng),
            rng.randint(1, 4),
            rng.choice([0.4, 0.7]),
        )
        for _ in range(12)
    ]


@pytest.fixture(scope="module")
def reference(engine, queries):
    return [engine.query(q).accepted_ids for q in queries]


class TestModes:
    def test_serial_matches_engine(self, engine, queries, reference):
        answers = ServingExecutor(engine, num_workers=1).map(queries)
        assert [a.accepted_ids for a in answers] == reference

    def test_thread_pool_matches_engine(self, engine, queries, reference):
        answers = ServingExecutor(engine, num_workers=4).map(queries)
        assert [a.accepted_ids for a in answers] == reference

    def test_thread_pool_matches_engine_on_topk(self, queries):
        # A fresh, cacheless engine: the top-k bound table of each τ̂ is
        # first filled, then read, by several worker threads at once.
        search = _fitted_search(41, "executor-topk")
        fresh = BatchQueryEngine.from_search(search, cache_size=None)
        ranked = [
            SimilarityQuery(q.query_graph, q.tau_hat, q.gamma, top_k=1 + index % 5)
            for index, q in enumerate(queries * 4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches inside the table fill
        try:
            answers = ServingExecutor(fresh, num_workers=4).map(ranked)
        finally:
            sys.setswitchinterval(interval)
        assert [a.ranking for a in answers] == [
            search.query_topk_reference(q, q.top_k) for q in ranked
        ]

    def test_invalid_mode_and_workers(self, engine):
        with pytest.raises(ServingError):
            ServingExecutor(engine, num_workers=0)

    def test_empty_stream(self, engine):
        executor = ServingExecutor(engine, num_workers=2)
        assert executor.map([]) == []
        assert executor.last_stats.num_queries == 0
        assert executor.last_stats.num_batches == 0
        assert executor.total_stats.num_batches == 0


class TestStats:
    def test_stats_are_populated(self, engine, queries):
        executor = ServingExecutor(engine, num_workers=3)
        executor.map(queries)
        stats = executor.last_stats
        assert stats.num_queries == len(queries)
        assert stats.num_batches == 3
        assert stats.elapsed_seconds > 0
        assert stats.queries_per_second > 0
        assert len(stats.latencies) == len(queries)
        assert stats.p95_latency >= stats.p50_latency >= 0

    def test_cache_counters_flow_into_stats(self, engine, queries):
        engine.cache.reset_counters()
        executor = ServingExecutor(engine, num_workers=2)
        executor.map(queries)
        executor.map(queries)  # second pass should be all cache hits
        assert executor.last_stats.cache_hits == len(queries)
        assert executor.total_stats.num_queries == 2 * len(queries)

    def test_stats_merge_and_percentiles(self):
        a = ServingStats(num_queries=2, num_batches=1, elapsed_seconds=1.0, latencies=[0.1, 0.2])
        b = ServingStats(num_queries=2, num_batches=1, elapsed_seconds=1.0, latencies=[0.3, 0.4])
        a.merge(b)
        assert a.num_queries == 4
        assert a.elapsed_seconds == 2.0
        assert a.queries_per_second == 2.0
        assert a.percentile(0) == 0.1
        assert a.percentile(100) == 0.4
        assert a.p50_latency == 0.2
        with pytest.raises(ValueError):
            a.percentile(101)

    def test_empty_stats_are_zero(self):
        stats = ServingStats()
        assert stats.queries_per_second == 0.0
        assert stats.mean_latency == 0.0
        assert stats.p95_latency == 0.0
        assert stats.cache_hit_rate == 0.0


class TestFilterEffectivenessStats:
    def test_prune_counters_flow_into_stats(self, queries):
        # fresh cacheless engine so every query really scores the database
        pruned_engine = BatchQueryEngine.from_search(
            _fitted_search(61, "executor-prune"), cache_size=None
        )
        executor = ServingExecutor(pruned_engine, num_workers=2)
        executor.map(queries)
        stats = executor.last_stats
        assert stats.candidates_generated == len(queries) * NUM_GRAPHS
        assert stats.candidates_generated == (
            stats.candidates_pruned + stats.candidates_verified
        )
        assert 0.0 <= stats.prune_rate <= 1.0
        assert "prune_rate" in stats.as_dict()
        assert stats.as_dict()["candidates_generated"] == stats.candidates_generated

    def test_p99_latency_is_exposed(self):
        stats = ServingStats(
            num_queries=4, num_batches=1, elapsed_seconds=1.0, latencies=[0.1, 0.2, 0.3, 0.4]
        )
        assert stats.p99_latency == 0.4
        assert stats.p99_latency >= stats.p95_latency
        assert stats.as_dict()["p99_latency"] == stats.p99_latency
        assert ServingStats().p99_latency == 0.0

    def test_prune_counters_merge(self):
        a = ServingStats(candidates_generated=10, candidates_pruned=6, candidates_verified=4)
        b = ServingStats(candidates_generated=10, candidates_pruned=2, candidates_verified=8)
        a.merge(b)
        assert a.candidates_generated == 20
        assert a.candidates_pruned == 8
        assert a.candidates_verified == 12
        assert a.prune_rate == 0.4


class TestInProcessCounters:
    """Every worker thread counts into the one engine and the one registry.

    The stats of a run are read as deltas of the shared cache, the shared
    execution core and the process-global metrics registry, whatever the
    number of threads.
    """

    @pytest.mark.parametrize("num_workers", [1, 2, 5])
    def test_reports_prune_counters(self, queries, num_workers):
        engine = BatchQueryEngine.from_search(
            _fitted_search(71, "executor-threads"), cache_size=None
        )
        executor = ServingExecutor(engine, num_workers=num_workers)
        executor.map(queries[:6])
        stats = executor.last_stats
        assert stats.candidates_generated == 6 * NUM_GRAPHS
        assert stats.candidates_generated == (
            stats.candidates_pruned + stats.candidates_verified
        )

    @pytest.mark.parametrize("num_workers", [1, 2, 5])
    def test_reports_cache_hits(self, queries, num_workers):
        engine = BatchQueryEngine.from_search(
            _fitted_search(71, "executor-threads"), cache_size=64
        )
        executor = ServingExecutor(engine, num_workers=num_workers)
        executor.map([queries[0]] * 6)
        stats = executor.last_stats
        assert stats.cache_hits + stats.cache_misses == 6
        # Threads may race to the first miss; each shard misses at most once.
        assert 1 <= stats.cache_misses <= stats.num_batches
        executor.map([queries[0]] * 6)
        assert executor.last_stats.cache_hits == 6
        assert executor.total_stats.cache_hits + executor.total_stats.cache_misses == 12

    @pytest.mark.parametrize("num_workers", [1, 2, 5])
    def test_kernel_calls_land_in_the_registry(self, queries, num_workers):
        from repro.obs.metrics import get_registry

        engine = BatchQueryEngine.from_search(
            _fitted_search(71, "executor-threads"), cache_size=None
        )

        def kernel_calls():
            family = get_registry().get("repro_kernel_calls_total")
            return sum(child.value for _lv, child in family.series()) if family else 0.0

        before = kernel_calls()
        ServingExecutor(engine, num_workers=num_workers).map(queries[:6])
        assert kernel_calls() >= before + 6  # at least one store call per query


class TestSharding:
    @pytest.mark.parametrize(
        "num_workers, stream_length", [(1, 0), (4, 5), (8, 5), (4, 12), (12, 12)]
    )
    def test_batches_follow_num_workers(
        self, engine, queries, reference, num_workers, stream_length
    ):
        executor = ServingExecutor(engine, num_workers=num_workers)
        expected_batches = min(num_workers, stream_length)
        for _ in range(2):
            answers = executor.map(queries[:stream_length])
            assert [a.accepted_ids for a in answers] == reference[:stream_length]
            assert executor.last_stats.num_queries == stream_length
            assert executor.last_stats.num_batches == expected_batches
            assert len(executor.last_stats.latencies) == stream_length
        assert executor.total_stats.num_queries == 2 * stream_length
        assert executor.total_stats.num_batches == 2 * expected_batches
