"""Unit + integration suite for the resilience primitives (repro.service.resilience).

Covers the deterministic building blocks in isolation — RetryPolicy
backoff math and seeded jitter, the CircuitBreaker state machine,
Deadline budgets, the server-side IdempotencyCache — and then the client
behaviours built on them against real sockets: connect/read timeouts
versus a hung server, retry-on-overload convergence, idempotent dedupe
across a retried stream, and breaker fast-fails.
"""

from __future__ import annotations

import asyncio
import random
import socket
import threading
import time

import pytest

from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.query import SimilarityQuery
from repro.exceptions import (
    CircuitOpenError,
    ConnectionLostError,
    DeadlineExceededError,
    ProtocolError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.graphs.generators import random_labeled_graph
from repro.serving import BatchQueryEngine
from repro.service import (
    AsyncServiceClient,
    CircuitBreaker,
    Deadline,
    HedgePolicy,
    IdempotencyCache,
    RetryPolicy,
    ServiceClient,
    start_service_thread,
)
from repro.testing.faults import FaultyEngine


# ---------------------------------------------------------------------- #
# fixtures
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def engine():
    rng = random.Random(71)
    graphs = [
        random_labeled_graph(rng.randint(5, 9), rng.randint(5, 12), seed=rng)
        for _ in range(40)
    ]
    database = GraphDatabase(graphs, name="resilience")
    fitted = GBDASearch(database, max_tau=4, num_prior_pairs=120, seed=7).fit()
    return BatchQueryEngine.from_search(fitted)


def _queries(num, seed):
    rng = random.Random(seed)
    return [
        SimilarityQuery(
            random_labeled_graph(rng.randint(4, 8), rng.randint(4, 10), seed=rng),
            rng.randint(0, 4),
            rng.choice([0.5, 0.75, 0.9]),
        )
        for _ in range(num)
    ]


@pytest.fixture()
def hung_server():
    """A listener that accepts connections and then never says anything."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    accepted = []
    stop = threading.Event()

    def accept_loop():
        listener.settimeout(0.1)
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            accepted.append(conn)

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        stop.set()
        thread.join(timeout=5)
        for conn in accepted:
            try:
                conn.close()
            except OSError:
                pass
        listener.close()


# ---------------------------------------------------------------------- #
# Deadline
# ---------------------------------------------------------------------- #
class TestDeadline:
    def test_budget_counts_down(self):
        deadline = Deadline.after_ms(10_000)
        assert not deadline.expired
        assert 0 < deadline.remaining() <= 10.0
        assert 0 < deadline.remaining_ms() <= 10_000.0

    def test_expiry(self):
        deadline = Deadline.after_ms(1000, clock=time.monotonic() - 2.0)
        assert deadline.expired
        assert deadline.remaining_ms() < 0

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ServiceError):
            Deadline.after_ms(0)
        with pytest.raises(ServiceError):
            Deadline.after_ms(-5)


# ---------------------------------------------------------------------- #
# RetryPolicy
# ---------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_seeded_jitter_is_deterministic(self):
        a = RetryPolicy(seed=11)
        b = RetryPolicy(seed=11)
        assert [a.delay_for(i) for i in a.attempts()] == [
            b.delay_for(i) for i in b.attempts()
        ]

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(
            max_attempts=8, base_delay_ms=10, max_delay_ms=50, jitter=0.0
        )
        delays = [policy.delay_for(attempt) for attempt in policy.attempts()]
        assert delays[:3] == [0.010, 0.020, 0.040]
        assert all(delay == 0.050 for delay in delays[3:])

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay_ms=100, jitter=0.5, seed=3)
        for _ in range(50):
            delay = policy.delay_for(1)
            assert 0.05 <= delay <= 0.1

    def test_retryable_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(ServiceOverloadedError("shed"))
        assert policy.is_retryable(DeadlineExceededError("late"))
        assert policy.is_retryable(TimeoutError("slow"))
        assert policy.is_retryable(ConnectionResetError("reset"))
        assert policy.is_retryable(ConnectionLostError("poisoned"))
        assert not policy.is_retryable(ProtocolError("bad request"))
        assert not policy.is_retryable(ServiceError("scoring failed"))
        # The breaker exists to stop retries: never retry its rejections.
        assert not policy.is_retryable(CircuitOpenError("open"))

    def test_invalid_knobs(self):
        with pytest.raises(ServiceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ServiceError):
            RetryPolicy(base_delay_ms=-1)
        with pytest.raises(ServiceError):
            RetryPolicy(jitter=1.5)


# ---------------------------------------------------------------------- #
# CircuitBreaker
# ---------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_opens_at_threshold_and_fails_fast(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_ms=60_000)
        assert breaker.state == CircuitBreaker.CLOSED
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.check()
        assert breaker.as_dict()["fast_failures"] == 1

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_ms=20)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        time.sleep(0.03)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the single probe is claimed...
        assert not breaker.allow()  # ...and concurrent attempts still fail fast
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=5, reset_timeout_ms=20)
        for _ in range(5):
            breaker.record_failure()
        time.sleep(0.03)
        assert breaker.allow()  # half-open probe
        breaker.record_failure()  # probe failed → straight back to open
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.as_dict()["opened"] == 2

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_invalid_knobs(self):
        with pytest.raises(ServiceError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ServiceError):
            CircuitBreaker(reset_timeout_ms=0)


# ---------------------------------------------------------------------- #
# HedgePolicy
# ---------------------------------------------------------------------- #
class TestHedgePolicy:
    def test_floor_until_enough_samples(self):
        policy = HedgePolicy(min_delay_ms=25, min_samples=4)
        assert policy.hedge_delay() == 0.025
        policy.observe(0.5)
        assert policy.hedge_delay() == 0.025

    def test_percentile_of_the_window(self):
        policy = HedgePolicy(percentile=90, min_delay_ms=0.1, min_samples=10)
        for value in range(1, 101):
            policy.observe(value / 1000.0)
        delay = policy.hedge_delay()
        assert 0.085 <= delay <= 0.095

    def test_invalid_knobs(self):
        with pytest.raises(ServiceError):
            HedgePolicy(percentile=0)
        with pytest.raises(ServiceError):
            HedgePolicy(max_hedges=0)


# ---------------------------------------------------------------------- #
# IdempotencyCache
# ---------------------------------------------------------------------- #
class TestIdempotencyCache:
    def test_round_trip_and_counters(self):
        cache = IdempotencyCache(capacity=4)
        assert cache.get("k1") is None
        cache.put("k1", {"answer": 1})
        assert cache.get("k1") == {"answer": 1}
        assert cache.as_dict() == {
            "capacity": 4,
            "entries": 1,
            "hits": 1,
            "misses": 1,
        }

    def test_lru_eviction(self):
        cache = IdempotencyCache(capacity=2)
        cache.put("a", {"n": 1})
        cache.put("b", {"n": 2})
        assert cache.get("a") is not None  # refresh a → b is now LRU
        cache.put("c", {"n": 3})
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_zero_capacity_disables(self):
        cache = IdempotencyCache(capacity=0)
        cache.put("k", {"n": 1})
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_none_key_is_ignored(self):
        cache = IdempotencyCache()
        cache.put(None, {"n": 1})
        assert cache.get(None) is None
        assert len(cache) == 0


# ---------------------------------------------------------------------- #
# client timeouts against a hung server
# ---------------------------------------------------------------------- #
class TestClientTimeouts:
    def test_sync_read_timeout_fires(self, hung_server):
        client = ServiceClient(*hung_server, read_timeout=0.2)
        query = _queries(1, seed=73)[0]
        started = time.perf_counter()
        with pytest.raises((TimeoutError, OSError)):
            client.query(query)
        assert time.perf_counter() - started < 5.0, "must not hang"
        client.close()

    def test_sync_timeout_knobs_are_applied(self, hung_server):
        # Distinct knobs: the read timeout is pinned on the socket after connect.
        client = ServiceClient(*hung_server, connect_timeout=5.0, read_timeout=0.7)
        assert client.connect_timeout == 5.0
        assert client.read_timeout == 0.7
        assert client._sock.gettimeout() == 0.7
        client.close()

    def test_async_read_timeout_fires(self, hung_server):
        query = _queries(1, seed=79)[0]

        async def run():
            client = await AsyncServiceClient.connect(*hung_server, read_timeout=0.2)
            try:
                with pytest.raises(TimeoutError):
                    await client.query(query)
            finally:
                await client.close()

        asyncio.run(run())

    def test_deadline_bounds_the_async_wait(self, hung_server):
        query = _queries(1, seed=83)[0]

        async def run():
            client = await AsyncServiceClient.connect(*hung_server, read_timeout=30.0)
            try:
                started = time.perf_counter()
                with pytest.raises(TimeoutError):
                    await client.query(query, deadline_ms=200)
                return time.perf_counter() - started
            finally:
                await client.close()

        elapsed = asyncio.run(run())
        assert elapsed < 5.0, "deadline_ms must tighten the local wait"


# ---------------------------------------------------------------------- #
# retries end-to-end
# ---------------------------------------------------------------------- #
class TestRetryIntegration:
    def test_overload_is_retried_to_success(self, engine):
        # One in-flight query per connection + a slow scorer: a pipelined
        # burst trips OVERLOADED. With retries, every slot converges.
        handle = start_service_thread(
            FaultyEngine.holding(engine, 30.0), max_batch=64, max_per_connection=1
        )
        queries = _queries(6, seed=89)
        direct = [engine.query(query) for query in queries]
        retry = RetryPolicy(max_attempts=8, base_delay_ms=20, max_delay_ms=200, seed=1)
        try:
            with ServiceClient(*handle.address, retry=retry) as client:
                answers = client.query_many(queries)
            for received, expected in zip(answers, direct):
                assert received.accepted_ids == expected.accepted_ids
                assert received.scores == expected.scores
            assert retry.retries > 0, "the burst must have tripped at least one retry"
        finally:
            handle.stop()

    def test_retry_reconnects_after_server_restart(self, engine):
        from repro.testing import ChaosService

        queries = _queries(3, seed=97)
        direct = [engine.query(query) for query in queries]
        chaos = ChaosService(engine, max_batch=8)
        chaos.start()
        retry = RetryPolicy(max_attempts=10, base_delay_ms=50, max_delay_ms=400, seed=2)
        client = ServiceClient(*chaos.address, retry=retry, read_timeout=10.0)
        try:
            assert client.query(queries[0]).accepted_ids == direct[0].accepted_ids
            chaos.kill()
            chaos.restart()
            # The old socket is dead; the retry path must reconnect.
            for query, expected in zip(queries, direct):
                assert client.query(query).accepted_ids == expected.accepted_ids
        finally:
            client.close()
            chaos.stop()

    def test_async_retry_reconnects_after_server_restart(self, engine):
        from repro.testing import ChaosService

        query = _queries(1, seed=101)[0]
        expected = engine.query(query)
        chaos = ChaosService(engine, max_batch=8)
        chaos.start()

        async def run():
            retry = RetryPolicy(
                max_attempts=10, base_delay_ms=50, max_delay_ms=400, seed=3
            )
            client = await AsyncServiceClient.connect(
                *chaos.address, retry=retry, read_timeout=10.0
            )
            try:
                first = await client.query(query)
                assert first.accepted_ids == expected.accepted_ids
                chaos.kill()
                chaos.restart()
                second = await client.query(query)
                assert second.accepted_ids == expected.accepted_ids
            finally:
                await client.close()

        try:
            asyncio.run(run())
        finally:
            chaos.stop()

    def test_no_retry_policy_raises_immediately(self, engine):
        handle = start_service_thread(
            FaultyEngine.holding(engine, 100.0), max_batch=64, max_per_connection=1
        )
        queries = _queries(5, seed=103)
        try:
            with ServiceClient(*handle.address) as client:
                with pytest.raises(ServiceOverloadedError):
                    client.query_many(queries)
        finally:
            handle.stop()


# ---------------------------------------------------------------------- #
# idempotency end-to-end
# ---------------------------------------------------------------------- #
class TestIdempotencyIntegration:
    def test_duplicate_request_key_served_from_cache(self, engine):
        handle = start_service_thread(engine, max_batch=8)
        query = _queries(1, seed=107)[0]
        try:
            with ServiceClient(*handle.address) as client:
                first = client.query(query)
                # Replay the exact same request_key by rewinding the
                # client's key counter: the server must serve the cached
                # answer, bit-identical, without re-scoring.
                before = handle.service.metrics()["serving"]["num_queries"]
                client._requests._next_key -= 1
                second = client.query(query)
                after = handle.service.metrics()["serving"]["num_queries"]
            assert second.accepted_ids == first.accepted_ids
            assert second.scores == first.scores
            assert second.ranking == first.ranking
            assert after == before, "a cached duplicate must not re-score"
            resilience = handle.service.metrics()["resilience"]
            assert resilience["idempotency"]["hits"] == 1
        finally:
            handle.stop()


# ---------------------------------------------------------------------- #
# breaker end-to-end
# ---------------------------------------------------------------------- #
class TestBreakerIntegration:
    def test_breaker_fails_fast_after_endpoint_death(self, engine):
        handle = start_service_thread(engine, max_batch=8)
        query = _queries(1, seed=109)[0]
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_ms=60_000)
        client = ServiceClient(*handle.address, breaker=breaker, read_timeout=1.0)
        try:
            client.query(query)  # warm success
            handle.stop()  # endpoint dies
            for _ in range(2):
                with pytest.raises((ServiceError, OSError)):
                    client.query(query)
            assert breaker.state == CircuitBreaker.OPEN
            # Third attempt never touches the socket: CircuitOpenError.
            with pytest.raises(CircuitOpenError):
                client.query(query)
        finally:
            client.close()
            handle.stop()


# ---------------------------------------------------------------------- #
# observability
# ---------------------------------------------------------------------- #
class TestResilienceMetrics:
    def test_all_families_in_the_prometheus_exposition(self):
        from repro.obs import prometheus_text

        text = prometheus_text()
        for family in (
            "repro_client_retries_total",
            "repro_client_hedges_total",
            "repro_breaker_transitions_total",
            "repro_breaker_fast_fails_total",
            "repro_idempotent_hits_total",
            "repro_deadline_drops_total",
            "repro_reload_failures_total",
        ):
            assert family in text, family
        # The per-stage deadline drops and per-outcome hedge children are
        # pre-registered so dashboards see them at zero, not on first drop.
        assert 'repro_deadline_drops_total{stage="admission"}' in text
        assert 'repro_deadline_drops_total{stage="batcher"}' in text
        assert 'repro_client_hedges_total{outcome="won"}' in text
        assert 'repro_service_requests_total{outcome="deadline_exceeded"}' in text

    def test_server_scrape_carries_the_resilience_section(self, engine):
        handle = start_service_thread(engine, max_batch=8)
        try:
            with ServiceClient(*handle.address) as client:
                stats = client.stats()
            resilience = stats["resilience"]
            assert resilience["idempotency"]["capacity"] == 2048
            assert resilience["deadline_dropped_admission"] == 0
            assert resilience["deadline_dropped_batcher"] == 0
            assert stats["server"]["reload_failures"] == 0
        finally:
            handle.stop()


# ---------------------------------------------------------------------- #
# hedging end-to-end
# ---------------------------------------------------------------------- #
class TestHedgingIntegration:
    def test_hedged_duplicate_resolves_first_response_wins(self, engine):
        # A slow scorer (150 ms a batch) keeps every primary in flight well
        # past the zero-floor hedge delay: all requests deterministically
        # hedge, which stresses the demux path hardest.
        handle = start_service_thread(FaultyEngine.holding(engine, 150.0), max_batch=64)
        queries = _queries(8, seed=113)
        direct = [engine.query(query) for query in queries]

        async def run():
            # A zero-floor hedge policy: effectively every request hedges,
            # which stresses the demux path hardest.
            hedge = HedgePolicy(min_delay_ms=0.0, min_samples=10_000)
            client = await AsyncServiceClient.connect(
                *handle.address, hedge=hedge, read_timeout=30.0
            )
            try:
                answers = await client.query_many(queries)
                return hedge, answers
            finally:
                await client.close()

        try:
            hedge, answers = asyncio.run(run())
            for received, expected in zip(answers, direct):
                assert received.accepted_ids == expected.accepted_ids
                assert received.scores == expected.scores
                assert received.ranking == expected.ranking
            assert hedge.hedges_sent > 0
            assert hedge.hedges_won + hedge.hedges_cancelled == hedge.hedges_sent
        finally:
            handle.stop()
