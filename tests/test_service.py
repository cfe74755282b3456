"""Concurrency suite for the network service layer (repro.service).

Covers the acceptance criteria of the service subsystem:

* N parallel clients receive answers bit-identical to direct
  :class:`BatchQueryEngine` calls (thresholded and top-k, incl. rankings);
* the overload path returns a typed ``OVERLOADED`` error instead of
  hanging;
* graceful shutdown drains every in-flight query (none dropped);
* a snapshot hot-swap under load never serves a torn answer;
* the micro-batcher really coalesces concurrent queries into batches;
* the admission controller enforces both budgets.
"""

from __future__ import annotations

import asyncio
import json
import random
import struct
import threading
import time

import pytest

from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.query import QueryAnswer, SimilarityQuery
from repro.exceptions import (
    DeadlineExceededError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.graphs.generators import random_labeled_graph
from repro.serving import BatchQueryEngine, load_engine, save_engine
from repro.service import (
    AdmissionController,
    AsyncServiceClient,
    Deadline,
    MicroBatcher,
    ServiceClient,
    start_service_thread,
)
from repro.testing.faults import FaultInjector, FaultyEngine


# ---------------------------------------------------------------------- #
# fixtures
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def random_database():
    rng = random.Random(17)
    graphs = [
        random_labeled_graph(rng.randint(5, 9), rng.randint(5, 12), seed=rng)
        for _ in range(50)
    ]
    return GraphDatabase(graphs, name="service-random")


@pytest.fixture(scope="module")
def fitted(random_database):
    return GBDASearch(random_database, max_tau=4, num_prior_pairs=150, seed=5).fit()


@pytest.fixture(scope="module")
def engine(fitted):
    return BatchQueryEngine.from_search(fitted)


def _random_queries(num, seed, max_tau=4, with_topk=True):
    rng = random.Random(seed)
    queries = [
        SimilarityQuery(
            random_labeled_graph(rng.randint(4, 10), rng.randint(4, 14), seed=rng),
            rng.randint(0, max_tau),
            rng.choice([0.25, 0.5, 0.75, 0.9]),
        )
        for _ in range(num)
    ]
    if with_topk:
        # Mix thresholded and top-k modes in one stream: rankings must
        # survive the wire too.
        for position in range(0, num, 4):
            base = queries[position]
            queries[position] = SimilarityQuery(
                base.query_graph, base.tau_hat, base.gamma, top_k=5
            )
    return queries


def _wait_until(condition, timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    return condition()


def _assert_identical(received: QueryAnswer, direct: QueryAnswer) -> None:
    assert received.accepted_ids == direct.accepted_ids
    assert received.scores == direct.scores
    assert received.ranking == direct.ranking
    assert received.method == direct.method


# ---------------------------------------------------------------------- #
# end-to-end parity under concurrency
# ---------------------------------------------------------------------- #
class TestConcurrentParity:
    NUM_CLIENTS = 8

    def test_parallel_clients_get_bit_identical_answers(self, engine):
        queries = _random_queries(16, seed=23)
        direct = [engine.query(query) for query in queries]

        handle = start_service_thread(engine, max_batch=16)
        failures = []

        def run_client(worker: int) -> None:
            try:
                with ServiceClient(*handle.address) as client:
                    answers = client.query_many(queries)
                    for received, expected in zip(answers, direct):
                        _assert_identical(received, expected)
            except Exception as exc:  # surfaced on the main thread below
                failures.append((worker, exc))

        try:
            threads = [
                threading.Thread(target=run_client, args=(worker,))
                for worker in range(self.NUM_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not failures, failures
            metrics = handle.service.metrics()
            served = metrics["serving"]["num_queries"]
            assert served == self.NUM_CLIENTS * len(queries)
            # The whole point: concurrent requests coalesced into batches.
            assert metrics["batcher"]["mean_batch_size"] > 1.0
        finally:
            handle.stop()

    def test_async_client_pipelines_one_connection(self, engine):
        queries = _random_queries(12, seed=29)
        direct = [engine.query(query) for query in queries]
        handle = start_service_thread(engine, max_batch=12)

        async def run() -> None:
            client = await AsyncServiceClient.connect(*handle.address)
            try:
                answers = await client.query_many(queries)
                for received, expected in zip(answers, direct):
                    _assert_identical(received, expected)
                pong = await client.ping()
                assert pong["pong"] is True
            finally:
                await client.close()

        try:
            asyncio.run(run())
        finally:
            handle.stop()


# ---------------------------------------------------------------------- #
# admission / overload
# ---------------------------------------------------------------------- #
class TestOverload:
    def test_overload_returns_typed_error_instead_of_hanging(self, engine):
        # One in-flight query per connection; a slow scorer keeps the
        # first query in flight while the rest of the pipelined burst
        # arrives — they must be shed immediately, not queued.
        handle = start_service_thread(
            FaultyEngine.holding(engine, 100.0), max_batch=64, max_per_connection=1
        )
        queries = _random_queries(10, seed=31, with_topk=False)
        direct = [engine.query(query) for query in queries]
        try:
            with ServiceClient(*handle.address) as client:
                results = client.query_many(queries, return_errors=True)
            answers = [r for r in results if isinstance(r, QueryAnswer)]
            rejected = [r for r in results if isinstance(r, ServiceOverloadedError)]
            assert len(answers) + len(rejected) == len(queries)
            assert rejected, "the burst should have tripped the per-connection cap"
            assert answers, "the admitted query must still be answered"
            for position, result in enumerate(results):
                if isinstance(result, QueryAnswer):
                    _assert_identical(result, direct[position])
            assert handle.service.admission.as_dict()["rejected"] >= len(rejected)
        finally:
            handle.stop()

    def test_query_raises_typed_exception_without_return_errors(self, engine):
        handle = start_service_thread(
            FaultyEngine.holding(engine, 100.0), max_batch=64, max_per_connection=1
        )
        queries = _random_queries(6, seed=37, with_topk=False)
        try:
            with ServiceClient(*handle.address) as client:
                with pytest.raises(ServiceOverloadedError):
                    client.query_many(queries)
                # The connection survives the rejection: later traffic works.
                answer = client.query(queries[0])
                assert answer.accepted_ids == engine.query(queries[0]).accepted_ids
        finally:
            handle.stop()


class TestAdmissionController:
    def test_global_budget(self):
        admission = AdmissionController(max_pending=2)
        assert admission.try_admit(1)
        assert admission.try_admit(2)
        assert not admission.try_admit(3)
        admission.release(1)
        assert admission.try_admit(3)
        stats = admission.as_dict()
        assert stats["admitted"] == 3 and stats["rejected"] == 1
        assert stats["rejection_rate"] == 0.25

    def test_per_connection_budget(self):
        admission = AdmissionController(max_pending=10, max_per_connection=2)
        assert admission.try_admit(1)
        assert admission.try_admit(1)
        assert not admission.try_admit(1)  # connection 1 is at its cap
        assert admission.try_admit(2)  # other connections unaffected
        admission.release(1)
        assert admission.try_admit(1)
        admission.forget_connection(1)
        assert admission.pending == 3

    def test_invalid_budgets(self):
        with pytest.raises(ServiceError):
            AdmissionController(max_pending=0)
        with pytest.raises(ServiceError):
            AdmissionController(max_pending=1, max_per_connection=-1)


# ---------------------------------------------------------------------- #
# micro-batcher
# ---------------------------------------------------------------------- #
class TestMicroBatcher:
    def test_concurrent_submissions_coalesce_into_one_batch(self):
        seen_batches = []

        async def runner(queries):
            seen_batches.append(len(queries))
            return [f"answer-{id(query)}" for query in queries]

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=16)
            batcher.start()
            futures = [batcher.submit(object()) for _ in range(5)]
            results = await asyncio.gather(*futures)
            await batcher.stop()
            return results

        results = asyncio.run(scenario())
        assert len(results) == 5
        assert seen_batches == [5]

    def test_flush_on_full_is_immediate(self):
        seen_batches = []

        async def runner(queries):
            seen_batches.append(len(queries))
            return list(queries)

        async def scenario():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher(runner, max_batch=3)
            batcher.start()
            start = loop.time()
            await asyncio.gather(*[batcher.submit(i) for i in range(3)])
            elapsed = loop.time() - start
            await batcher.stop()
            return elapsed

        elapsed = asyncio.run(scenario())
        assert seen_batches == [3]
        assert elapsed < 5.0, "a full batch must flush immediately"

    def test_stop_drains_queued_queries(self):
        served = []

        async def runner(queries):
            served.extend(queries)
            return list(queries)

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=100)
            batcher.start()
            futures = [batcher.submit(i) for i in range(7)]
            await batcher.stop()  # must answer all 7
            return await asyncio.gather(*futures)

        results = asyncio.run(scenario())
        assert results == list(range(7))
        assert served == list(range(7))

    def test_submit_after_stop_is_refused(self):
        async def runner(queries):
            return list(queries)

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=4)
            batcher.start()
            await batcher.stop()
            with pytest.raises(ServiceError):
                batcher.submit(object())

        asyncio.run(scenario())

    def test_runner_failure_propagates_to_every_future(self):
        async def runner(queries):
            raise RuntimeError("engine exploded")

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=8)
            batcher.start()
            futures = [batcher.submit(i) for i in range(3)]
            results = await asyncio.gather(*futures, return_exceptions=True)
            await batcher.stop()
            return results

        results = asyncio.run(scenario())
        assert all(isinstance(result, RuntimeError) for result in results)

    # -- the flush rule: loop turns, never a timer -------------------------- #
    @staticmethod
    def _recording(seen, gate=None):
        """Stub runner: records every batch; the first one waits on ``gate``."""

        async def runner(queries):
            seen.append(list(queries))
            if gate is not None and len(seen) == 1:
                await gate.wait()
            return list(queries)

        return runner

    def test_lone_submit_is_flushed_without_arming_a_timer(self):
        seen = []

        async def scenario():
            loop = asyncio.get_running_loop()
            armed = []
            real_call_at, real_call_later = loop.call_at, loop.call_later

            def spy(real):
                def arm(when, callback, *args, **kwargs):
                    armed.append(callback)
                    return real(when, callback, *args, **kwargs)

                return arm

            loop.call_at, loop.call_later = spy(real_call_at), spy(real_call_later)
            try:
                batcher = MicroBatcher(self._recording(seen), max_batch=16)
                batcher.start()
                answer = await batcher.submit("lone")
                await batcher.stop()
            finally:
                loop.call_at, loop.call_later = real_call_at, real_call_later
            return answer, armed, batcher.as_dict()

        answer, armed, stats = asyncio.run(scenario())
        assert answer == "lone" and seen == [["lone"]]
        assert armed == [], "a lone query must not wait on a timer"
        assert "max_delay_ms" not in stats

    def test_submissions_on_consecutive_turns_coalesce(self):
        seen = []

        async def scenario():
            batcher = MicroBatcher(self._recording(seen), max_batch=16)
            batcher.start()
            futures = []
            for position in range(5):
                futures.append(batcher.submit(position))
                await asyncio.sleep(0)
            results = await asyncio.gather(*futures)
            await batcher.stop()
            return results

        assert asyncio.run(scenario()) == list(range(5))
        assert seen == [list(range(5))]

    def test_arrivals_during_a_running_batch_form_the_next_batch_in_order(self):
        seen = []

        async def scenario():
            gate = asyncio.Event()
            batcher = MicroBatcher(self._recording(seen, gate), max_batch=16)
            batcher.start()
            first = batcher.submit("first")
            while not seen:  # the first batch is with the (blocked) runner
                await asyncio.sleep(0)
            later = [batcher.submit(position) for position in range(3)]
            await asyncio.sleep(0)
            later += [batcher.submit(position) for position in (3, 4)]
            for _ in range(8):
                await asyncio.sleep(0)
            assert seen == [["first"]], "nothing may be flushed beside a running batch"
            assert batcher.queue_depth == 5
            gate.set()
            results = await asyncio.gather(first, *later)
            await batcher.stop()
            return results

        assert asyncio.run(scenario()) == ["first", 0, 1, 2, 3, 4]
        assert seen == [["first"], [0, 1, 2, 3, 4]]

    def test_a_query_every_turn_flushes_at_max_batch_not_later(self):
        seen = []

        async def scenario():
            batcher = MicroBatcher(self._recording(seen), max_batch=4)
            batcher.start()
            futures = []
            for position in range(10):
                futures.append(batcher.submit(position))
                await asyncio.sleep(0)
            results = await asyncio.gather(*futures)
            await batcher.stop()
            return results, batcher.as_dict()

        results, stats = asyncio.run(scenario())
        assert results == list(range(10))
        assert seen == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert stats["full_flushes"] == 2 and stats["largest_batch"] == 4

    def test_stop_during_the_linger_answers_everything_queued(self):
        seen = []

        async def scenario():
            batcher = MicroBatcher(self._recording(seen), max_batch=16)
            batcher.start()
            futures = [batcher.submit(position) for position in range(3)]
            await asyncio.sleep(0)  # the worker took the three and yielded for company
            assert batcher.queue_depth == 0 and seen == []
            futures.append(batcher.submit(3))
            await batcher.stop()
            assert all(future.done() for future in futures)
            return await asyncio.gather(*futures)

        assert asyncio.run(scenario()) == [0, 1, 2, 3]
        assert seen == [[0, 1, 2, 3]]

    def test_deadline_expiring_behind_a_running_batch_is_shed_at_assembly(self):
        seen = []

        async def scenario():
            gate = asyncio.Event()
            batcher = MicroBatcher(self._recording(seen, gate), max_batch=3)
            batcher.start()
            first = batcher.submit("first")
            while not seen:
                await asyncio.sleep(0)
            budget = Deadline.after_ms(60_000)
            doomed = batcher.submit("doomed", deadline=budget)
            live = [batcher.submit("live-1"), batcher.submit("live-2")]
            # The budget runs out while the query waits behind the running
            # batch (no wall-clock sleep: the deadline is moved, not awaited).
            budget.expires_at = time.monotonic() - 1.0
            gate.set()
            results = await asyncio.gather(first, doomed, *live, return_exceptions=True)
            await batcher.stop()
            return results, batcher.as_dict()

        results, stats = asyncio.run(scenario())
        assert results[0] == "first" and results[2:] == ["live-1", "live-2"]
        assert isinstance(results[1], DeadlineExceededError)
        assert seen == [["first"], ["live-1", "live-2"]], "expired work reached the runner"
        assert stats["deadline_dropped"] == 1
        # Classified as assembled: three queries made the batch full, and
        # shedding one of them does not turn the flush into a drained one.
        assert stats["full_flushes"] == 1
        assert stats["batches_flushed"] == 2 and stats["queries_batched"] == 3

    def test_invalid_knobs(self):
        async def runner(queries):
            return list(queries)

        with pytest.raises(ServiceError):
            MicroBatcher(runner, max_batch=0)
        with pytest.raises(TypeError):
            # The linger is a rule, not a knob: the old argument is gone,
            # not accepted-and-ignored.
            MicroBatcher(runner, max_delay_ms=2.0)


# ---------------------------------------------------------------------- #
# graceful shutdown
# ---------------------------------------------------------------------- #
class TestGracefulDrain:
    def test_stop_answers_every_inflight_query(self, engine):
        # A slow scorer: the pipelined burst is admitted and then *waits* in
        # the batcher behind the running batch.  stop() must drain it and
        # every query must be answered before the connection closes.
        handle = start_service_thread(FaultyEngine.holding(engine, 300.0), max_batch=64)
        queries = _random_queries(10, seed=41)
        direct = [engine.query(query) for query in queries]
        outcome: dict = {}

        def run_client() -> None:
            try:
                with ServiceClient(*handle.address, read_timeout=60.0) as client:
                    outcome["answers"] = client.query_many(queries)  # blocks until drained
            except Exception as exc:
                outcome["error"] = exc

        client_thread = threading.Thread(target=run_client)
        try:
            client_thread.start()
            # Deterministic hand-off: stop only once every query has been
            # admitted and is waiting in the batcher — the drain guarantee
            # is about *admitted* queries, and this removes scheduler races.
            assert _wait_until(lambda: handle.service.admission.pending == len(queries))
            handle.stop()
            client_thread.join(timeout=60)
            assert not client_thread.is_alive()
            assert "error" not in outcome, outcome.get("error")
            answers = outcome["answers"]
            assert len(answers) == len(queries)
            for received, expected in zip(answers, direct):
                _assert_identical(received, expected)
        finally:
            handle.stop()
            client_thread.join(timeout=10)

    def test_queries_after_drain_get_typed_shutdown_error(self, engine):
        handle = start_service_thread(engine, max_batch=4)
        query = _random_queries(1, seed=43, with_topk=False)[0]
        try:
            client = ServiceClient(*handle.address)
            assert client.query(query).method == "GBDA"
            handle.stop()
            # The drained server hung up: the next request fails fast with a
            # typed error (or the OS-level connection error), never a hang.
            with pytest.raises((ServiceError, OSError)):
                client.query(query)
            client.close()
        finally:
            handle.stop()


# ---------------------------------------------------------------------- #
# zero-downtime snapshot hot swap
# ---------------------------------------------------------------------- #
class TestHotSwap:
    @pytest.fixture()
    def snapshots(self, fitted, tmp_path):
        """Two snapshots whose answers verifiably differ on the query stream."""
        rng = random.Random(47)
        # Loose thresholds (τ̂=2, γ=0.2) so an *exact copy* of the query
        # graph (GBD 0 → maximal posterior) is certainly accepted — engine
        # B's answers then provably differ from engine A's.
        queries = [
            SimilarityQuery(
                random_labeled_graph(rng.randint(5, 8), rng.randint(5, 10), seed=rng),
                2,
                0.2,
            )
            for _ in range(6)
        ]
        engine_a = BatchQueryEngine.from_search(fitted)
        path_a = tmp_path / "engine_a.snapshot"
        save_engine(engine_a, path_a)

        # Engine B serves a database grown by exact copies of the query
        # graphs: at τ̂ >= 0 those duplicates are accepted (GBD 0), so A and
        # B answers differ for every query — a torn mixture is detectable.
        engine_b = load_engine(path_a)
        engine_b.database.add_many([query.query_graph for query in queries])
        engine_b.model_version = engine_a.model_version + 1
        path_b = tmp_path / "engine_b.snapshot"
        save_engine(engine_b, path_b)
        return queries, path_a, path_b

    def test_hot_swap_under_load_never_serves_torn_answers(self, snapshots):
        queries, path_a, path_b = snapshots
        reference_a = load_engine(path_a)
        reference_b = load_engine(path_b)
        expected_a = [reference_a.query(query) for query in queries]
        expected_b = [reference_b.query(query) for query in queries]
        for a, b in zip(expected_a, expected_b):
            assert a.accepted_ids != b.accepted_ids, "fixtures must be distinguishable"

        handle = start_service_thread(
            None, snapshot_path=path_a, max_batch=8
        )
        stop_traffic = threading.Event()
        failures = []

        def traffic(worker: int) -> None:
            try:
                with ServiceClient(*handle.address) as client:
                    while not stop_traffic.is_set():
                        for position, answer in enumerate(client.query_many(queries)):
                            matches_a = (
                                answer.accepted_ids == expected_a[position].accepted_ids
                                and answer.scores == expected_a[position].scores
                            )
                            matches_b = (
                                answer.accepted_ids == expected_b[position].accepted_ids
                                and answer.scores == expected_b[position].scores
                            )
                            if not (matches_a or matches_b):
                                raise AssertionError(
                                    f"torn answer for query {position}: "
                                    f"{sorted(answer.accepted_ids)}"
                                )
            except Exception as exc:
                failures.append((worker, exc))

        threads = [threading.Thread(target=traffic, args=(worker,)) for worker in range(4)]
        try:
            for thread in threads:
                thread.start()
            with ServiceClient(*handle.address) as admin:
                before = admin.stats()
                assert before["engine"]["model_version"] == 0
                result = admin.reload(path_b)
                assert result["model_version"] == 1
                # After the reload returns, the swap has happened: every new
                # batch scores on engine B.
                for position, answer in enumerate(admin.query_many(queries)):
                    assert answer.accepted_ids == expected_b[position].accepted_ids
                    assert answer.scores == expected_b[position].scores
                after = admin.stats()
                assert after["engine"]["model_version"] == 1
                assert after["engine"]["database_size"] > before["engine"]["database_size"]
                assert after["server"]["reload_count"] == 1
        finally:
            stop_traffic.set()
            for thread in threads:
                thread.join(timeout=30)
            handle.stop()
        assert not failures, failures

    def test_answer_cache_does_not_outlive_the_model_that_filled_it(self, snapshots, tmp_path):
        """Idempotency across a hot swap: the same ``request_key`` before and
        after ``reload`` is re-scored on the new engine, never answered
        ``cached`` with the old model's result; a failed reload keeps the
        engine *and* its cache."""
        import socket

        from repro.service.protocol import decode_answer, query_request, recv_frame, send_frame

        queries, path_a, path_b = snapshots
        query = queries[0]
        expected_a = load_engine(path_a).query(query)
        expected_b = load_engine(path_b).query(query)
        assert expected_a.accepted_ids != expected_b.accepted_ids
        corrupt = tmp_path / "corrupt.snapshot"
        corrupt.write_bytes(b"this is not a snapshot")

        handle = start_service_thread(None, snapshot_path=path_a, max_batch=8)
        try:
            with socket.create_connection(handle.address, timeout=10) as sock:

                def ask(message_id):
                    send_frame(sock, query_request(message_id, query, request_key="same-key"))
                    reply = recv_frame(sock)
                    assert reply["kind"] == "answer", reply
                    return bool(reply.get("cached")), decode_answer(reply["answer"])

                cached, answer = ask(1)
                assert not cached
                _assert_identical(answer, expected_a)
                cached, answer = ask(2)
                assert cached
                _assert_identical(answer, expected_a)

                with ServiceClient(*handle.address) as admin:
                    with pytest.raises(ServiceError):
                        admin.reload(corrupt)
                    cached, answer = ask(3)
                    assert cached, "a failed reload keeps the engine and its answer cache"
                    _assert_identical(answer, expected_a)
                    assert admin.reload(path_b)["model_version"] == 1

                cached, answer = ask(4)
                assert not cached, "the old model's answer outlived the swap"
                _assert_identical(answer, expected_b)
                cached, answer = ask(5)
                assert cached
                _assert_identical(answer, expected_b)
        finally:
            handle.stop()

    def test_answer_in_flight_across_a_swap_is_not_cached(self, snapshots):
        """A keyed query held in the scorer while ``reload`` lands is answered
        by the old engine, after the cache was cleared: writing it back would
        serve the old model's answer ``cached`` under the new one."""
        import select
        import socket

        from repro.service.protocol import decode_answer, query_request, recv_frame, send_frame

        queries, path_a, path_b = snapshots
        query = queries[0]
        expected_a = load_engine(path_a).query(query)
        expected_b = load_engine(path_b).query(query)
        injector = FaultInjector(engine_stall=1.0, stall_ms=(400.0, 400.0))
        handle = start_service_thread(FaultyEngine(load_engine(path_a), injector), max_batch=8)
        try:
            with socket.create_connection(handle.address, timeout=10) as sock:

                def ask(message_id):
                    send_frame(sock, query_request(message_id, query, request_key="same-key"))

                def reply():
                    frame = recv_frame(sock)
                    assert frame["kind"] == "answer", frame
                    return bool(frame.get("cached")), decode_answer(frame["answer"])

                ask(1)
                assert _wait_until(lambda: injector.injected == 1)
                with ServiceClient(*handle.address) as admin:
                    assert admin.reload(path_b)["reload_count"] == 1
                assert not select.select([sock], [], [], 0)[0], "swap landed after the answer"
                cached, answer = reply()
                assert not cached
                _assert_identical(answer, expected_a)  # batched before the swap

                ask(2)
                cached, answer = reply()
                assert not cached, "an answer scored before the swap was cached after it"
                _assert_identical(answer, expected_b)
        finally:
            handle.stop()


# ---------------------------------------------------------------------- #
# deadlines end-to-end
# ---------------------------------------------------------------------- #
class TestDeadlines:
    def test_generous_deadline_answers_normally(self, engine):
        handle = start_service_thread(engine, max_batch=8)
        query = _random_queries(1, seed=61, with_topk=False)[0]
        try:
            with ServiceClient(*handle.address) as client:
                answer = client.query(query, deadline_ms=60_000)
            _assert_identical(answer, engine.query(query))
        finally:
            handle.stop()

    def test_tight_deadline_is_refused_at_admission(self, engine):
        # A sub-millisecond budget expires in transit: admission must
        # refuse it with the typed error before it costs engine cycles.
        handle = start_service_thread(engine, max_batch=8)
        query = _random_queries(1, seed=67, with_topk=False)[0]
        try:
            with ServiceClient(*handle.address) as client:
                results = [None] * 20
                for position in range(len(results)):
                    try:
                        results[position] = client.query(query, deadline_ms=0.001)
                    except DeadlineExceededError as exc:
                        results[position] = exc
            refused = [r for r in results if isinstance(r, DeadlineExceededError)]
            assert refused, "a 1µs deadline must expire before admission"
            stats = handle.service.metrics()
            assert stats["admission"]["deadline_expired"] >= len(refused)
            assert stats["resilience"]["deadline_dropped_admission"] >= len(refused)
        finally:
            handle.stop()

    def test_deadline_expiring_in_the_batch_queue_is_dropped_at_flush(self, engine):
        # A slow scorer is busy with one query; a second is admitted behind
        # it and its budget runs out while it waits.  The next flush must
        # shed it (typed error) instead of scoring expired work.
        # ``injector.injected`` counts the batches that reached the scorer.
        injector = FaultInjector(engine_stall=1.0, stall_ms=(200.0, 200.0))
        handle = start_service_thread(FaultyEngine(engine, injector), max_batch=64)
        first, query = _random_queries(2, seed=71, with_topk=False)
        try:
            with ServiceClient(*handle.address) as holder, ServiceClient(
                *handle.address
            ) as client:
                holding = threading.Thread(target=holder.query, args=(first,))
                holding.start()
                try:
                    assert _wait_until(lambda: injector.injected == 1)
                    with pytest.raises(DeadlineExceededError):
                        client.query(query, deadline_ms=30)
                finally:
                    holding.join(timeout=30)
            stats = handle.service.metrics()
            assert stats["batcher"]["deadline_dropped"] == 1
            assert stats["resilience"]["deadline_dropped_batcher"] == 1
            # The scorer was entered once, for the holding query alone.
            assert injector.injected == 1
            assert stats["serving"]["num_queries"] == 1
        finally:
            handle.stop()

    def test_invalid_deadline_is_a_bad_request(self, engine):
        from repro.exceptions import ProtocolError

        handle = start_service_thread(engine, max_batch=8)
        query = _random_queries(1, seed=73, with_topk=False)[0]
        try:
            with ServiceClient(*handle.address) as client:
                with pytest.raises(ProtocolError):
                    client.query(query, deadline_ms=-5)
                # The connection survives: later traffic is answered.
                _assert_identical(client.query(query), engine.query(query))
        finally:
            handle.stop()


# ---------------------------------------------------------------------- #
# stop() racing reload()
# ---------------------------------------------------------------------- #
class TestStopDuringReload:
    def test_stop_waits_for_an_inflight_swap(self, fitted, tmp_path):
        """stop() during a hot swap must serialize behind the reload lock:
        either the swap completes and then teardown runs, or the reload is
        refused — never an interleaving, never a hang."""
        engine = BatchQueryEngine.from_search(fitted)
        path = tmp_path / "engine.snapshot"
        save_engine(engine, path)
        handle = start_service_thread(
            engine, snapshot_path=path, max_batch=8
        )
        outcomes: dict = {}

        def do_reload() -> None:
            try:
                with ServiceClient(*handle.address, read_timeout=30.0) as client:
                    outcomes["reload"] = client.reload(path)
            except Exception as exc:
                outcomes["reload_error"] = exc

        reloader = threading.Thread(target=do_reload)
        reloader.start()
        handle.stop(timeout=60)
        reloader.join(timeout=60)
        assert not reloader.is_alive(), "stop() must not deadlock with reload()"
        # Whichever side won the race, it finished cleanly: a completed
        # swap or a typed refusal / connection teardown — never a hang.
        assert "reload" in outcomes or "reload_error" in outcomes

    def test_reload_after_close_is_refused(self, engine, tmp_path):
        path = tmp_path / "engine.snapshot"
        save_engine(engine, path)
        handle = start_service_thread(engine, max_batch=8)
        service = handle.service
        handle.stop()
        with pytest.raises(ServiceError, match="shutting down"):
            asyncio.run(service.reload_engine(path))


# ---------------------------------------------------------------------- #
# metrics endpoint
# ---------------------------------------------------------------------- #
class TestMetricsEndpoint:
    def test_metrics_document_shape(self, fitted):
        # A dedicated engine so cache counters start from zero.
        engine = BatchQueryEngine.from_search(fitted)
        handle = start_service_thread(engine, max_batch=8)
        queries = _random_queries(6, seed=53, with_topk=False)
        try:
            with ServiceClient(*handle.address) as client:
                client.query_many(queries)
                client.query_many(queries)  # repeats → cache hits
                metrics = client.stats()
            assert metrics["serving"]["num_queries"] == 2 * len(queries)
            assert metrics["serving"]["latency_samples"] == 2 * len(queries)
            assert 0.0 < metrics["serving"]["p99_latency"]
            # Satellite: the result-cache hit rate is surfaced here.
            assert metrics["engine"]["cache"]["hits"] >= len(queries)
            assert 0.0 < metrics["engine"]["cache"]["hit_rate"] <= 1.0
            assert metrics["engine"]["prune_counters"]["candidates_generated"] > 0
            # The resolved kernel backend is surfaced for fleet debugging.
            assert metrics["engine"]["kernel_backend"] in ("numpy", "native")
            assert metrics["batcher"]["batches_flushed"] >= 1
            assert metrics["batcher"]["queries_batched"] == 2 * len(queries)
            assert metrics["admission"]["admitted"] == 2 * len(queries)
            assert metrics["server"]["uptime_seconds"] > 0.0
        finally:
            handle.stop()

    def test_service_requires_engine_or_snapshot(self):
        from repro.service import SimilarityService

        with pytest.raises(ServiceError):
            SimilarityService()

    def test_corrupt_reload_answers_with_error_and_keeps_serving(self, engine, tmp_path):
        """A reload pointed at garbage must fail *loudly* (typed error frame,
        no hang) and leave the old engine serving."""
        bad = tmp_path / "corrupt.snapshot"
        bad.write_bytes(b"this is not a snapshot")
        handle = start_service_thread(engine, max_batch=4)
        query = _random_queries(1, seed=59, with_topk=False)[0]
        try:
            with ServiceClient(*handle.address, read_timeout=10.0) as client:
                with pytest.raises(ServiceError):
                    client.reload(bad)
                # Old engine still up and serving identical answers, and the
                # failure is visible in the metrics document.
                stats = client.stats()
                assert stats["server"]["reload_count"] == 0
                assert stats["server"]["reload_failures"] == 1
                _assert_identical(client.query(query), engine.query(query))
        finally:
            handle.stop()


# ---------------------------------------------------------------------- #
# hostile graphs and thresholds are the client's fault, per query
# ---------------------------------------------------------------------- #
def _raw_query_frame(message_id, query_section: bytes) -> bytes:
    """A query frame packed by hand from the documented layout (no optional fields)."""
    body = struct.pack("<cBqdHH", b"Q", 0, message_id, 0.0, 0, 0) + query_section
    return struct.pack(">I", len(body)) + body


def _raw_query_section(table, vertex_codes, edges, tau_hat=1, gamma=0.5) -> bytes:
    """Thresholds + graph section; ``edges`` are ``(u, v, label code)``."""
    text = json.dumps(table).encode("utf-8")
    ints = [*vertex_codes, *(e[2] for e in edges), *(e[0] for e in edges), *(e[1] for e in edges)]
    return (
        struct.pack("<qdq", tau_hat, gamma, 0)
        + struct.pack("<III", len(vertex_codes), len(edges), len(text))
        + text
        + struct.pack("<%dI" % len(ints), *ints)
    )


class TestHostileQueriesAreBadRequests:
    """Every graph or threshold defect of a frame is ``BAD_REQUEST`` — never
    ``SERVER_ERROR`` (which a retry policy may resend and ``_REQ_ERROR``
    counts as a server fault) — and the connection keeps serving."""

    CASES = {
        "self-loop": _raw_query_section([None, ["A", "x"], None], [0, 0], [(0, 0, 1)]),
        "edge-in-both-orientations": _raw_query_section(
            [None, ["A", "x"], None], [0, 0], [(0, 1, 1), (1, 0, 1)]
        ),
        "vertex-id-listed-twice": _raw_query_section(
            [None, ["A", "B", "x"], ["v", "v"]], [0, 1], [(0, 1, 2)]
        ),
        "no-thresholds": b"\x00" * 16,
        "tau-beyond-the-model": _raw_query_section(
            [None, ["A", "x"], None], [0, 0], [(0, 1, 1)], tau_hat=5
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raw_frame_in_bad_request_out(self, engine, case):
        import socket

        from repro.service import server as server_module
        from repro.service.protocol import decode_answer, query_request, recv_frame, send_frame

        assert engine.max_tau == 4
        handle = start_service_thread(engine, max_batch=8)
        query = _random_queries(1, seed=83, with_topk=False)[0]
        bad_before = server_module._REQ_BAD_REQUEST.value
        errors_before = server_module._REQ_ERROR.value
        try:
            with socket.create_connection(handle.address, timeout=10) as sock:
                sock.sendall(_raw_query_frame(41, self.CASES[case]))
                reply = recv_frame(sock)
                assert reply["id"] == 41 and reply["kind"] == "error", reply
                assert reply["error"]["code"] == "BAD_REQUEST", reply
                # The same connection answers the next valid query.
                send_frame(sock, query_request(42, query))
                reply = recv_frame(sock)
                assert reply["id"] == 42 and reply["kind"] == "answer", reply
                _assert_identical(decode_answer(reply["answer"]), engine.query(query))
            assert server_module._REQ_BAD_REQUEST.value == bad_before + 1
            assert server_module._REQ_ERROR.value == errors_before
            assert handle.service.admission.pending == 0
        finally:
            handle.stop()

    def test_a_bad_threshold_does_not_fail_its_batch_mates(self, engine):
        """τ̂ beyond the model is refused before batching: pipelined with valid
        queries it alone is an error."""
        from repro.exceptions import ProtocolError

        queries = _random_queries(6, seed=89, with_topk=False)
        queries[3] = SimilarityQuery(queries[3].query_graph, engine.max_tau + 1, 0.5)
        handle = start_service_thread(engine, max_batch=8)
        try:
            with ServiceClient(*handle.address) as client:
                results = client.query_many(queries, return_errors=True)
            for position, result in enumerate(results):
                if position == 3:
                    assert isinstance(result, ProtocolError), result
                else:
                    _assert_identical(result, engine.query(queries[position]))
        finally:
            handle.stop()
