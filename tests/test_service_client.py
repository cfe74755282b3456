"""The request state machine behind both service clients, and its two drivers.

Part one drives :class:`repro.service.client._Requests` alone — no socket,
no event loop: ids and keys, the query encoded once per logical request,
what a reply / a late reply / a dead stream means for the pending table,
the retry decision, what the breaker hears, the trace spans, and a
hypothesis state machine over send / reply / late reply / stream failure /
abandon.

Part two runs :class:`ServiceClient` and :class:`AsyncServiceClient` through
the *same* scenarios behind a two-method adapter (``open`` / ``call``) and
holds both to the same observables — against the real service where the
answer matters, against a scripted listener where the exact sequence of
replies does.  It carries the regressions of four defects of the two-client
design: a request written to a dead connection, a reconnect storm, a late
reply matched to the next request, and two breaker accounting rules.
"""

from __future__ import annotations

import asyncio
import random
import socket
import threading
import time
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.query import QueryAnswer, SimilarityQuery
from repro.exceptions import (
    CircuitOpenError,
    ConnectionLostError,
    ProtocolError,
    ServiceOverloadedError,
)
from repro.graphs.generators import random_labeled_graph
from repro.obs.trace import Tracer
from repro.serving import BatchQueryEngine
from repro.service import (
    AsyncServiceClient,
    CircuitBreaker,
    HedgePolicy,
    RetryPolicy,
    ServiceClient,
    protocol,
    start_service_thread,
)
from repro.service import client as client_module
from repro.service.client import _Requests
from repro.service.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_OVERLOADED,
    decode_frame,
    encode_answer,
    error_response,
    recv_frame,
    send_frame,
)
from repro.testing.faults import FaultyEngine

#: What the scripted listener answers with; any answer would do.
ANSWER = QueryAnswer("GBDA", frozenset({1, 4}), {1: 0.75, 4: 0.5}, 0.001)


def _query(seed: int = 0, tau_hat: int = 1) -> SimilarityQuery:
    return SimilarityQuery(random_labeled_graph(5, 6, seed=seed), tau_hat, 0.5)


def _answer(message_id, cached: bool = False) -> dict:
    message = {"id": message_id, "kind": "answer", "answer": encode_answer(ANSWER)}
    if cached:
        message["cached"] = True
    return message


def _sent(requests: _Requests, call, hedge: bool = False) -> dict:
    """Write one send of ``call`` nowhere; returns the frame as the server would parse it."""
    message = decode_frame(requests.send(call, hedge=hedge)[4:])
    if not hedge:
        requests.sent(call)
    return message


def _attempt(requests: _Requests, call) -> int:
    requests.admit([call])
    return _sent(requests, call)["id"]


# ---------------------------------------------------------------------- #
# part one: the machine alone
# ---------------------------------------------------------------------- #
class TestRequestMachine:
    def test_ids_strictly_increase_across_calls_attempts_and_hedges(self):
        requests = _Requests(hedge=HedgePolicy())
        query, ping = requests.query(_query()), requests.admin("ping")
        ids = [_attempt(requests, query), _sent(requests, query, hedge=True)["id"]]
        ids += [_attempt(requests, ping), _attempt(requests, query)]
        assert ids == [1, 2, 3, 4]
        assert set(requests.pending) == {1, 2, 3, 4}

    def test_one_key_per_logical_query(self):
        requests = _Requests(hedge=HedgePolicy())
        call = requests.query(_query())
        keys = []
        for _ in range(3):
            requests.admit([call])
            keys.append(_sent(requests, call)["request_key"])
            keys.append(_sent(requests, call, hedge=True)["request_key"])
        assert set(keys) == {call.key}, "every attempt and hedge reuses the key"
        other = requests.query(_query())
        assert other.key != call.key
        # Distinct between client instances: same counter, another prefix.
        assert _Requests().query(_query()).key != call.key

    def test_query_section_is_encoded_once_per_logical_query(self, monkeypatch):
        calls = []
        real = protocol.encode_query

        def spy(query):
            calls.append(query)
            return real(query)

        monkeypatch.setattr(protocol, "encode_query", spy)
        requests = _Requests(hedge=HedgePolicy())
        call = requests.query(_query(), deadline_ms=250.0)
        sections = []
        for _ in range(3):
            requests.admit([call])
            sections.append(_sent(requests, call)["query"])
        sections.append(_sent(requests, call, hedge=True)["query"])
        assert len(calls) == 1, "three attempts and a hedge reuse one encoding"
        assert len(set(sections)) == 1 and sections[0] == real(_query())

    def test_reply_to_an_id_the_client_gave_up_on_is_dropped(self):
        requests = _Requests(hedge=HedgePolicy())
        call = requests.query(_query())
        abandoned = _attempt(requests, call)
        assert requests.fail([call], TimeoutError("slow")) == [call]
        assert requests.reply(_answer(abandoned)) == []
        assert isinstance(call.result, TimeoutError), "the late reply changed nothing"
        # The loser of a hedge is such an id too.
        primary = _attempt(requests, call)
        duplicate = _sent(requests, call, hedge=True)["id"]
        assert requests.reply(_answer(duplicate)) == [call]
        assert requests.reply(_answer(primary)) == []
        assert call.value() == ANSWER and not requests.pending

    @pytest.mark.parametrize("bad_id", [2, 0, -1, "1", 1.0, None, True, [1]])
    def test_reply_to_an_id_never_issued_is_a_protocol_error(self, bad_id):
        requests = _Requests()
        call = requests.query(_query())
        assert _attempt(requests, call) == 1
        with pytest.raises(ProtocolError, match="unknown request id"):
            requests.reply(_answer(bad_id))
        assert set(requests.pending) == {1} and not call.done

    def test_an_undecodable_answer_leaves_its_send_pending_for_the_stream_failure(self):
        requests = _Requests()
        call = requests.query(_query())
        message_id = _attempt(requests, call)
        with pytest.raises(ProtocolError):
            requests.reply({"id": message_id, "kind": "answer", "answer": b"\x00"})
        assert requests.stream_failed(ProtocolError("corrupt")) == [call]

    def test_stream_failure_loses_every_pending_send_exactly_once(self):
        requests = _Requests(hedge=HedgePolicy())
        calls = [requests.query(_query(seed)) for seed in range(3)]
        for call in calls:
            _attempt(requests, call)
        _sent(requests, calls[1], hedge=True)  # two sends, one call
        answered = requests.admin("ping")
        assert requests.reply({"id": _attempt(requests, answered), "kind": "admin"}) == [answered]
        lost = requests.stream_failed(ConnectionResetError("reset by peer"))
        assert sorted(map(id, lost)) == sorted(map(id, calls))
        assert requests.pending == {}
        assert all(isinstance(call.result, ConnectionLostError) for call in calls)
        assert answered.value() == {}, "a call already answered keeps its answer"
        assert requests.stream_failed(ConnectionResetError("again")) == []

    def test_a_lost_stream_is_connection_lost_but_a_timeout_stays_a_timeout(self):
        requests = _Requests()
        results = []
        for error in (ProtocolError("corrupt frame"), BrokenPipeError(), TimeoutError("slow")):
            call = requests.query(_query())
            _attempt(requests, call)
            requests.stream_failed(error)
            results.append(type(call.result))
        assert results == [ConnectionLostError, ConnectionLostError, TimeoutError]

    def test_retry_delay(self):
        def failed(requests, error, attempts=1, admin=False):
            call = requests.admin("reload") if admin else requests.query(_query())
            for _ in range(attempts):
                _attempt(requests, call)
                requests.fail([call], error)
            return call

        overloaded = ServiceOverloadedError("shed")
        assert _Requests().retry_delay(failed(_Requests(), overloaded)) is None  # no policy
        policy = RetryPolicy(max_attempts=3, base_delay_ms=10, jitter=0.0)
        requests = _Requests(retry=policy)
        call = requests.query(_query())
        requests.reply(_answer(_attempt(requests, call)))
        assert requests.retry_delay(call) is None, "an answer stands"
        for error in (ProtocolError("BAD_REQUEST"), CircuitOpenError("open")):
            call = requests.query(_query())
            _attempt(requests, call)
            call.result = error
            assert requests.retry_delay(call) is None, error
        assert requests.retry_delay(failed(requests, overloaded, admin=True)) is None
        assert requests.retry_delay(failed(requests, overloaded, attempts=3)) is None
        assert policy.retries == 0, "a refused retry is not counted"
        assert requests.retry_delay(failed(requests, overloaded, attempts=2)) == 0.020
        assert policy.retries == 1, "exactly one retry recorded"
        assert requests.retry_delay(failed(requests, TimeoutError("slow"))) == 0.010
        assert policy.retries == 2

    def test_the_breaker_hears_only_about_the_transport(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_ms=60_000)
        requests = _Requests(breaker=breaker)
        call = requests.query(_query())
        for code in (ERROR_BAD_REQUEST, ERROR_OVERLOADED, ERROR_BAD_REQUEST, ERROR_OVERLOADED):
            requests.reply(error_response(_attempt(requests, call), code, "refused"))
        assert breaker.as_dict()["consecutive_failures"] == 0
        _attempt(requests, call)
        requests.fail([call], TimeoutError("slow"))
        assert breaker.as_dict()["consecutive_failures"] == 1
        requests.reply(error_response(_attempt(requests, call), ERROR_OVERLOADED, "refused"))
        assert breaker.as_dict()["consecutive_failures"] == 0, "any reply shows it alive"
        for error in (TimeoutError("slow"), ConnectionRefusedError("dial")):
            assert breaker.state == CircuitBreaker.CLOSED
            _attempt(requests, call)
            requests.fail([call], error)
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError):
            requests.admit([call])
        requests.admit([requests.admin("ping")])  # an admin command is not gated

    def test_an_abandoned_probe_is_handed_back_a_settled_one_is_not(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_ms=1)
        requests = _Requests(breaker=breaker)

        def half_open():
            call = requests.query(_query())
            _attempt(requests, call)
            requests.fail([call], TimeoutError("slow"))
            time.sleep(0.01)
            assert breaker.state == CircuitBreaker.HALF_OPEN

        half_open()
        probe = requests.query(_query())
        _attempt(requests, probe)
        with pytest.raises(CircuitOpenError):
            requests.admit([requests.query(_query())])  # one probe, and it is out
        requests.finish(probe)  # its caller left: cancelled, interrupted
        assert breaker.state == CircuitBreaker.HALF_OPEN and not breaker._probe_inflight
        following = requests.query(_query())
        requests.reply(_answer(_attempt(requests, following)))  # the next request is the probe
        assert breaker.state == CircuitBreaker.CLOSED
        requests.finish(following)

        # A probe that settled released nothing: the claim of the probe that
        # followed its failure is not undone by finishing it.
        half_open()
        probe = requests.query(_query())
        _attempt(requests, probe)
        requests.fail([probe], ConnectionResetError("reset"))
        time.sleep(0.01)
        following = requests.query(_query())
        _attempt(requests, following)
        requests.finish(probe)
        assert breaker.state == CircuitBreaker.HALF_OPEN and breaker._probe_inflight
        requests.finish(requests.admin("ping"))  # never admitted, not gated: nothing to release
        assert breaker._probe_inflight
        requests.reply(_answer(_sent(requests, following)["id"]))
        requests.finish(following)

        # The claim is decided where the probe is taken and names that probe:
        # a call admitted on a closed circuit holds none, and the abandoned
        # sibling of a round whose probe failed does not hand back the next one.
        early = requests.query(_query())
        _attempt(requests, early)
        assert breaker.state == CircuitBreaker.CLOSED and early.probe == 0
        half_open()
        first, sibling = requests.query(_query()), requests.query(_query())
        requests.admit([first, sibling])
        assert first.probe == sibling.probe != 0
        _sent(requests, first), _sent(requests, sibling)
        requests.fail([first], TimeoutError("slow"))
        time.sleep(0.01)
        following = requests.query(_query())
        _attempt(requests, following)
        assert following.probe not in (0, first.probe)
        requests.finish(early), requests.finish(sibling)  # both unsettled
        assert breaker.state == CircuitBreaker.HALF_OPEN and breaker._probe_inflight

    def test_spans_of_a_retried_query(self):
        tracer = Tracer(sample_rate=1.0, seed=1)
        requests = _Requests(tracer=tracer, endpoint="host:1")
        call = requests.query(_query())
        _attempt(requests, call)
        requests.fail([call], TimeoutError("slow"))
        requests.reply(error_response(_attempt(requests, call), ERROR_OVERLOADED, "shed"))
        requests.reply(_answer(_attempt(requests, call), cached=True))
        assert tracer.recent_traces() == [], "published by finish, not before"
        requests.finish(call)
        (doc,) = tracer.recent_traces()
        assert doc["detail"] == {"endpoint": "host:1", "request_key": call.key, "attempts": 3}
        assert [s["name"] for s in doc["spans"] if s["depth"] == 0] == ["send", "reply"]
        attempts = [s for s in doc["spans"] if s["name"] == "attempt"]
        assert all(span["depth"] == 1 for span in attempts)
        assert [span["tags"] for span in attempts] == [
            {"attempt": 1, "outcome": "TimeoutError"},
            {"attempt": 2, "outcome": "ServiceOverloadedError"},
            {"attempt": 3, "outcome": "idempotency-cache-hit"},
        ]

    @pytest.mark.parametrize(
        "winner, tags, counters",
        [
            ("primary", {"attempt": "answered", "hedge": "cancelled"}, (0, 1)),
            ("hedge", {"attempt": "cancelled", "hedge": "won"}, (1, 0)),
            (None, {"attempt": "TimeoutError", "hedge": "TimeoutError"}, (0, 0)),
        ],
    )
    def test_spans_and_counters_of_a_hedged_attempt(self, winner, tags, counters):
        tracer, hedge = Tracer(sample_rate=1.0, seed=2), HedgePolicy()
        requests = _Requests(hedge=hedge, tracer=tracer)
        call = requests.query(_query())
        ids = {"primary": _attempt(requests, call)}
        ids["hedge"] = _sent(requests, call, hedge=True)["id"]
        if winner is None:
            requests.fail([call], TimeoutError("slow"))
        else:
            requests.reply(_answer(ids[winner]))
        requests.finish(call)
        (doc,) = tracer.recent_traces()
        spans = {s["name"]: s["tags"]["outcome"] for s in doc["spans"] if s["depth"] == 1}
        assert spans == tags
        assert (hedge.hedges_won, hedge.hedges_cancelled) == counters
        assert hedge.hedges_sent == 1 and not requests.pending

    def test_finish_forgets_what_the_call_was_owed(self):
        requests = _Requests()
        call = requests.query(_query())
        message_id = _attempt(requests, call)
        requests.finish(call)  # the caller left mid-attempt (cancelled, interrupted)
        assert requests.pending == {}
        assert requests.reply(_answer(message_id)) == []
        assert not call.done


class RequestsMachine(RuleBasedStateMachine):
    """Every attempt ends at most once, and the table holds only ids that were issued."""

    def __init__(self):
        super().__init__()
        self.requests = _Requests(hedge=HedgePolicy())
        self.calls = []
        self.issued = []
        self.ended = Counter()  # (call, attempt number) -> times it ended

    def _ended(self, calls):
        assert len(set(map(id, calls))) == len(calls), "a call reported twice by one event"
        for call in calls:
            assert call.done
            self.ended[id(call), call.attempt] += 1

    def _waiting(self):
        return [call for call in self.calls if call.ids]

    @rule(admin=st.booleans())
    def send(self, admin):
        call = self.requests.admin("ping") if admin else self.requests.query(_query())
        self.calls.append(call)
        self.issued.append(_attempt(self.requests, call))

    @precondition(lambda self: self._waiting())
    @rule(data=st.data())
    def hedge(self, data):
        call = data.draw(st.sampled_from(self._waiting()))
        self.issued.append(_sent(self.requests, call, hedge=True)["id"])

    @precondition(lambda self: any(call.done for call in self.calls))
    @rule(data=st.data())
    def next_attempt(self, data):
        call = data.draw(st.sampled_from([call for call in self.calls if call.done]))
        self.issued.append(_attempt(self.requests, call))

    @precondition(lambda self: self.issued)
    @rule(data=st.data(), error=st.booleans())
    def reply(self, data, error):
        """To any id ever issued: pending, already answered (a duplicate) or given up on."""
        message_id = data.draw(st.sampled_from(self.issued))
        expected = self.requests.pending.get(message_id)
        message = error_response(message_id, ERROR_OVERLOADED, "shed") if error else (
            _answer(message_id))
        ended = self.requests.reply(message)
        assert ended == ([] if expected is None else [expected])
        self._ended(ended)

    @rule(message_id=st.one_of(st.integers(), st.none(), st.text(max_size=3)))
    def reply_to_an_id_never_issued(self, message_id):
        if message_id in self.issued and not isinstance(message_id, bool):
            return
        before = dict(self.requests.pending)
        with pytest.raises(ProtocolError):
            self.requests.reply(_answer(message_id))
        assert self.requests.pending == before

    @precondition(lambda self: self._waiting())
    @rule(data=st.data())
    def time_out(self, data):
        call = data.draw(st.sampled_from(self._waiting()))
        self._ended(self.requests.fail([call], TimeoutError("slow")))

    @rule()
    def stream_failure(self):
        waiting = self._waiting()
        lost = self.requests.stream_failed(ConnectionResetError("reset"))
        assert sorted(map(id, lost)) == sorted(map(id, waiting))
        assert self.requests.pending == {}
        self._ended(lost)

    @precondition(lambda self: self._waiting())
    @rule(data=st.data())
    def abandon(self, data):
        call = data.draw(st.sampled_from(self._waiting()))
        self.requests.finish(call)
        assert not call.ids and not call.done

    @invariant()
    def the_table_holds_issued_ids_of_waiting_calls_only(self):
        assert set(self.requests.pending) <= set(self.issued)
        assert set(self.requests.pending) == {i for call in self.calls for i in call.ids}
        assert not any(call.done for call in self.requests.pending.values())

    @invariant()
    def no_attempt_ended_twice(self):
        assert all(times == 1 for times in self.ended.values())


RequestsMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestRequestsStateMachine = RequestsMachine.TestCase


# ---------------------------------------------------------------------- #
# part two: both drivers, the same scenarios
# ---------------------------------------------------------------------- #
def _interrupted(sock):
    raise KeyboardInterrupt


class _SyncDriver:
    def open(self, address, **options):
        return ServiceClient(*address, **options)

    def call(self, client, method, *args, **kwargs):
        return getattr(client, method)(*args, **kwargs)

    def abandon(self, client, query, monkeypatch):
        """The caller is interrupted while it waits for the reply."""
        with monkeypatch.context() as patch:
            patch.setattr(client_module, "recv_frame", _interrupted)
            with pytest.raises(KeyboardInterrupt):
                client.query(query)

    def stop(self):
        pass


class _AsyncDriver:
    def __init__(self):
        self.loop = asyncio.new_event_loop()

    def open(self, address, **options):
        return self.loop.run_until_complete(AsyncServiceClient.connect(*address, **options))

    def call(self, client, method, *args, **kwargs):
        return self.loop.run_until_complete(getattr(client, method)(*args, **kwargs))

    def abandon(self, client, query, monkeypatch):
        """The caller's task is cancelled while it waits for the reply."""

        async def run():
            task = asyncio.ensure_future(client.query(query))
            await _until(lambda: client._requests.pending)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        self.loop.run_until_complete(run())

    def stop(self):
        self.loop.close()


@pytest.fixture(params=[_SyncDriver, _AsyncDriver], ids=["sync", "async"])
def driver(request):
    adapter = request.param()
    try:
        yield adapter
    finally:
        adapter.stop()


@pytest.fixture(scope="module")
def engine():
    rng = random.Random(181)
    graphs = [
        random_labeled_graph(rng.randint(5, 9), rng.randint(5, 12), seed=rng)
        for _ in range(40)
    ]
    fitted = GBDASearch(
        GraphDatabase(graphs, name="client"), max_tau=4, num_prior_pairs=120, seed=18
    ).fit()
    return BatchQueryEngine.from_search(fitted)


def _queries(num, seed):
    rng = random.Random(seed)
    return [
        SimilarityQuery(
            random_labeled_graph(rng.randint(4, 8), rng.randint(4, 10), seed=rng),
            rng.randint(0, 4),
            rng.choice([0.5, 0.75, 0.9]),
            top_k=3 if position % 3 == 0 else None,
        )
        for position in range(num)
    ]


def _assert_identical(received: QueryAnswer, direct: QueryAnswer) -> None:
    assert received.accepted_ids == direct.accepted_ids
    assert received.scores == direct.scores
    assert received.ranking == direct.ranking
    assert received.method == direct.method


class _Listener:
    """A TCP listener on a thread: ``serve(index, sock)`` runs for each accepted
    connection, on its own thread, and the connection closes when it returns."""

    def __init__(self, serve):
        self._serve = serve
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(64)
        self._sock.settimeout(0.05)
        self.address = self._sock.getsockname()
        self.accepted = 0
        self._connections = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self):
        while not self._stop.is_set():
            try:
                connection, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            connection.settimeout(None)
            self._connections.append(connection)
            index, self.accepted = self.accepted, self.accepted + 1
            threading.Thread(target=self._run, args=(index, connection), daemon=True).start()

    def _run(self, index, connection):
        try:
            self._serve(index, connection)
        except (OSError, ProtocolError):
            pass  # the client went away mid-script
        finally:
            connection.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()
        for connection in self._connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)  # wakes a handler blocked in recv
            except OSError:
                pass
        self._sock.close()


def _hang_up(index, connection):
    """The endpoint is dead: every connection is accepted and closed."""


def _hold(index, connection):
    """A stalled endpoint: reads everything, says nothing."""
    while connection.recv(65536):
        pass


class _Script:
    """``serve`` for :class:`_Listener`: the n-th frame received — counted over
    all connections — is answered by ``replies[n](message)``, and frames beyond
    the script with the canned answer; ``None`` says nothing."""

    def __init__(self, *replies):
        self.replies = replies
        self.frames = []
        self._lock = threading.Lock()

    def __call__(self, index, connection):
        while True:
            message = recv_frame(connection)
            if message is None:
                return
            with self._lock:
                position = len(self.frames)
                self.frames.append(message)
            reply = self.replies[position] if position < len(self.replies) else _answer
            if reply is not None:
                send_frame(connection, reply(message["id"]))


def _overloaded(message_id):
    return error_response(message_id, ERROR_OVERLOADED, "scripted shed")


def _attempt_tags(doc):
    return [span["tags"] for span in doc["spans"] if span["name"] == "attempt"]


class TestBothDrivers:
    def test_answers_are_bit_identical_to_the_engine(self, driver, engine):
        queries = _queries(7, seed=182)
        with start_service_thread(engine, max_batch=8) as handle:
            client = driver.open(handle.address)
            try:
                _assert_identical(driver.call(client, "query", queries[0]), engine.query(queries[0]))
                answers = driver.call(client, "query_many", queries)
                assert driver.call(client, "ping")["pong"] is True
                assert "repro_service_requests_total" in driver.call(client, "prometheus")
                assert driver.call(client, "traces", limit=2)["recent"] is not None
            finally:
                driver.call(client, "close")
        for received, query in zip(answers, queries):
            _assert_identical(received, engine.query(query))

    def test_overloaded_is_retried_to_success(self, driver):
        script = _Script(_overloaded, _overloaded)
        retry = RetryPolicy(max_attempts=5, base_delay_ms=1, jitter=0.0)
        with _Listener(script) as listener:
            client = driver.open(listener.address, retry=retry)
            try:
                assert driver.call(client, "query", _query()) == ANSWER
            finally:
                driver.call(client, "close")
        assert retry.retries == 2
        assert len(script.frames) == 3
        assert len({frame["request_key"] for frame in script.frames}) == 1
        assert len({frame["id"] for frame in script.frames}) == 3

    def test_without_a_policy_the_typed_error_is_raised_and_the_client_stays_usable(self, driver):
        with _Listener(_Script(_overloaded)) as listener:
            client = driver.open(listener.address)
            try:
                with pytest.raises(ServiceOverloadedError):
                    driver.call(client, "query", _query())
                results = driver.call(client, "query_many", [_query(1), _query(2)])
                assert results == [ANSWER, ANSWER]
                assert listener.accepted == 1, "a typed refusal does not cost the connection"
            finally:
                driver.call(client, "close")

    def test_a_request_that_cannot_be_framed_raises_as_it_is(self, driver, monkeypatch):
        with _Listener(_Script()) as listener:
            client = driver.open(listener.address, retry=RetryPolicy(max_attempts=3))
            try:
                with monkeypatch.context() as patch:
                    patch.setattr(protocol, "MAX_FRAME_BYTES", 64)
                    with pytest.raises(ProtocolError, match="exceeds"):
                        driver.call(client, "query_many", [_query(1), _query(2)])
                assert client._requests.pending == {}
                assert driver.call(client, "query", _query()) == ANSWER
                assert listener.accepted == 1, "nothing was wrong with the connection"
            finally:
                driver.call(client, "close")

    def test_a_traced_query_is_send_attempt_reply(self, driver, engine):
        tracer = Tracer(sample_rate=1.0, seed=3)
        with start_service_thread(engine, max_batch=8) as handle:
            client = driver.open(handle.address, tracer=tracer)
            try:
                driver.call(client, "query", _queries(1, seed=183)[0])
            finally:
                driver.call(client, "close")
        (doc,) = tracer.recent_traces()
        assert [s["name"] for s in doc["spans"] if s["depth"] == 0] == ["send", "reply"]
        assert _attempt_tags(doc) == [{"attempt": 1, "outcome": "answered"}]
        assert doc["detail"]["attempts"] == 1
        assert doc["detail"]["endpoint"] == "%s:%d" % handle.address

    def test_a_retried_query_is_one_trace_with_a_span_per_attempt(self, driver):
        # shed, then stalled past the read timeout, then answered
        script = _Script(_overloaded, None)
        tracer = Tracer(sample_rate=1.0, seed=4)
        retry = RetryPolicy(max_attempts=4, base_delay_ms=1, jitter=0.0)
        with _Listener(script) as listener:
            client = driver.open(listener.address, retry=retry, tracer=tracer, read_timeout=0.2)
            try:
                assert driver.call(client, "query", _query()) == ANSWER
            finally:
                driver.call(client, "close")
        (doc,) = tracer.recent_traces()
        assert doc["detail"]["attempts"] == 3
        assert _attempt_tags(doc) == [
            {"attempt": 1, "outcome": "ServiceOverloadedError"},
            {"attempt": 2, "outcome": "TimeoutError"},
            {"attempt": 3, "outcome": "answered"},
        ]
        assert [s["name"] for s in doc["spans"] if s["depth"] == 0] == ["send", "reply"]
        assert retry.retries == 2

    def test_a_replayed_key_is_tagged_as_an_idempotency_cache_hit(self, driver, engine):
        tracer = Tracer(sample_rate=1.0, seed=5)
        query = _queries(1, seed=184)[0]
        with start_service_thread(engine, max_batch=8) as handle:
            client = driver.open(handle.address, tracer=tracer)
            try:
                first = driver.call(client, "query", query)
                client._requests._next_key -= 1  # the next query replays the key
                second = driver.call(client, "query", query)
            finally:
                driver.call(client, "close")
        _assert_identical(second, first)
        replayed, original = tracer.recent_traces()
        assert _attempt_tags(original) == [{"attempt": 1, "outcome": "answered"}]
        assert _attempt_tags(replayed) == [{"attempt": 1, "outcome": "idempotency-cache-hit"}]

    # -- defect (c): a reply that arrives after its request was given up on -- #
    def test_a_late_reply_is_never_matched_to_a_later_request(self, driver, engine):
        first, later = _queries(2, seed=185)
        with start_service_thread(FaultyEngine.holding(engine, 500.0), max_batch=8) as handle:
            client = driver.open(handle.address, read_timeout=0.2)
            try:
                with pytest.raises(TimeoutError):
                    driver.call(client, "query", first)
                client.read_timeout = 30.0
                _assert_identical(driver.call(client, "query", later), engine.query(later))
                _assert_identical(driver.call(client, "query", first), engine.query(first))
            finally:
                driver.call(client, "close")

    # -- defect (d): breaker accounting is one rule ------------------------ #
    def test_typed_refusals_leave_the_breaker_closed(self, driver, engine):
        good = _queries(1, seed=186)[0]
        bad = SimilarityQuery(good.query_graph, engine.max_tau + 1, 0.5)
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_ms=60_000)
        with start_service_thread(engine, max_batch=8) as handle:
            client = driver.open(handle.address, breaker=breaker)
            try:
                for _ in range(2):
                    with pytest.raises(ProtocolError):
                        driver.call(client, "query", bad)
                _assert_identical(driver.call(client, "query", good), engine.query(good))
            finally:
                driver.call(client, "close")
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.as_dict()["opened"] == 0

    def test_overloaded_replies_leave_the_breaker_closed(self, driver):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_ms=60_000)
        with _Listener(_Script(_overloaded, _overloaded, _overloaded)) as listener:
            client = driver.open(listener.address, breaker=breaker)
            try:
                for _ in range(3):
                    with pytest.raises(ServiceOverloadedError):
                        driver.call(client, "query", _query())
                assert driver.call(client, "query", _query()) == ANSWER
            finally:
                driver.call(client, "close")
        assert breaker.as_dict()["opened"] == 0

    def test_endpoint_death_opens_the_breaker_after_exactly_threshold_attempts(self, driver):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_ms=60_000)
        with _Listener(_hang_up) as listener:
            client = driver.open(listener.address, breaker=breaker, read_timeout=3.0)
            try:
                for failures in (1, 2):
                    assert breaker.state == CircuitBreaker.CLOSED
                    with pytest.raises(ConnectionLostError):
                        driver.call(client, "query", _query())
                    assert breaker.as_dict()["consecutive_failures"] == failures
                assert breaker.state == CircuitBreaker.OPEN
                dials = listener.accepted
                with pytest.raises(CircuitOpenError):
                    driver.call(client, "query", _query())
                time.sleep(0.1)
                assert listener.accepted == dials, "a refused call must not touch the socket"
            finally:
                driver.call(client, "close")

    def test_an_abandoned_half_open_probe_does_not_shut_the_circuit_for_good(
        self, driver, monkeypatch
    ):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_ms=100)
        # Two frames go unanswered — the query that opens the circuit and the
        # probe that is abandoned — and everything after them is answered.
        with _Listener(_Script(None, None)) as listener:
            client = driver.open(listener.address, breaker=breaker, read_timeout=0.2)
            try:
                with pytest.raises(TimeoutError):
                    driver.call(client, "query", _query(1))
                assert breaker.state == CircuitBreaker.OPEN
                time.sleep(0.15)
                driver.abandon(client, _query(2), monkeypatch)
                assert client._requests.pending == {}
                assert breaker.state == CircuitBreaker.HALF_OPEN
                assert driver.call(client, "query", _query(3)) == ANSWER  # sent: it is the probe
                assert breaker.state == CircuitBreaker.CLOSED
                assert breaker.as_dict()["fast_failures"] == 0
            finally:
                driver.call(client, "close")

    # -- defect (a): no request is written to a dead connection ------------ #
    @pytest.mark.parametrize("request_kind", ["ping", "query"])
    def test_a_dead_connection_fails_at_once_not_after_the_read_timeout(
        self, driver, request_kind
    ):
        arguments = () if request_kind == "ping" else (_query(),)
        with _Listener(_hang_up) as listener:
            client = driver.open(listener.address, read_timeout=3.0)
            try:
                time.sleep(0.1)  # the hang-up has reached the client
                for _ in range(2):  # the call after the failure is no different
                    started = time.perf_counter()
                    with pytest.raises(ConnectionLostError):
                        driver.call(client, request_kind, *arguments)
                    assert time.perf_counter() - started < 0.5
            finally:
                driver.call(client, "close")


# ---------------------------------------------------------------------- #
# the asyncio driver's connection
# ---------------------------------------------------------------------- #
def _reader_tasks():
    return [
        task for task in asyncio.all_tasks()
        if getattr(task.get_coro(), "__name__", "") == "_read_loop" and not task.done()
    ]


async def _until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        await asyncio.sleep(0.005)
    assert condition()


class TestAsyncConnection:
    def test_bare_streams_raise_connection_lost_without_dialling(self):
        async def run(address):
            reader, writer = await asyncio.open_connection(*address)
            client = AsyncServiceClient(reader, writer, read_timeout=3.0)
            try:
                await _until(lambda: client.connection_lost)
                started = time.perf_counter()
                with pytest.raises(ConnectionLostError, match="no endpoint"):
                    await client.ping()
                with pytest.raises(ConnectionLostError, match="no endpoint"):
                    await client.query(_query())
                assert time.perf_counter() - started < 0.5
            finally:
                await client.close()

        with _Listener(_hang_up) as listener:
            asyncio.run(run(listener.address))
            assert listener.accepted == 1

    # -- defect (b): a reconnect storm at the worst moment ----------------- #
    def test_one_dial_however_many_callers_wait(self):
        def hang_up_then_hold(index, connection):
            if index:
                _hold(index, connection)

        async def run(address):
            retry = RetryPolicy(max_attempts=2, base_delay_ms=1, jitter=0.0)
            client = await AsyncServiceClient.connect(*address, retry=retry, read_timeout=0.2)
            try:
                await _until(lambda: client.connection_lost)
                results = await client.query_many(
                    [_query(seed) for seed in range(16)], return_errors=True
                )
                assert [type(result) for result in results] == [TimeoutError] * 16
                assert retry.retries == 16
                assert not client.connection_lost
                assert len(_reader_tasks()) == 1
            finally:
                await client.close()
            assert _reader_tasks() == []

        with _Listener(hang_up_then_hold) as listener:
            asyncio.run(run(listener.address))
            assert listener.accepted == 2, "the first connection, and one dial for 16 callers"

    def test_a_dial_that_times_out_is_the_builtin_timeout_error(self, monkeypatch):
        async def never(host, port):
            await asyncio.sleep(30)

        monkeypatch.setattr(asyncio, "open_connection", never)

        async def run():
            with pytest.raises(TimeoutError, match="no connection within"):
                await AsyncServiceClient.connect("127.0.0.1", 1, connect_timeout=0.05)

        asyncio.run(run())
        assert RetryPolicy().is_retryable(TimeoutError("no connection within 0.050s"))

    def test_a_cancelled_caller_leaves_nothing_pending(self):
        async def run(address):
            client = await AsyncServiceClient.connect(*address, read_timeout=5.0)
            try:
                task = asyncio.ensure_future(client.query(_query()))
                await _until(lambda: client._requests.pending)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                assert client._requests.pending == {}
                assert not client.connection_lost
            finally:
                await client.close()

        with _Listener(_hold) as listener:
            asyncio.run(run(listener.address))


class TestSyncConnection:
    def test_timeout_argument_is_gone(self):
        with pytest.raises(TypeError):
            ServiceClient("127.0.0.1", 1, timeout=1.0)

    def test_timeouts_default_to_thirty_seconds(self):
        with _Listener(_hold) as listener:
            with ServiceClient(*listener.address) as client:
                assert (client.connect_timeout, client.read_timeout) == (30.0, 30.0)
                assert client._sock.gettimeout() == 30.0

    def test_a_pipelined_round_keeps_the_answers_it_read_before_the_stream_died(self):
        def two_then_hang_up(index, connection):
            if index == 0:
                # Everything is read first: closing over unread frames would
                # reset the connection and may discard the two answers.
                ids = [recv_frame(connection)["id"] for _ in range(5)]
                for message_id in ids[:2]:
                    send_frame(connection, _answer(message_id))
            else:
                _Script()(index, connection)

        retry = RetryPolicy(max_attempts=3, base_delay_ms=1, jitter=0.0)
        with _Listener(two_then_hang_up) as listener:
            with ServiceClient(*listener.address, retry=retry, read_timeout=3.0) as client:
                results = client.query_many([_query(seed) for seed in range(5)])
            assert results == [ANSWER] * 5
            assert listener.accepted == 2
        assert retry.retries == 3, "only the three unanswered queries are sent again"
