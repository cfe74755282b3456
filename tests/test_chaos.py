"""Chaos suite: the service's failure-model invariant under injected faults.

The invariant, per fault class and with everything combined:

    **Every query either returns the bit-identical correct answer or a
    typed error, and the service returns to healthy.**

Faults come from the seeded harness in :mod:`repro.testing.faults` — a
frame-aware proxy tearing up the wire (drops, corruption, truncation,
resets, delays), an engine wrapper raising/stalling mid-batch, and
kill-and-restart of the whole service thread.  The seed is pinned via the
``REPRO_CHAOS_SEED`` environment variable (CI runs one pinned and one
unpinned, allowed-to-fail, flake-detector pass); on an invariant failure
the injector's full fault schedule is dumped to ``results/`` so the run
can be replayed exactly.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.query import QueryAnswer, SimilarityQuery
from repro.exceptions import ReproError
from repro.graphs.generators import random_labeled_graph
from repro.obs.trace import Tracer
from repro.serving import BatchQueryEngine
from repro.service import RetryPolicy, ServiceClient, start_service_thread
from repro.testing import ChaosService, FaultInjector, FaultyEngine, start_fault_proxy

#: One seed pins every injector in the module; override to explore.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1729"))

#: Errors that count as *typed* under the invariant: every library error
#: plus the builtin transient classes the clients intentionally raise.
TYPED_ERRORS = (ReproError, TimeoutError, ConnectionError, OSError)

_SCHEDULE_DIR = Path(__file__).resolve().parent.parent / "results"


# ---------------------------------------------------------------------- #
# fixtures & helpers
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fitted():
    rng = random.Random(CHAOS_SEED)
    graphs = [
        random_labeled_graph(rng.randint(5, 9), rng.randint(5, 12), seed=rng)
        for _ in range(40)
    ]
    database = GraphDatabase(graphs, name="chaos")
    return GBDASearch(database, max_tau=4, num_prior_pairs=120, seed=CHAOS_SEED).fit()


@pytest.fixture(scope="module")
def engine(fitted):
    return BatchQueryEngine.from_search(fitted)


@pytest.fixture(scope="module")
def workload(engine):
    rng = random.Random(CHAOS_SEED + 1)
    queries = [
        SimilarityQuery(
            random_labeled_graph(rng.randint(4, 8), rng.randint(4, 10), seed=rng),
            rng.randint(0, 4),
            rng.choice([0.5, 0.75, 0.9]),
            top_k=5 if position % 4 == 0 else None,
        )
        for position in range(12)
    ]
    return queries, [engine.query(query) for query in queries]


def _retry_policy():
    return RetryPolicy(
        max_attempts=8, base_delay_ms=20, max_delay_ms=250, seed=CHAOS_SEED
    )


def _dump_schedule(name: str, injector: FaultInjector) -> Path:
    """Persist the injector's replayable schedule (the CI failure artifact)."""
    _SCHEDULE_DIR.mkdir(parents=True, exist_ok=True)
    artifact = _SCHEDULE_DIR / f"chaos_schedule_{name}.json"
    artifact.write_text(json.dumps(injector.as_dict(), indent=2, sort_keys=True))
    return artifact


def _run_workload(address, workload, *, read_timeout=2.0):
    """Drive every query through a retrying client; return per-slot outcomes."""
    queries, _ = workload
    outcomes = []
    client = ServiceClient(*address, retry=_retry_policy(), read_timeout=read_timeout)
    try:
        for query in queries:
            try:
                outcomes.append(client.query(query))
            except TYPED_ERRORS as exc:
                outcomes.append(exc)
                # The connection may be poisoned; start clean for the
                # next query so one failure cannot cascade.
                try:
                    client._reconnect()
                except TYPED_ERRORS:
                    pass
    finally:
        client.close()
    return outcomes


def _check_invariant(name, injector, outcomes, workload, healthy_address):
    """Answer-or-typed-error per slot, then the service is healthy again."""
    _, direct = workload
    try:
        for position, (outcome, expected) in enumerate(zip(outcomes, direct)):
            if isinstance(outcome, QueryAnswer):
                assert outcome.accepted_ids == expected.accepted_ids, position
                assert outcome.scores == expected.scores, position
                assert outcome.ranking == expected.ranking, position
            else:
                assert isinstance(outcome, TYPED_ERRORS), (
                    f"slot {position} surfaced an untyped failure: {outcome!r}"
                )
        # Recovery: a clean client, straight at the service, gets service.
        # A FaultyEngine keeps injecting probabilistically even now, so the
        # probe tolerates a few typed failures — but must land one clean,
        # bit-identical answer.
        with ServiceClient(*healthy_address, read_timeout=10.0) as probe:
            assert probe.ping()["pong"] is True
            answer = None
            for _ in range(20):
                try:
                    answer = probe.query(workload[0][0])
                    break
                except TYPED_ERRORS:
                    continue
            assert answer is not None, "service did not recover"
            assert answer.accepted_ids == direct[0].accepted_ids
            assert probe.stats()["server"]["uptime_seconds"] > 0
    except AssertionError:
        artifact = _dump_schedule(name, injector)
        raise AssertionError(
            f"chaos invariant violated (seed={injector.seed}); "
            f"fault schedule dumped to {artifact}"
        ) from None


def _wire_case(engine, workload, name, **fault_probs):
    """One wire-fault class: service ← fault proxy ← retrying client.

    The workload repeats (bounded) until the injector has fired at least
    once — the invariant must be judged on a run that actually saw the
    fault class, whatever the seed.
    """
    injector = FaultInjector(CHAOS_SEED, **fault_probs)
    handle = start_service_thread(engine, max_batch=8)
    proxy = start_fault_proxy(handle.address, injector)
    try:
        for _ in range(5):
            outcomes = _run_workload(proxy.address, workload)
            _check_invariant(name, injector, outcomes, workload, handle.address)
            if injector.injected > 0:
                break
        assert injector.injected > 0, "the fault class must actually fire"
    finally:
        proxy.stop()
        handle.stop()


# ---------------------------------------------------------------------- #
# one class at a time
# ---------------------------------------------------------------------- #
class TestWireFaults:
    def test_dropped_responses(self, engine, workload):
        _wire_case(engine, workload, "drop", drop=0.2)

    def test_corrupted_frames(self, engine, workload):
        _wire_case(engine, workload, "corrupt", corrupt=0.2)

    def test_truncated_frames(self, engine, workload):
        _wire_case(engine, workload, "truncate", truncate=0.15)

    def test_connection_resets(self, engine, workload):
        _wire_case(engine, workload, "reset", reset=0.15)

    def test_injected_delays(self, engine, workload):
        # Delays beyond the read timeout look like a stalled server.
        _wire_case(
            engine, workload, "delay", delay=0.3, delay_ms=(5.0, 100.0)
        )


class TestEngineFaults:
    def test_mid_batch_exceptions(self, engine, workload):
        injector = FaultInjector(CHAOS_SEED, engine_fault=0.3)
        handle = start_service_thread(
            FaultyEngine(engine, injector), max_batch=8
        )
        try:
            outcomes = _run_workload(handle.address, workload)
            _check_invariant("engine_raise", injector, outcomes, workload, handle.address)
            assert injector.injected > 0
        finally:
            handle.stop()

    def test_mid_batch_stalls(self, engine, workload):
        injector = FaultInjector(
            CHAOS_SEED, engine_stall=0.4, stall_ms=(20.0, 120.0)
        )
        handle = start_service_thread(
            FaultyEngine(engine, injector), max_batch=8
        )
        try:
            outcomes = _run_workload(handle.address, workload, read_timeout=1.0)
            _check_invariant("engine_stall", injector, outcomes, workload, handle.address)
        finally:
            handle.stop()


class TestProcessFaults:
    def test_kill_and_restart_mid_workload(self, engine, workload):
        queries, direct = workload
        chaos = ChaosService(engine, max_batch=8)
        chaos.start()
        injector = FaultInjector(CHAOS_SEED)  # only for schedule/dump symmetry
        outcomes = []
        client = ServiceClient(
            *chaos.address, retry=_retry_policy(), read_timeout=2.0
        )
        try:
            for position, query in enumerate(queries):
                if position == len(queries) // 2:
                    chaos.kill()  # crash mid-stream...
                    chaos.restart()  # ...and come back on the same port
                try:
                    outcomes.append(client.query(query))
                except TYPED_ERRORS as exc:
                    outcomes.append(exc)
                    try:
                        client._reconnect()
                    except TYPED_ERRORS:
                        pass
            _check_invariant(
                "kill_restart", injector, outcomes, workload, chaos.address
            )
            assert chaos.restarts == 1
            # The retrying client rode through the crash: at least the
            # queries after the restart all answered.
            tail = outcomes[len(queries) // 2 + 1 :]
            assert any(isinstance(outcome, QueryAnswer) for outcome in tail)
        finally:
            client.close()
            chaos.stop()


# ---------------------------------------------------------------------- #
# everything at once
# ---------------------------------------------------------------------- #
class TestCombinedChaos:
    def test_all_fault_classes_together(self, engine, workload):
        injector = FaultInjector(
            CHAOS_SEED,
            drop=0.08,
            corrupt=0.05,
            truncate=0.05,
            reset=0.05,
            delay=0.1,
            delay_ms=(5.0, 60.0),
            engine_fault=0.1,
            engine_stall=0.1,
            stall_ms=(10.0, 80.0),
        )
        handle = start_service_thread(
            FaultyEngine(engine, injector), max_batch=8
        )
        proxy = start_fault_proxy(handle.address, injector)
        try:
            outcomes = _run_workload(proxy.address, workload)
            _check_invariant("combined", injector, outcomes, workload, handle.address)
            assert injector.injected > 0
            # The schedule is the replay artifact: it must be serializable
            # and carry the seed that reproduces this exact run.
            replay = json.loads(json.dumps(injector.as_dict()))
            assert replay["seed"] == CHAOS_SEED
            assert replay["injected"] == len(replay["schedule"])
        finally:
            proxy.stop()
            handle.stop()

    def test_tracing_survives_wire_faults_without_orphans(self, engine, workload):
        """Dropped/retried frames still yield exactly one root trace each.

        Every logical query must map to a single client-rooted trace whose
        child spans record every attempt (tagged with its number and
        outcome), and every server-side hop must join one of those roots —
        no orphan traces, however the wire misbehaved.
        """
        queries, _ = workload
        injector = FaultInjector(CHAOS_SEED, drop=0.25)
        tracer = Tracer(sample_rate=1.0, keep=4 * len(queries), seed=CHAOS_SEED)
        handle = start_service_thread(engine, max_batch=8)
        proxy = start_fault_proxy(handle.address, injector)
        try:
            client = ServiceClient(
                *proxy.address,
                retry=_retry_policy(),
                read_timeout=1.0,
                tracer=tracer,
            )
            try:
                for query in queries:
                    try:
                        client.query(query)
                    except TYPED_ERRORS:
                        try:
                            client._reconnect()
                        except TYPED_ERRORS:
                            pass
            finally:
                client.close()
            assert injector.injected > 0, "the fault class must actually fire"

            client_docs = tracer.recent_traces(limit=4 * len(queries))
            # Exactly one root per logical query, each finished with its
            # attempt count, no duplicated trace ids.
            assert len(client_docs) == len(queries)
            client_ids = {doc["trace_id"] for doc in client_docs}
            assert len(client_ids) == len(queries)
            retried = 0
            for doc in client_docs:
                assert doc["parent_span_id"] is None
                attempts = sorted(
                    (span for span in doc["spans"] if span["name"] == "attempt"),
                    key=lambda span: span["tags"]["attempt"],
                )
                assert attempts, f"trace {doc['trace_id']} recorded no attempts"
                numbers = [span["tags"]["attempt"] for span in attempts]
                assert numbers == list(range(1, len(attempts) + 1))
                assert all(span["depth"] == 1 for span in attempts)
                assert all(span["tags"]["outcome"] for span in attempts)
                assert doc["detail"]["attempts"] == numbers[-1]
                if len(attempts) > 1:
                    retried += 1
            assert retried > 0, "drops at 25% over 8 attempts must retry somewhere"

            # No orphans: every server hop belongs to a client root.
            server_docs = handle.service.tracer.recent_traces(limit=256)
            assert server_docs, "server joined none of the propagated contexts"
            for doc in server_docs:
                assert doc["trace_id"] in client_ids
                assert doc["parent_span_id"] is not None
        except AssertionError:
            artifact = _dump_schedule("tracing", injector)
            raise AssertionError(
                f"chaos tracing invariant violated (seed={injector.seed}); "
                f"fault schedule dumped to {artifact}"
            ) from None
        finally:
            proxy.stop()
            handle.stop()

    def test_injector_decision_stream_is_deterministic(self):
        kwargs = dict(
            drop=0.1, corrupt=0.1, truncate=0.1, reset=0.1, delay=0.1,
            engine_fault=0.2, engine_stall=0.2,
        )
        a, b = FaultInjector(42, **kwargs), FaultInjector(42, **kwargs)
        decisions_a = [a.wire_action("response") for _ in range(200)]
        decisions_a += [a.engine_action() for _ in range(100)]
        decisions_b = [b.wire_action("response") for _ in range(200)]
        decisions_b += [b.engine_action() for _ in range(100)]
        assert decisions_a == decisions_b
        assert a.schedule == b.schedule
