"""Service-level observability tests: /metrics scrape, traces, slow log.

Covers the acceptance criteria of the observability subsystem:

* the plain-HTTP ``/metrics`` listener serves valid Prometheus text whose
  families span all five layers (kernels, core, engine, service, offline);
* scraped counters are monotonic while concurrent query load is running;
* a sampled query trace's depth-0 stage durations sum to within 10% of
  its recorded end-to-end latency;
* the ``stats``/``metrics`` admin command is a pure read — scraping twice
  reports identical counters and never mutates the server's ServingStats;
* the ``slow``, ``traces``, and ``prometheus`` admin commands round-trip;
* distributed tracing (v2): a client-rooted trace joins on the server
  (same trace id, parent span id = the client's span), latency-histogram
  exemplars link buckets to sampled trace ids, ``repro_build_info``
  identifies the process, the tracer/slow-log rings survive a hot swap
  with per-entry ``model_version`` attribution, and the ``logs`` /
  ``slo`` / ``profile`` admin commands round-trip.
"""

from __future__ import annotations

import asyncio
import random
import re
import socket
import threading
import urllib.error
import urllib.request

import pytest

import repro
from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.query import SimilarityQuery
from repro.exceptions import ServiceError
from repro.graphs.generators import random_labeled_graph
from repro.obs import dump
from repro.obs.trace import Tracer
from repro.serving import BatchQueryEngine, load_engine, save_engine
from repro.service import AsyncServiceClient, HedgePolicy, ServiceClient, start_service_thread
from repro.service.protocol import query_request, recv_frame, send_frame
from repro.testing.faults import FaultyEngine


@pytest.fixture(scope="module")
def engine():
    rng = random.Random(29)
    graphs = [
        random_labeled_graph(rng.randint(5, 9), rng.randint(5, 12), seed=rng)
        for _ in range(40)
    ]
    database = GraphDatabase(graphs, name="obs-service")
    search = GBDASearch(database, max_tau=4, num_prior_pairs=120, seed=7).fit()
    return BatchQueryEngine.from_search(search)


def _random_queries(num, seed):
    rng = random.Random(seed)
    return [
        SimilarityQuery(
            random_labeled_graph(rng.randint(4, 9), rng.randint(4, 12), seed=rng),
            rng.randint(1, 4),
            rng.choice([0.5, 0.75, 0.9]),
        )
        for _ in range(num)
    ]


@pytest.fixture(scope="module")
def handle(engine):
    with start_service_thread(
        engine,
        max_batch=8,
        trace_sample_rate=1.0,  # every query traced: deterministic assertions
        slow_query_ms=0.0,  # every query is "slow": the log always fills
        metrics_port=0,
    ) as running:
        yield running


def _scrape(handle) -> str:
    port = handle.service.metrics_http_port
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=10) as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in response.headers["Content-Type"]
        return response.read().decode("utf-8")


def _sample_value(text: str, prefix: str) -> float:
    for line in text.splitlines():
        if line.startswith(prefix):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"no sample starting with {prefix!r} in scrape")


class TestMetricsScrape:
    def test_scrape_covers_all_five_layers(self, handle):
        with ServiceClient(*handle.address) as client:
            client.query_many(_random_queries(16, seed=1))
        text = _scrape(handle)
        for family in (
            "repro_kernel_calls_total",  # db columnar kernels
            "repro_stage_seconds",  # execution core
            "repro_plan_choices_total",
            "repro_engine_queries_total",  # serving engine
            "repro_batcher_batch_size",  # service: batcher
            "repro_admission_admitted_total",  # service: admission
            "repro_service_requests_total",  # service: request handler
            "repro_offline_fits_total",  # offline (registered at import)
        ):
            assert f"# TYPE {family}" in text, f"{family} missing from scrape"
        assert _sample_value(text, 'repro_service_requests_total{outcome="answered"}') >= 16
        # Which compiled-kernel backend answered — an info-style gauge.
        assert _sample_value(text, "repro_kernel_backend_info{") == 1.0

    def test_http_404_for_unknown_path(self, handle):
        port = handle.service.metrics_http_port
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"http://127.0.0.1:{port}/nope", timeout=10)
        assert excinfo.value.code == 404

    def test_counters_are_monotonic_under_concurrent_load(self, handle):
        stop = threading.Event()

        def drive(seed):
            queries = _random_queries(6, seed)
            with ServiceClient(*handle.address) as client:
                while not stop.is_set():
                    client.query_many(queries, return_errors=True)

        drivers = [threading.Thread(target=drive, args=(seed,)) for seed in (11, 12)]
        for thread in drivers:
            thread.start()
        try:
            prefix = 'repro_service_requests_total{outcome="answered"}'
            previous = _sample_value(_scrape(handle), prefix)
            for _ in range(8):
                current = _sample_value(_scrape(handle), prefix)
                assert current >= previous
                previous = current
        finally:
            stop.set()
            for thread in drivers:
                thread.join()

    def test_prometheus_admin_command_matches_http(self, handle):
        with ServiceClient(*handle.address) as client:
            text = client.prometheus()
        assert "# TYPE repro_service_requests_total counter" in text


class TestTraces:
    def test_depth0_stages_sum_to_the_recorded_latency(self, handle):
        with ServiceClient(*handle.address) as client:
            client.query_many(_random_queries(8, seed=21))
            recent = client.traces(limit=8)["recent"]
        assert recent, "sample_rate=1.0 must retain traces"
        for doc in recent:
            total_ms = doc["total_ms"]
            depth0_ms = sum(
                span["duration_ms"] for span in doc["spans"] if span["depth"] == 0
            )
            assert total_ms > 0
            # Acceptance criterion: the handler-level stages partition the
            # end-to-end latency to within 10%.
            assert depth0_ms == pytest.approx(total_ms, rel=0.10)

    def test_traces_include_engine_substages(self, handle):
        with ServiceClient(*handle.address) as client:
            client.query_many(_random_queries(8, seed=22))
            recent = client.traces(limit=4)["recent"]
        names = {span["name"] for doc in recent for span in doc["spans"]}
        assert {"decode", "batcher", "serialize", "queue_wait", "score"} <= names

    def test_tracer_summary_counts(self, handle):
        with ServiceClient(*handle.address) as client:
            client.query_many(_random_queries(4, seed=23))
            summary = client.traces()["tracer"]
        assert summary["sample_rate"] == 1.0
        assert summary["sampled"] >= 4
        assert summary["seen"] >= summary["sampled"]


class TestSlowLogAndPurity:
    def test_slow_admin_command_returns_waterfalls(self, handle):
        with ServiceClient(*handle.address) as client:
            client.query_many(_random_queries(4, seed=31))
            slow = client.slow()
        assert slow["threshold_ms"] == 0.0
        assert slow["total_slow"] >= 4
        entry = slow["entries"][0]
        assert entry["latency_ms"] > 0
        assert "tau_hat" in entry["detail"]
        assert entry["trace"] is not None  # sample_rate=1.0: waterfall attached

    def test_metrics_is_a_pure_read(self, handle):
        with ServiceClient(*handle.address) as client:
            client.query_many(_random_queries(6, seed=41))
            first = client.stats()
            second = client.stats()
        for key in (
            "num_queries",
            "num_batches",
            "cache_hits",
            "cache_misses",
            "candidates_generated",
            "candidates_pruned",
            "candidates_verified",
        ):
            assert first["serving"][key] == second["serving"][key], key
        # The overlay never writes back: the server's own ServingStats only
        # ever holds what record_latency put there.
        stats = handle.service.stats
        assert stats.candidates_generated == 0
        assert stats.cache_hits == 0 and stats.cache_misses == 0
        assert stats.num_batches == 0
        # ... while the scrape reports the real engine-side counters.
        assert first["serving"]["candidates_generated"] > 0
        assert first["serving"]["num_batches"] > 0
        assert first["observability"]["tracer"]["sampled"] > 0


class TestDistributedTracing:
    def test_client_and_server_share_one_trace(self, handle):
        tracer = Tracer(sample_rate=1.0, seed=5)
        with ServiceClient(*handle.address, tracer=tracer) as client:
            client.query_many(_random_queries(3, seed=51))
        client_docs = tracer.recent_traces(limit=3)
        assert len(client_docs) == 3
        for doc in client_docs:
            # The server joined the propagated context: same trace id, and
            # its hop's parent span is the client's root span.
            server_docs = handle.service.tracer.find(doc["trace_id"])
            assert len(server_docs) == 1
            server = server_docs[0]
            assert server["parent_span_id"] == doc["span_id"]
            assert doc["parent_span_id"] is None  # client is the root
            # Depth-0 stages across the two hops: client send → server
            # admission → decode → batcher (queue/score below) → serialize
            # → client reply.
            client_depth0 = [s["name"] for s in doc["spans"] if s["depth"] == 0]
            server_depth0 = [s["name"] for s in server["spans"] if s["depth"] == 0]
            assert client_depth0 == ["send", "reply"]
            assert server_depth0 == ["admission", "decode", "batcher", "serialize"]
            assert {"queue_wait", "score"} <= {
                s["name"] for s in server["spans"] if s["depth"] == 1
            }
            # The single attempt is a tagged child span of the client root.
            attempts = [s for s in doc["spans"] if s["name"] == "attempt"]
            assert len(attempts) == 1
            assert attempts[0]["depth"] == 1
            assert attempts[0]["tags"] == {"attempt": 1, "outcome": "answered"}
            assert doc["detail"]["attempts"] == 1

    def test_server_depth0_still_partitions_total_when_joined(self, handle):
        tracer = Tracer(sample_rate=1.0, seed=6)
        with ServiceClient(*handle.address, tracer=tracer) as client:
            client.query_many(_random_queries(4, seed=52))
        for doc in tracer.recent_traces(limit=4):
            server = handle.service.tracer.find(doc["trace_id"])[0]
            depth0_ms = sum(
                span["duration_ms"] for span in server["spans"] if span["depth"] == 0
            )
            assert depth0_ms == pytest.approx(server["total_ms"], rel=0.10)

    def test_malformed_trace_field_never_rejects_a_query(self, handle):
        query = _random_queries(1, seed=53)[0]
        with socket.create_connection(handle.address, timeout=10) as sock:
            message = query_request(1, query)
            message["trace"] = "definitely-not-a-traceparent"
            send_frame(sock, message)
            response = recv_frame(sock)
        assert response["kind"] == "answer"

    def test_unsampled_context_suppresses_the_server_trace(self, handle):
        query = _random_queries(1, seed=54)[0]
        trace_id = "ab" * 16
        with socket.create_connection(handle.address, timeout=10) as sock:
            message = query_request(1, query)
            message["trace"] = f"00-{trace_id}-{'cd' * 8}-00"  # sampled flag off
            send_frame(sock, message)
            response = recv_frame(sock)
        assert response["kind"] == "answer"
        # Head decision wins: despite the server's own sample_rate=1.0 the
        # query is served untraced.
        assert handle.service.tracer.find(trace_id) == []

    def test_hedged_query_is_one_root_trace_with_tagged_children(self, engine):
        tracer = Tracer(sample_rate=1.0, seed=7)
        queries = _random_queries(3, seed=55)
        # A scorer that holds every batch 20 ms keeps the primary in flight
        # past the hedge delay: every query hedges.
        slow = FaultyEngine.holding(engine, 20.0)

        async def run(address):
            client = await AsyncServiceClient.connect(
                *address,
                tracer=tracer,
                hedge=HedgePolicy(percentile=50.0, min_delay_ms=0.01),
            )
            try:
                for query in queries:
                    await client.query(query)
            finally:
                await client.close()

        with start_service_thread(slow, max_batch=8, trace_sample_rate=1.0) as handle:
            asyncio.run(run(handle.address))
        docs = tracer.recent_traces(limit=len(queries))
        assert len(docs) == len(queries)
        for doc in docs:
            hedges = [s for s in doc["spans"] if s["name"] == "hedge"]
            attempts = [s for s in doc["spans"] if s["name"] == "attempt"]
            assert len(attempts) == 1
            # The hedge fired (delay ~0); both sends belong to the same root
            # trace and each carries its outcome.
            assert len(hedges) == 1
            assert hedges[0]["depth"] == 1
            assert hedges[0]["tags"]["outcome"] in (
                "won",
                "cancelled",
                "idempotency-cache-hit",
            )
            assert attempts[0]["tags"]["outcome"] in (
                "answered",
                "cancelled",
                "idempotency-cache-hit",
            )


class TestExemplarsAndBuildInfo:
    def test_latency_buckets_carry_trace_exemplars(self, handle):
        tracer = Tracer(sample_rate=1.0, seed=8)
        with ServiceClient(*handle.address, tracer=tracer) as client:
            client.query_many(_random_queries(4, seed=61))
            text = client.prometheus()
        lines = text.splitlines()
        exemplar_lines = [
            (index, line)
            for index, line in enumerate(lines)
            if line.startswith("# {trace_id=")
        ]
        assert exemplar_lines, "no exemplar comments in exposition"
        for index, line in exemplar_lines:
            # Exemplars ride directly below a histogram bucket sample and
            # carry a well-formed 128-bit trace id plus the observed value.
            assert "_bucket{" in lines[index - 1]
            match = re.match(r'^# \{trace_id="([0-9a-f]{32})"\} ([-+0-9.eE]+)$', line)
            assert match, line
        # The request-latency family specifically has one, and it matches a
        # trace retained by the server-side tracer ring.
        request_exemplars = [
            line
            for index, line in exemplar_lines
            if lines[index - 1].startswith("repro_service_request_seconds_bucket")
        ]
        assert request_exemplars

    def test_snapshot_includes_exemplars(self, handle):
        tracer = Tracer(sample_rate=1.0, seed=9)
        with ServiceClient(*handle.address, tracer=tracer) as client:
            client.query_many(_random_queries(2, seed=62))
        sample = dump()["repro_service_request_seconds"]["samples"][0]
        assert "exemplars" in sample
        for bound, exemplar in sample["exemplars"].items():
            assert bound in sample["buckets"]
            assert re.fullmatch(r"[0-9a-f]{32}", exemplar["trace_id"])
            assert exemplar["value"] >= 0.0

    def test_build_info_in_stats_and_exposition(self, handle):
        with ServiceClient(*handle.address) as client:
            stats = client.stats()
            text = client.prometheus()
        build = stats["build"]
        assert build["version"] == repro.__version__
        assert build["kernel_backend"] in ("numpy", "native", "unknown")
        assert build["python_version"].count(".") == 2
        info_line = next(
            line for line in text.splitlines() if line.startswith("repro_build_info{")
        )
        assert info_line.endswith(" 1")
        assert f'version="{repro.__version__}"' in info_line


class TestAdminCommands:
    def test_logs_round_trip_and_filters(self, handle):
        with ServiceClient(*handle.address, tracer=Tracer(1.0, seed=10)) as client:
            client.query_many(_random_queries(2, seed=71))
            doc = client.logs(limit=16)
            assert doc["total_events"] >= 1
            assert isinstance(doc["events"], list)
            # slow_query_ms=0.0: every query logs a warning-level slow_query
            # event correlated with its trace id.
            warnings = client.logs(limit=16, level="warning")["events"]
        slow_events = [e for e in warnings if e["event"] == "slow_query"]
        assert slow_events
        record = slow_events[0]
        # Chatty per-query events ride a dedicated logger (own rate-limit
        # bucket) so they can never starve rare "service" lifecycle events.
        assert record["logger"] == "service.slow"
        assert re.fullmatch(r"[0-9a-f]{32}", record["trace_id"])
        assert record["model_version"] == 0
        assert record["latency_ms"] > 0

    def test_slo_round_trip(self, handle):
        with ServiceClient(*handle.address) as client:
            client.query_many(_random_queries(2, seed=72))
            report = client.slo()
            text = client.prometheus()
        assert report["windows_seconds"] == [300.0, 3600.0]
        objectives = {o["name"]: o for o in report["objectives"]}
        assert set(objectives) == {"latency", "availability"}
        for objective in objectives.values():
            assert objective["state"] in ("ok", "warn", "page")
            assert set(objective["burn_rates"]) == {"300s", "3600s"}
            assert 0.0 <= objective["compliance"] <= 1.0
        # The evaluation exported its gauges next to the source metrics.
        assert 'repro_slo_state{slo="latency"}' in text
        assert 'repro_slo_burn_rate{slo="availability",window="300s"}' in text

    def test_profile_lifecycle(self, handle):
        with ServiceClient(*handle.address) as client:
            status = client.profile()
            assert status["running"] is False
            started = client.profile("start")
            assert started["started"] is True
            assert client.profile("start")["started"] is False  # idempotent
            # Sampling happens while queries run.
            client.query_many(_random_queries(8, seed=73))
            dumped = client.profile("dump")
            assert isinstance(dumped["collapsed"], str)
            stopped = client.profile("stop")
            assert stopped["stopped"] is True
            assert client.profile()["running"] is False
            client.profile("reset")
            assert client.profile()["samples"] == 0

    def test_profile_unknown_action_is_a_typed_error(self, handle):
        with ServiceClient(*handle.address) as client:
            with pytest.raises(ServiceError):
                client.profile("explode")
            # The connection stays usable after the typed error.
            assert client.ping()["pong"] is True

    def test_stats_observability_summary(self, handle):
        with ServiceClient(*handle.address) as client:
            stats = client.stats()
        observability = stats["observability"]
        assert set(observability["slo"]) == {"latency", "availability"}
        assert observability["logs"]["total_events"] >= 0
        assert observability["profiler"]["running"] in (True, False)


class TestHotSwapObservability:
    """Regression: tracer ring + slow log survive reloads with attribution."""

    @pytest.fixture()
    def snapshots(self, engine, tmp_path):
        path_a = tmp_path / "engine_a.snapshot"
        save_engine(engine, path_a)
        bumped = load_engine(path_a)
        bumped.model_version = engine.model_version + 1
        path_b = tmp_path / "engine_b.snapshot"
        save_engine(bumped, path_b)
        return path_a, path_b

    def test_rings_survive_reload_with_model_version_stamps(self, snapshots):
        path_a, path_b = snapshots
        handle = start_service_thread(
            None,
            snapshot_path=path_a,
            trace_sample_rate=1.0,
            slow_query_ms=0.0,
        )
        try:
            with ServiceClient(*handle.address) as client:
                client.query_many(_random_queries(3, seed=81))
                before_traces = client.traces(limit=64)["recent"]
                before_ids = {doc["trace_id"] for doc in before_traces}
                before_slow = client.slow()["total_slow"]
                assert before_traces and before_slow >= 3

                result = client.reload(path_b)
                assert result["model_version"] == 1

                client.query_many(_random_queries(3, seed=82))
                after_traces = client.traces(limit=64)["recent"]
                after_slow = client.slow()

            # The rings survived: every pre-reload trace is still retained...
            after_ids = {doc["trace_id"] for doc in after_traces}
            assert before_ids <= after_ids
            assert after_slow["total_slow"] > before_slow
            # ...and every entry attributes itself to the model that served
            # it: old waterfalls to version 0, new ones to version 1.
            versions = {
                doc["trace_id"]: doc["detail"]["model_version"] for doc in after_traces
            }
            assert all(versions[trace_id] == 0 for trace_id in before_ids)
            new_ids = after_ids - before_ids
            assert new_ids and all(versions[trace_id] == 1 for trace_id in new_ids)
            slow_versions = [
                entry["detail"]["model_version"] for entry in after_slow["entries"]
            ]
            assert 0 in slow_versions and 1 in slow_versions
        finally:
            handle.stop()

    def test_reload_emits_structured_events(self, snapshots):
        path_a, path_b = snapshots
        handle = start_service_thread(None, snapshot_path=path_a)
        try:
            with ServiceClient(*handle.address) as client:
                client.reload(path_b)
                events = client.logs(limit=32, logger="service")["events"]
        finally:
            handle.stop()
        reloaded = [e for e in events if e["event"] == "engine_reloaded"]
        assert reloaded
        assert reloaded[0]["model_version"] == 1
        assert reloaded[0]["previous_model_version"] == 0
