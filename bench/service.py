"""``service_wire``: a saved engine behind a ``SimilarityService``, driven over TCP.

Service and generator share this process and one event loop: one thread does
all the codec, framing, admission and batching work of both ends of the wire,
and the service's own executor thread scores the batches.  The process is
confined to one CPU, so the two threads take turns, the calibration loop shares
exactly their core, and whatever else the host runs has the other cores to
itself (README, rule 5 and "What the driver refused": with the service in a
child process and each end pinned to a core of its own, the closed loops spread
34 % between runs of the same code on the machine that accepts the benchmark).
"""

from __future__ import annotations

import asyncio
import gc
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.db.query import SimilarityQuery
from repro.exceptions import ReproError, ServiceOverloadedError
from repro.service.client import AsyncServiceClient
from repro.service.server import SimilarityService
from repro.serving.snapshot import load_engine, save_engine

from bench import harness, inputs
from bench.harness import Calibration, PhaseResult, Staged
from bench.inputs import TOP_K, QuerySpec, ServiceSizes
from bench.oracle import AnswerBook, Oracle, canonical
from bench.trace import Recorder, Spans
from bench.workloads import (
    KIND_TAGS, SETUP_BURST_S, TAG_OTHER, TAG_SINGLE, end_to_end, median_stages, oracle_verdict,
    overhead_pct, per_query_us, set_up_engine, settle,
)

SETUPS = 5
TAGS = dict(KIND_TAGS, serial=4)
#: What a caller can get back instead of an answer: a typed refusal or error
#: from the server, a client-side timeout, a connection that went away.
QUERY_ERRORS = (ReproError, TimeoutError, OSError)


def _query(spec: QuerySpec, top_k: Optional[int] = None) -> SimilarityQuery:
    return SimilarityQuery(spec.graph, spec.tau_hat, spec.gamma, top_k=top_k)


class Generator:
    """The four phases of ``service_wire`` over a set of open connections."""

    def __init__(
        self,
        sizes: ServiceSizes,
        clients: Sequence[AsyncServiceClient],
        pools: Dict[str, List[QuerySpec]],
        book: AnswerBook,
        recorder: Optional[Recorder],
        calibration: Calibration,
    ) -> None:
        self.calibration = calibration
        self.sizes = sizes
        self.clients = clients
        self.pools = pools
        self.book = book
        self.recorder = recorder
        self.results: Dict[str, PhaseResult] = {}
        self.refused = 0
        #: traced runs: per label, the process CPU seconds its passes took
        self.cpu_s: Dict[str, float] = {}

    def result(self, label: str, ops: int) -> PhaseResult:
        if label not in self.results:
            self.results[label] = PhaseResult(label, ops)
        return self.results[label]

    def forget(self) -> None:
        """Drop what the warm-up rounds recorded."""
        self.results.clear()
        self.cpu_s.clear()
        self.refused = 0
        if self.recorder is not None:
            self.recorder.spans(drain=True)

    def _fail(self, error: BaseException) -> None:
        if isinstance(error, ServiceOverloadedError):
            self.refused += 1

    async def run(self, kind: str, label: Optional[str] = None, *, traced: bool = False) -> None:
        label = label or kind
        recorder = self.recorder
        calib_before = self.calibration.sample()
        if recorder is not None:
            recorder.tag = TAGS[kind]
            recorder.enabled = traced
        cpu_before = time.process_time()
        try:
            duration, latencies = await (
                self._batch(label) if kind == "batch" else self._closed(kind, label))
        finally:
            if recorder is not None:
                recorder.enabled = False
                recorder.tag = TAG_OTHER
        self.cpu_s[label] = self.cpu_s.get(label, 0.0) + time.process_time() - cpu_before
        speed = Calibration.speed(calib_before, self.calibration.sample())
        if kind == "serial":
            # A lone caller mostly waits: for the batcher's flush timer, for the
            # hand-over to the scoring thread and back.  None of that slows down
            # with the share of a core a busy loop gets, which is what the
            # calibration measures, so these latencies stay as the clock saw them.
            self.results[label].record_scaled(duration, duration * speed, latencies)
        else:
            self.results[label].record(duration, latencies, speed=speed)

    # -- the phases ------------------------------------------------------ #
    async def _closed(self, kind: str, label: str):
        """Closed loop: every connection keeps a fixed number of callers waiting.

        ``serial`` is the closed loop of one caller on one connection: the next
        query is sent when the previous answer has arrived.
        """
        pool = self.pools[kind]
        clients = self.clients[:1] if kind == "serial" else self.clients
        callers = 1 if kind == "serial" else self.sizes.callers_per_connection
        top_k = TOP_K if kind == "topk" else None
        result = self.result(label, len(pool))
        clock = time.perf_counter
        todo = iter(range(len(pool)))
        answered: list = []
        latencies: List[float] = []
        failures = 0

        async def caller(client: AsyncServiceClient) -> None:
            nonlocal failures
            for position in todo:
                started = clock()
                try:
                    answer = await client.query(_query(pool[position], top_k))
                except QUERY_ERRORS as error:
                    failures += 1
                    self._fail(error)
                    continue
                latencies.append(clock() - started)
                answered.append((position, answer))

        pass_started = clock()
        await asyncio.gather(*(
            caller(client) for client in clients for _ in range(callers)))
        duration = clock() - pass_started
        settle(self.book, result, kind, len(pool), answered, failures)
        return duration, latencies

    async def _batch(self, label: str):
        """Consecutive ``query_many`` calls on every connection, the connections side by side."""
        pool = self.pools["batch"]
        result = self.result(label, len(pool))
        size = self.sizes.batch_pass
        share = len(pool) // len(self.clients)

        async def calls(client: AsyncServiceClient, low: int) -> list:
            replies: list = []
            for start in range(low, low + share, size):
                replies += await client.query_many(
                    [_query(spec) for spec in pool[start:start + size]], return_errors=True)
            return replies

        clock = time.perf_counter
        pass_started = clock()
        replies = await asyncio.gather(*(
            calls(client, index * share) for index, client in enumerate(self.clients)))
        duration = clock() - pass_started
        answered = []
        failures = 0
        for position, reply in enumerate(answer for chunk in replies for answer in chunk):
            if isinstance(reply, BaseException):
                if not isinstance(reply, QUERY_ERRORS):
                    raise reply
                failures += 1
                self._fail(reply)
            else:
                answered.append((position, reply))
        settle(self.book, result, "batch", len(pool), answered, failures)
        return duration, None

    async def open_loop(self, schedule: Sequence[float]) -> Dict[str, object]:
        """The rate ladder of a traced run: send the ``single`` queries at the
        times of ``schedule``, in turn; a latency counts from the due time."""
        pool = self.pools["single"]
        clock = time.perf_counter
        latencies: List[float] = []
        lateness: List[float] = []
        failures = 0
        outstanding = 0

        async def one(position: int, due: float) -> None:
            nonlocal failures, outstanding
            client = self.clients[position % len(self.clients)]
            outstanding += 1
            try:
                answer = await client.query(_query(pool[position % len(pool)]))
            except QUERY_ERRORS as error:
                failures += 1
                self._fail(error)
                return
            finally:
                outstanding -= 1
            latencies.append(clock() - due)
            failures += not self.book.check(("single", position % len(pool)), answer)

        tasks = []
        origin = clock() + 0.005
        for position, offset in enumerate(schedule):
            due = origin + offset
            while True:
                remaining = due - clock()
                if remaining <= 0:
                    break
                # The loop's timers have millisecond resolution: sleep to within
                # a millisecond, then yield without sleeping until the time comes.
                await asyncio.sleep(remaining - 0.001 if remaining > 0.0015 else 0)
            lateness.append(clock() - due)
            tasks.append(asyncio.ensure_future(one(position, due)))
        left_at_end = outstanding
        await asyncio.gather(*tasks)
        return {
            "latencies": latencies, "lateness": lateness, "failures": failures,
            "left_at_end": left_at_end,
        }


class AdminProbe:
    """Traced runs: what the ``stats`` / ``traces`` admin commands say about each phase."""

    def __init__(self, client: AsyncServiceClient) -> None:
        self.client = client
        self.queue_waits_ms: Dict[str, List[float]] = {}
        self._batched: Dict[str, List[float]] = {}
        self._seen: set = set()

    async def around(self, kind: str, run_pass) -> None:
        before = (await self.client.stats())["batcher"]
        await run_pass()
        after = (await self.client.stats())["batcher"]
        totals = self._batched.setdefault(kind, [0.0, 0.0])
        totals[0] += after["queries_batched"] - before["queries_batched"]
        totals[1] += after["batches_flushed"] - before["batches_flushed"]
        waits = self.queue_waits_ms.setdefault(kind, [])
        for trace in (await self.client.traces(limit=64)).get("recent", []):
            identity = (trace.get("trace_id"), trace.get("span_id"), trace.get("started_at"))
            if identity not in self._seen:
                self._seen.add(identity)
                waits += [
                    span["duration_ms"] for span in trace.get("spans", [])
                    if span.get("name") == "queue_wait"
                ]

    def forget(self) -> None:
        self.queue_waits_ms.clear()
        self._batched.clear()

    def queue_wait_ms_p50(self, kind: str) -> Optional[float]:
        waits = self.queue_waits_ms.get(kind)
        return float(np.median(waits)) if waits else None

    def mean_batch_size(self, kind: str) -> Optional[float]:
        queries, batches = self._batched.get(kind, (0.0, 0.0))
        return queries / batches if batches else None


async def _ladder(generator: Generator, sizes: ServiceSizes, seed: int, step_s: float):
    """Open loop at each rate of the ladder: does p90 hold, is a backlog left?

    A step whose generator ran late by more than a quarter of the median
    latency it measured, or that was refused a query, is ``invalid``.
    """
    steps = []
    for rate in sizes.ladder_rates:
        times = inputs.poisson_schedule(seed, rate, step_s, stream=f"ladder{rate}")
        refused_before = generator.refused
        outcome = await generator.open_loop(times)
        latencies = outcome["latencies"]
        p50, p90 = (
            (harness.percentile(latencies, q) * 1e3 for q in (50, 90)) if latencies
            else (None, None))
        late_p90 = harness.percentile(outcome["lateness"], 90) * 1e3
        backlog_allowed = max(8, 2 * rate * sizes.knee_p90_ms / 1e3)
        steps.append({
            "rate": rate, "sent": len(times), "failed": outcome["failures"],
            "p50_ms": p50, "p90_ms": p90, "left_at_end": outcome["left_at_end"],
            "generator_late_ms_p90": late_p90,
            "invalid": bool(
                p50 is None or late_p90 > p50 / 4.0 or generator.refused > refused_before),
            "holds": bool(
                p90 is not None and not outcome["failures"] and p90 <= sizes.knee_p90_ms
                and outcome["left_at_end"] <= backlog_allowed),
        })
    return steps


def _per_layer(generator: Generator, spans: Spans, probe: AdminProbe, ladder, stages,
               snapshot: Path) -> Dict[str, Optional[float]]:
    """The traced run's metrics: what an answered ``single`` query costs, layer by layer."""
    results = generator.results
    single = results["single"].answered
    speed = results["single"].machine_speed

    def self_us(layer: str, kind: str = "single") -> Optional[float]:
        """A layer's self time in the traced passes of ``kind``, per answered query."""
        seconds = spans.self_seconds(layer, TAGS[kind])
        if seconds is None:
            return None
        return per_query_us(seconds * results[kind].machine_speed, results[kind].answered)

    cpu = per_query_us(generator.cpu_s.get("single", 0.0) * speed, single)
    codec = self_us("service.codec")
    engine = (
        per_query_us(spans.total_seconds("serving.engine", TAG_SINGLE) * speed, single)
        if spans.known("serving.engine") else None)
    # Both ends of the wire encode their frames here: a request has kind "query"
    # (see ``MEASURES``: its length is recorded as is, a reply's negated).
    frames = spans.value[spans.mask("service.codec:encode_frame", TAG_SINGLE)]
    holding = [step["rate"] for step in ladder if step["holds"]]
    attempted = sum(result.attempted for result in results.values())
    return {
        "db.kernels_us_per_query": self_us("db.kernels"),
        "db.kernel_calls_per_query": (
            spans.count("db.kernels", TAG_SINGLE) / single
            if single and spans.known("db.kernels") else None),
        "db.branch_extract_us_per_query": self_us("db.branch_extract"),
        "core.plan_batch_us_per_query": self_us("core.plan_batch", "batch"),
        "serving.snapshot_load_s": stages["serving.snapshot_load_s"],
        "serving.snapshot_mb": os.path.getsize(snapshot) / (1024.0 * 1024.0),
        "serving.batch_vs_single": (
            results["batch"].summarise()["rate_per_s"]
            / results["single_untraced"].summarise()["rate_per_s"]),
        "service.codec_us_per_query": codec,
        "service.engine_us_per_query": engine,
        "service.cpu_us_per_query": cpu,
        "service.other_us_per_query": (
            cpu - codec - engine if None not in (cpu, codec, engine) else None),
        "service.queue_wait_ms_p50": probe.queue_wait_ms_p50("serial"),
        "service.mean_batch_size": probe.mean_batch_size("single"),
        "service.request_bytes_per_query": (
            float(frames[frames > 0].sum()) / single if single and len(frames) else None),
        "service.reply_bytes_per_query": (
            float(-frames[frames < 0].sum()) / single if single and len(frames) else None),
        "service.rejected_share": generator.refused / attempted if attempted else 0.0,
        "service.knee_rate_qps": float(max(holding)) if holding else 0.0,
        # the lowest rate of the ladder: what independent arrivals see well below the knee
        "service.open_loop_p50_ms": ladder[0]["p50_ms"],
        "service.open_loop_p90_ms": ladder[0]["p90_ms"],
        "service.generator_late_ms_p90": ladder[0]["generator_late_ms_p90"],
        "service.start_s": stages["service.start_s"],
        "service.first_answer_ms": stages["service.first_answer_ms"],
        "trace.overhead_pct": overhead_pct(results["single"], results["single_untraced"]),
    }


async def _set_up(snapshot: Path, sizes: ServiceSizes, first: QuerySpec, calibration: Calibration):
    """Snapshot path -> first answer over the wire, staged.

    Returns the running service, its open connections, the answer and the
    stage times.
    """
    timer = Staged(calibration, SETUP_BURST_S)
    engine = load_engine(snapshot)
    timer.stage("serving.snapshot_load_s")
    service = SimilarityService(engine)  # default knobs
    await service.start()
    timer.stage("service.start_s")
    clients = [
        await AsyncServiceClient.connect("127.0.0.1", service.port)
        for _ in range(sizes.connections)
    ]
    answer = await clients[0].query(_query(first))
    timer.stage("service.first_answer_ms")
    return service, clients, answer, timer.finish()


async def _cache_hits(client: AsyncServiceClient) -> int:
    """Result-cache hits of the server's engine so far, from the ``stats`` admin command."""
    return int((await client.stats())["serving"].get("cache_hits", 0))


async def _shut_down(service: Optional[SimilarityService],
                     clients: Sequence[AsyncServiceClient]) -> None:
    try:
        for client in clients:
            await client.close()
    finally:
        if service is not None:
            await service.stop()


async def _drive(
    sizes: ServiceSizes, seed: int, seconds: float, recorder: Optional[Recorder],
    snapshot: Path, pools, oracle: Oracle,
) -> Dict[str, object]:
    traced = recorder is not None
    book = AnswerBook()
    calibration = Calibration()
    setups: List[Dict[str, float]] = []
    setup_failures = 0
    service = None
    clients: Sequence[AsyncServiceClient] = ()
    first = pools["single"][0]
    try:
        # Snapshot path -> first correct answer, several times; the last service stays.
        for _ in range(SETUPS):
            await _shut_down(service, clients)
            service, clients = None, ()
            service, clients, answer, stages = await _set_up(snapshot, sizes, first, calibration)
            setup_failures += not oracle.agrees(canonical(answer), first)
            setups.append(stages)

        generator = Generator(sizes, clients, pools, book, recorder, calibration)
        probe = AdminProbe(clients[0])

        async def one_round() -> None:
            for kind in pools:
                if traced:
                    await probe.around(kind, lambda: generator.run(kind, traced=True))
                else:
                    await generator.run(kind)
            if traced:
                await generator.run("single", "single_untraced")

        for _ in range(harness.WARM_PASSES):
            await one_round()
        generator.forget()
        probe.forget()
        # Every first answer is in the book now.  The inputs, the oracle and the
        # book are the benchmark's, not the program's: with the service in this
        # process its collector would walk them too, and a full collection
        # (80 ms here) fell into every other closed-loop pass.
        gc.collect()
        gc.freeze()
        hits_before = await _cache_hits(clients[0])

        # A traced run spends a third of its time on the rate ladder.
        rounds_s = seconds * (2.0 / 3.0) if traced else seconds
        rounds = 0
        started = time.perf_counter()
        while rounds < harness.MIN_ROUNDS or time.perf_counter() - started < rounds_s:
            await one_round()
            rounds += 1
        wall = time.perf_counter() - started
        # As on the in-process read-only workloads: a timed query answered from
        # the server's result cache was not scored, so it is a failed operation.
        cache_hits = await _cache_hits(clients[0]) - hits_before
        ladder = []
        if traced:
            step_s = max((seconds - rounds_s) / len(sizes.ladder_rates), 0.5)
            ladder = await _ladder(generator, sizes, seed, step_s)
        verdict = oracle_verdict(oracle, book, pools, seed)
    finally:
        await _shut_down(service, clients)

    results = generator.results
    summaries = {label: result.summarise() for label, result in results.items()}
    summaries["serial"]["invalid"] = generator.refused > 0
    counts = {
        key: sum(getattr(result, key) for result in results.values())
        for key in ("attempted", "answered", "failed")
    }
    counts["failed"] += setup_failures + verdict["mismatches"] + cache_hits
    out: Dict[str, object] = {
        "phases": summaries,
        "oracle": verdict,
        "setup_samples_s": [stages["setup_s"] for stages in setups],
        "setup_wall_s": [stages["setup_wall_s"] for stages in setups],
        "rounds": rounds,
        "timed_section_s": wall,
        "cache_hits": cache_hits,
        **calibration.summary(),
        **counts,
    }
    if not traced:
        out["end_to_end"] = end_to_end(setups, summaries, summaries["serial"])
        return out

    spans = recorder.spans()
    out["spans"] = spans
    out["ladder"] = ladder
    out["per_layer"] = _per_layer(
        generator, spans, probe, ladder, median_stages(setups), snapshot)
    out["per_phase"] = {
        kind: {
            "queue_wait_ms_p50": probe.queue_wait_ms_p50(kind),
            "mean_batch_size": probe.mean_batch_size(kind),
        }
        for kind in pools
    }
    return out


def run_service_workload(
    sizes: ServiceSizes, seed: int, seconds: float, recorder: Optional[Recorder], workdir: Path
) -> Dict[str, object]:
    name = "service_wire"
    engine_sizes = sizes.engine
    graphs = inputs.make_graphs(
        inputs.rng_for(seed, name + ":graphs"),
        inputs.cycled_sizes(engine_sizes.graphs, engine_sizes.vertices),
    )
    counts = {
        "serial": sizes.serial_pass, "single": sizes.single_pass,
        "batch": sizes.batch_pass * sizes.batch_calls * sizes.connections,
        "topk": sizes.topk_pass,
    }
    pools = inputs.split(
        inputs.make_queries(
            seed, name + ":queries", sum(counts.values()), engine_sizes.query_vertices,
            engine_sizes.taus, engine_sizes.gamma, stored=graphs,
            planted=engine_sizes.planted),
        counts,
    )
    # The program's input is the snapshot: fit and save an engine, then let it go.
    engine, _answer, _stages = set_up_engine(
        graphs, engine_sizes, pools["single"][0], Calibration())
    oracle = Oracle(graphs, seed)
    oracle.use(engine.estimator)
    run_dir = workdir / f"service-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    snapshot = run_dir / "engine.snapshot"
    try:
        save_engine(engine, snapshot)
        del engine
        harness.confine_to_quietest_cpu()
        return asyncio.run(_drive(sizes, seed, seconds, recorder, snapshot, pools, oracle))
    finally:
        if snapshot.exists():
            snapshot.unlink()
        run_dir.rmdir()
