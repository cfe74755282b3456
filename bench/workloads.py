"""The three in-process workloads: ``scan_dense``, ``filter_selective``, ``ingest_mixed``.

Each runs in its own process, one thread, closed loop.  Why each exists and
which layer it loads is written up in ``bench/README.md``; the sizes are in
:mod:`bench.inputs`, the measurement rules in :mod:`bench.harness`.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.query import SimilarityQuery
from repro.exceptions import ReproError
from repro.obs import metrics as obs_metrics
from repro.offline.fitter import OfflineFitter
from repro.serving.engine import BatchQueryEngine

from bench import harness, inputs
from bench.harness import Calibration, PhaseResult, Staged
from bench.inputs import BATCH, TOP_K, EngineSizes, IngestSizes, QuerySpec
from bench.oracle import AnswerBook, Oracle, canonical, sample_indices
from bench.trace import Recorder, Spans

#: Seed of the program's own offline sampling: configuration, not an input.
FIT_SEED = 0
SETUPS = 2  #: set-ups per run of a read-only workload; their median is reported
#: Calibration between the stages of a set-up (see ``Calibration.burst``).  An
#: ``ingest_mixed`` run has one short set-up per episode, so a short burst each.
SETUP_BURST_S = 0.2
EPISODE_BURST_S = 0.03
ORACLE_PER_PHASE = 32  #: first answers per phase that the oracle checks (≥64 per run)
ACCESS_PATTERN_SEED = 0  #: ``ingest_mixed``: stream of the Zipf rank sequence
ROUNDS_PER_SPEED_SAMPLE = 8  #: ``ingest_mixed``: rounds between two calibration passes (≈0.2 s)

TAG_OTHER, TAG_SINGLE, TAG_BATCH, TAG_TOPK = 0, 1, 2, 3
KINDS = ("single", "batch", "topk")
KIND_TAGS = {"single": TAG_SINGLE, "batch": TAG_BATCH, "topk": TAG_TOPK}


def _query(spec: QuerySpec) -> SimilarityQuery:
    """A fresh query object per call, so branch extraction is always paid."""
    return SimilarityQuery(spec.graph, spec.tau_hat, spec.gamma)


def settle(book: AnswerBook, result: PhaseResult, kind: str, expected: int, answered,
           failures: int) -> None:
    """Count a finished pass: ``answered`` is ``(position, answer)`` pairs.

    An answer that differs from the first one seen for its query is a failure.
    Runs after the pass's clock has stopped.
    """
    wrong = sum(1 for position, answer in answered if not book.check((kind, position), answer))
    result.attempted += expected
    result.answered += len(answered) - wrong
    result.failed += failures + wrong


def oracle_verdict(oracle: Oracle, book: AnswerBook, pools, seed: int) -> Dict[str, int]:
    """The oracle on a seeded sample of the first answers of every phase."""
    checked = wrong = 0
    for kind, pool in pools.items():
        for position in sample_indices(seed, len(pool), ORACLE_PER_PHASE):
            first = book.first((kind, position))
            if first is not None:
                checked += 1
                wrong += not oracle.agrees(first, pool[position], TOP_K if kind == "topk" else None)
    return {"checked": checked, "mismatches": wrong}


class Phases:
    """The ``single`` / ``batch`` / ``topk`` passes over one engine.

    ``pools`` maps each kind to the queries its pass issues.
    """

    def __init__(
        self,
        engine: BatchQueryEngine,
        pools: Dict[str, Sequence[QuerySpec]],
        book: AnswerBook,
        calibration: Calibration,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.engine = engine
        self.pools = pools
        self.book = book
        self.calibration = calibration
        self.recorder = recorder
        self.results: Dict[str, PhaseResult] = {}

    def run(self, kind: str, label: Optional[str] = None, *, traced: bool = False) -> None:
        """One pass of ``kind``, recorded under ``label`` (default: the kind)."""
        label = label or kind
        if label not in self.results:
            self.results[label] = PhaseResult(label, len(self.pools[kind]))
        result = self.results[label]
        recorder = self.recorder
        before = self.calibration.sample()
        if recorder is not None:
            recorder.tag = KIND_TAGS[kind]
            recorder.enabled = traced
        try:
            measured = self._batch(result) if kind == "batch" else self._one_by_one(result, kind)
        finally:
            if recorder is not None:
                recorder.enabled = False
                recorder.tag = TAG_OTHER
        result.record(*measured, speed=Calibration.speed(before, self.calibration.sample()))

    def _one_by_one(self, result: PhaseResult, kind: str):
        """``single`` / ``topk``; returns ``(pass duration, per-query latencies)``."""
        if kind == "topk":
            query_topk = self.engine.query_topk

            def call(query):
                return query_topk(query, TOP_K)
        else:
            call = self.engine.query
        clock = time.perf_counter
        answered: list = []
        latencies: List[float] = []
        failures = 0
        pass_started = clock()
        for position, spec in enumerate(self.pools[kind]):
            started = clock()
            try:
                answer = call(_query(spec))
            except ReproError:
                failures += 1
                continue
            latencies.append(clock() - started)
            answered.append((position, answer))
        duration = clock() - pass_started
        settle(self.book, result, kind, len(self.pools[kind]), answered, failures)
        return duration, latencies

    def _batch(self, result: PhaseResult):
        pool, clock = self.pools["batch"], time.perf_counter
        query_batch = self.engine.query_batch
        answers: list = []
        failures = 0
        pass_started = clock()
        for low in range(0, len(pool), BATCH):
            chunk = pool[low:low + BATCH]
            try:
                got = query_batch([_query(spec) for spec in chunk])
            except ReproError:
                failures += len(chunk)
                continue
            answers.extend(enumerate(got, start=low))
        duration = clock() - pass_started
        settle(self.book, result, "batch", len(pool), answers, failures)
        return duration, None


def _counts(results: Dict[str, PhaseResult]) -> Dict[str, int]:
    return {
        key: sum(getattr(result, key) for result in results.values())
        for key in ("attempted", "answered", "failed")
    }


def overhead_pct(slower: PhaseResult, faster: PhaseResult) -> Optional[float]:
    """How much slower ``slower`` ran than ``faster``, in percent of ``slower``'s rate."""
    if not slower.durations or not faster.durations:
        return None
    rate_slow = slower.summarise()["rate_per_s"]
    rate_fast = faster.summarise()["rate_per_s"]
    return (rate_fast / rate_slow - 1.0) * 100.0


def per_query_us(seconds: Optional[float], answered: int) -> Optional[float]:
    return seconds / answered * 1e6 if answered and seconds is not None else None


def store_mb(recorder: Recorder) -> Optional[float]:
    """Bytes of the CSR arrays of the store the traced run last compacted."""
    store = recorder.instances.get("db.compact")
    if store is None:
        return None
    csr, orders, global_ids = store.view()
    arrays = [part for part in csr if isinstance(part, np.ndarray)] + [orders, global_ids]
    return sum(array.nbytes for array in arrays) / (1024.0 * 1024.0)


def layer_budget(spans: Spans, results: Dict[str, PhaseResult]) -> Dict[str, Optional[float]]:
    """Per-query self times of the layers, from the traced passes.

    Like every duration they are reported at reference machine speed: a
    phase's self times are scaled by the median speed of its traced passes.
    """
    answered = {kind: results[kind].answered for kind in KINDS}
    speed = {kind: results[kind].machine_speed for kind in KINDS}

    def per_query(layer: str, kind: str) -> Optional[float]:
        seconds = spans.self_seconds(layer, KIND_TAGS[kind])
        return per_query_us(None if seconds is None else seconds * speed[kind], answered[kind])

    single_wall = sum(results["single"].durations)
    return {
        "db.kernels_us_per_query": per_query("db.kernels", "single"),
        "db.kernel_calls_per_query": (
            spans.count("db.kernels", TAG_SINGLE) / answered["single"]
            if answered["single"] and spans.known("db.kernels") else None),
        "db.branch_extract_us_per_query": per_query("db.branch_extract", "single"),
        "core.plan_us_per_query": per_query("core.plan", "single"),
        "core.plan_batch_us_per_query": per_query("core.plan_batch", "batch"),
        "core.plan_topk_us_per_query": per_query("core.plan_topk", "topk"),
        "serving.engine_us_per_query": per_query("serving.engine", "single"),
        "trace.coverage_pct": (
            100.0 * spans.outermost_seconds(TAG_SINGLE) / single_wall if single_wall else None),
    }


def prune_metrics(before: Dict, after: Dict, queries: int) -> Dict[str, float]:
    """Exact ratios from the engine's own ``prune_counters`` between two readings."""
    delta = {key: after[key] - before[key] for key in after if key != "prune_rate"}
    generated = delta["candidates_generated"]
    passes = delta["sparse_passes"] + delta["dense_passes"]
    return {
        "core.prune_rate": delta["candidates_pruned"] / generated if generated else 0.0,
        "core.verified_per_query": delta["candidates_verified"] / queries if queries else 0.0,
        "core.sparse_pass_share": delta["sparse_passes"] / passes if passes else 0.0,
    }


# --------------------------------------------------------------------------- #
# scan_dense / filter_selective
# --------------------------------------------------------------------------- #
def end_to_end(setups: Sequence[Dict[str, float]], summaries, latency: dict) -> Dict[str, float]:
    """The seven end-to-end metrics; ``latency`` is the phase the latencies come from."""
    return {
        "setup_s": float(np.median([stages["setup_s"] for stages in setups])),
        "throughput_qps": summaries["single"]["rate_per_s"],
        "batch_throughput_qps": summaries["batch"]["rate_per_s"],
        "topk_throughput_qps": summaries["topk"]["rate_per_s"],
        "latency_p50_ms": latency["latency_p50_ms"],
        "latency_p90_ms": latency["latency_p90_ms"],
        "peak_rss_mb": harness.peak_rss_mb(),
    }


def median_stages(setups: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-stage medians over the run's set-ups (the traced run's ``*_s`` metrics)."""
    return {
        key: float(np.median([stages[key] for stages in setups]))
        for key in setups[0] if key not in ("setup_s", "setup_wall_s")
    }


def set_up_engine(graphs, sizes: EngineSizes, first: QuerySpec, calibration: Calibration):
    """Graphs in memory → first answer, staged; returns engine, answer, stage times."""
    timer = Staged(calibration, SETUP_BURST_S)
    database = GraphDatabase(graphs)
    timer.stage("db.database_build_s")
    search = GBDASearch(
        database, max_tau=sizes.max_tau, num_prior_pairs=sizes.prior_pairs, seed=FIT_SEED
    ).fit()
    timer.stage("core.fit_s")
    engine = BatchQueryEngine.from_search(search)
    timer.stage("serving.engine_build_s")
    answer = engine.query(_query(first))
    timer.stage("core.first_query_ms")
    return engine, answer, timer.finish()


def run_engine_workload(
    name: str, sizes: EngineSizes, seed: int, seconds: float, recorder: Optional[Recorder]
) -> Dict[str, object]:
    traced = recorder is not None
    calibration = Calibration()
    graphs, pools = inputs.engine_inputs(sizes, seed, name)
    first = pools["single"][0]
    oracle = Oracle(graphs, seed)

    setups = []
    setup_failures = 0
    engine = None
    for _ in range(SETUPS):
        engine = None  # one database in memory at a time: peak memory is one set-up's
        gc.collect()
        engine, answer, stages = set_up_engine(graphs, sizes, first, calibration)
        oracle.use(engine.estimator)
        setup_failures += not oracle.agrees(canonical(answer), first)
        setups.append(stages)

    book = AnswerBook()
    phases = Phases(engine, pools, book, calibration, recorder)
    passes = [lambda kind=kind: phases.run(kind, traced=traced) for kind in KINDS]
    if traced:
        # Untraced twins in the same rounds: the wrappers' own cost, and a
        # batch/single ratio that the wrappers do not bias.
        passes.append(lambda: phases.run("single", "single_untraced"))
        passes.append(lambda: phases.run("batch", "batch_untraced"))
    if traced and name == "filter_selective":
        def obs_off_pass():
            obs_metrics.set_enabled(False)
            try:
                phases.run("single", "single_obs_off")
            finally:
                obs_metrics.set_enabled(True)
        passes.append(obs_off_pass)

    before: Dict[str, dict] = {}

    def after_warm():
        phases.results.clear()
        if recorder is not None:
            recorder.spans(drain=True)
        before["prune"] = dict(engine.prune_counters)
        before["cache"] = dict(engine.cache.stats())

    timing = harness.run_rounds(passes, seconds, after_warm=after_warm)
    prune_after = dict(engine.prune_counters)
    cache_after = dict(engine.cache.stats())

    verdict = oracle_verdict(oracle, book, pools, seed)
    results = phases.results
    summaries = {label: result.summarise() for label, result in results.items()}
    # These workloads are defined to bypass the result cache: a timed query
    # answered from it was not scored, so it did not do the operation.
    cache_hits = cache_after["hits"] - before["cache"]["hits"]
    counts = _counts(results)
    counts["failed"] += setup_failures + verdict["mismatches"] + cache_hits
    out: Dict[str, object] = {
        "phases": summaries,
        "oracle": verdict,
        "cache_hits": cache_hits,
        "setup_samples_s": [stages["setup_s"] for stages in setups],
        "setup_wall_s": [stages["setup_wall_s"] for stages in setups],
        **calibration.summary(),
        **counts,
        **timing,
    }
    if not traced:
        out["end_to_end"] = end_to_end(setups, summaries, summaries["single"])
        return out

    spans = recorder.spans()
    out["spans"] = spans
    per_layer = layer_budget(spans, results)
    per_layer.update(prune_metrics(before["prune"], prune_after, counts["answered"]))
    probes = cache_hits + cache_after["misses"] - before["cache"]["misses"]
    per_layer["serving.cache_hit_rate"] = cache_hits / probes if probes else 0.0
    per_layer.update(median_stages(setups))
    per_layer["db.store_mb"] = store_mb(recorder)
    per_layer["serving.batch_vs_single"] = (
        summaries["batch_untraced"]["rate_per_s"] / summaries["single_untraced"]["rate_per_s"])
    per_layer["trace.overhead_pct"] = overhead_pct(results["single"], results["single_untraced"])
    if "single_obs_off" in results:
        per_layer["obs.overhead_pct"] = overhead_pct(
            results["single_untraced"], results["single_obs_off"])
    out["per_layer"] = per_layer
    return out


# --------------------------------------------------------------------------- #
# ingest_mixed
# --------------------------------------------------------------------------- #
@dataclass
class IngestRun:
    """What the episodes of one ``ingest_mixed`` run accumulate."""

    results: Dict[str, PhaseResult]
    setups: List[Dict[str, float]] = field(default_factory=list)
    first_reads: List[float] = field(default_factory=list)
    hit_rates: List[float] = field(default_factory=list)
    setup_failures: int = 0


def run_ingest_workload(
    sizes: IngestSizes, seed: int, seconds: float, recorder: Optional[Recorder]
) -> Dict[str, object]:
    traced = recorder is not None
    calibration = Calibration()
    name = "ingest_mixed"
    base = inputs.make_graphs(
        inputs.rng_for(seed, name + ":base"),
        inputs.cycled_sizes(sizes.base_graphs, sizes.vertices),
    )
    added = inputs.make_graphs(
        inputs.rng_for(seed, name + ":adds"),
        inputs.cycled_sizes(sizes.rounds * sizes.add_per_round, sizes.vertices),
        prefix="a",
    )
    hot = inputs.make_queries(
        seed, name + ":queries", sizes.hot_queries, sizes.query_vertices, sizes.taus,
        sizes.gamma, stored=base, planted=0.125,
    )
    # Which rank is read when belongs to the workload's definition, like the
    # sizes: every seed sees the same repeats (and so the same cache hits) per
    # round, and decides only which graphs the hot queries are.
    draws = inputs.zipf_draws(
        ACCESS_PATTERN_SEED, sizes.rounds * sizes.reads_per_round, sizes.hot_queries,
        sizes.zipf_s)
    reads = [
        [hot[rank] for rank in draws[low:low + sizes.reads_per_round]]
        for low in range(0, len(draws), sizes.reads_per_round)
    ]
    writes = [
        added[low:low + sizes.add_per_round] for low in range(0, len(added), sizes.add_per_round)
    ]
    kind_of = [KINDS[index % len(KINDS)] for index in range(sizes.rounds)]
    reads_per_kind = {
        kind: sum(len(reads[index]) for index in range(sizes.rounds) if kind_of[index] == kind)
        for kind in KINDS
    }

    book = AnswerBook()
    oracle = Oracle(base, seed)
    clock = time.perf_counter

    def trace_as(tag: Optional[int]) -> None:
        if recorder is not None:
            recorder.enabled = traced and tag is not None
            recorder.tag = tag or TAG_OTHER

    def episode(run: IngestRun) -> BatchQueryEngine:
        """Set up from the base graphs, then every round: one write, its reads."""
        trace_as(TAG_OTHER)
        timer = Staged(calibration, EPISODE_BURST_S)
        database = GraphDatabase(base)
        timer.stage("db.database_build_s")
        fitter = OfflineFitter(
            database, max_tau=sizes.max_tau, num_prior_pairs=sizes.prior_pairs, seed=FIT_SEED
        ).fit()
        timer.stage("offline.fit_s")
        engine = fitter.build_engine()
        timer.stage("serving.engine_build_s")
        answer = engine.query(_query(hot[0]))
        timer.stage("core.first_query_ms")
        trace_as(None)
        run.setups.append(timer.finish())
        oracle.use(engine.estimator)
        if not oracle.agrees(canonical(answer), hot[0]):
            run.setup_failures += 1

        durations = dict.fromkeys(KINDS, 0.0)
        scaled = dict.fromkeys(KINDS, 0.0)
        latencies: Dict[str, List[float]] = {kind: [] for kind in KINDS}
        answered: List[tuple] = []
        # The machine's speed is sampled every few rounds; a stretch of rounds
        # between two samples is scaled by the pair.
        stretch: List[tuple] = []  # (kind, round duration, first read, read latencies)
        before = calibration.sample()

        def close_stretch() -> None:
            nonlocal before
            after = calibration.sample()
            speed = Calibration.speed(before, after)
            before = after
            for kind, duration, first_read, reads_s in stretch:
                durations[kind] += duration
                scaled[kind] += duration * speed
                latencies[kind].extend(value * speed for value in reads_s)
                run.first_reads.append(first_read * speed)
            del stretch[:]

        for index, kind in enumerate(kind_of):
            result = run.results[kind]
            specs = reads[index]
            got: list = []
            reads_s: List[float] = []
            first_read = 0.0
            trace_as(KIND_TAGS[kind])
            round_started = clock()
            try:
                database.add_many(writes[index])
                if kind == "batch":
                    got = engine.query_batch([_query(spec) for spec in specs])
                    first_read = clock() - round_started
                else:
                    for spec in specs:
                        read_started = clock()
                        if kind == "single":
                            got.append(engine.query(_query(spec)))
                        else:
                            got.append(engine.query_topk(_query(spec), TOP_K))
                        reads_s.append(clock() - read_started)
                    first_read = reads_s[0]
            except ReproError:
                got = got[:0]
            duration = clock() - round_started
            trace_as(None)
            if len(got) == len(specs):
                stretch.append((kind, duration, first_read, reads_s))
            result.attempted += len(specs)
            result.failed += len(specs) - len(got)
            answered.extend((kind, (index, slot), answer) for slot, answer in enumerate(got))
            if (index + 1) % ROUNDS_PER_SPEED_SAMPLE == 0 or index + 1 == len(kind_of):
                close_stretch()
        cache = engine.cache.stats()
        if cache["hits"] + cache["misses"]:
            run.hit_rates.append(cache["hits"] / (cache["hits"] + cache["misses"]))
        for kind in KINDS:
            run.results[kind].record_scaled(durations[kind], scaled[kind], latencies[kind])
        for kind, key, answer in answered:
            if book.check(key, answer):
                run.results[kind].answered += 1
            else:
                run.results[kind].failed += 1
        return engine

    def fresh_run() -> IngestRun:
        return IngestRun({kind: PhaseResult(kind, reads_per_kind[kind]) for kind in KINDS})

    episode(fresh_run())  # warm: lazy imports, kernel library, allocator
    if recorder is not None:
        recorder.spans(drain=True)
    run = fresh_run()
    engine = None
    episodes = 0
    started = clock()
    while episodes < harness.MIN_ROUNDS or clock() - started < seconds:
        engine = None  # let the previous episode's database go before the next is built
        gc.collect()
        engine = episode(run)
        episodes += 1
    wall = clock() - started
    prune = dict(engine.prune_counters)  # of the last episode, set-up query included

    # After growth: the last episode's engine against the oracle over base + writes.
    oracle.extend(added)
    wrong = 0
    sample = sample_indices(seed, len(hot), 2 * ORACLE_PER_PHASE)
    for index in sample:
        if index % 8 == 0:
            answer = engine.query_topk(_query(hot[index]), TOP_K)
            ok = oracle.agrees(canonical(answer), hot[index], TOP_K)
        else:
            ok = oracle.agrees(canonical(engine.query(_query(hot[index]))), hot[index])
        wrong += not ok
    verdict = {"checked": len(sample), "mismatches": wrong}

    results = run.results
    summaries = {kind: result.summarise() for kind, result in results.items()}
    counts = _counts(results)
    counts["failed"] += run.setup_failures + wrong
    out: Dict[str, object] = {
        "phases": summaries,
        "oracle": verdict,
        "setup_samples_s": [stages["setup_s"] for stages in run.setups],
        "setup_wall_s": [stages["setup_wall_s"] for stages in run.setups],
        "rounds": episodes,
        "timed_section_s": wall,
        **calibration.summary(),
        **counts,
    }
    if not traced:
        out["end_to_end"] = end_to_end(run.setups, summaries, summaries["single"])
        return out

    spans = recorder.spans()
    out["spans"] = spans
    per_layer = layer_budget(spans, results)
    in_rounds = spans.tag != TAG_OTHER
    duration = spans.end - spans.start
    add_spans = spans.mask("db.add_many") & in_rounds
    working = spans.mask("db.compact") & (spans.value > 0)
    rewritten, grown = compaction_volume(spans.tag[working], spans.value[working])
    per_layer.update(median_stages(run.setups))
    per_layer.update(
        prune_metrics(dict.fromkeys(prune, 0), prune, sum(reads_per_kind.values()) + 1))
    per_layer.update({
        "db.add_many_us_per_graph": per_query_us(
            float(duration[add_spans].sum()), episodes * len(added)),
        "db.compact_ms": (
            float(duration[working & in_rounds].mean()) * 1e3
            if (working & in_rounds).any() else None),
        "db.compact_rewrite_ratio": rewritten / grown if grown else None,
        "db.first_read_after_write_ms": float(np.median(run.first_reads)) * 1e3,
        "db.store_mb": store_mb(recorder),
        "serving.cache_hit_rate": float(np.mean(run.hit_rates)) if run.hit_rates else 0.0,
        "serving.batch_vs_single": (
            summaries["batch"]["rate_per_s"] / summaries["single"]["rate_per_s"]),
    })
    out["per_layer"] = per_layer
    return out


def compaction_volume(tags: Sequence[int], postings_after: Sequence[float]):
    """``(postings rewritten, postings added)`` by the rounds' compactions, exactly.

    A working compaction rewrites every posting of the store, so it rewrites
    ``postings_after`` of them.  An episode's set-up compaction (tag 0) gives
    the store's size before any write; the last compaction of the episode
    gives it after all of them.
    """
    rewritten = grown = 0.0
    base = last = None
    for tag, size in zip(tags, postings_after):
        if tag == TAG_OTHER:
            if base is not None and last is not None:
                grown += last - base
            base, last = size, None
        else:
            rewritten += size
            last = size
    if base is not None and last is not None:
        grown += last - base
    return rewritten, grown
