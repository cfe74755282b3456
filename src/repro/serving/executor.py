"""Concurrent serving driver: shard queries — or the database — across workers.

:class:`ServingExecutor` spreads a stream of similarity queries over a pool
of workers and merges the per-worker :class:`~repro.db.query.QueryAnswer`
lists back into input order.

Four execution modes are supported:

* ``"serial"`` — answer everything inline (baseline / debugging);
* ``"thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor` sharing
  one engine: the result cache and posterior tables are shared, and the
  numpy scoring kernels release little of the GIL, so this mode mostly
  overlaps the Python-side bookkeeping — it is the default because it is
  cheap to start and preserves cache counters;
* ``"process"`` — a :class:`~concurrent.futures.ProcessPoolExecutor` that
  ships a pickled copy of the engine to every worker once (pool
  initializer) and partitions the *query stream*.  True parallelism at the
  cost of start-up and per-worker caches; each worker returns its cache /
  filter-counter deltas (and its metric-registry delta) alongside the
  answers, and the parent folds them into the merged stats;
* ``"data-parallel"`` — partitions the *database* instead: the engine is
  split into id-preserving shard engines
  (:meth:`~repro.serving.engine.BatchQueryEngine.shard_engines`), each
  process worker scores **every** query against its shard with one
  ``query_batch`` call, and the per-shard answers are merged by union
  (:meth:`BatchQueryEngine.merge_answers`).  Workers ship one shard each
  instead of the full engine, so memory per worker scales down with the
  shard — the mode to reach databases too large (or too slow) to score in
  one process.

Every run produces a :class:`~repro.serving.stats.ServingStats` with
wall-clock throughput, per-query latency percentiles, and cache counters.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.db.query import QueryAnswer, SimilarityQuery
from repro.exceptions import ServingError
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.serving.engine import BatchQueryEngine
from repro.serving.stats import ServingStats

__all__ = ["ServingExecutor"]

_MODES = ("serial", "thread", "process", "data-parallel")

#: Per-process engine installed by the process-pool initializer.
_WORKER_ENGINE: Optional[BatchQueryEngine] = None


def _init_process_worker(engine: BatchQueryEngine) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = engine


def _worker_stats_begin(engine: BatchQueryEngine) -> Tuple:
    """Snapshot a worker's cache / filter / metric state before its task."""
    cache = engine.cache
    return (
        cache.hits if cache is not None else 0,
        cache.misses if cache is not None else 0,
        engine.prune_counters,
        get_registry().dump(),
    )


def _worker_stats_end(engine: BatchQueryEngine, before: Tuple, *, include_metrics: bool) -> Dict:
    """The worker's per-task observability delta, as plain picklable data.

    ``include_metrics`` controls whether the worker-registry delta rides
    along: true for pool workers (the parent merges it into its own
    registry), false when the task ran in the parent's process — its
    increments already landed in the parent registry and merging the delta
    would double-count them.
    """
    hits_before, misses_before, prune_before, dump_before = before
    cache = engine.cache
    prune_after = engine.prune_counters
    return {
        "cache_hits": (cache.hits - hits_before) if cache is not None else 0,
        "cache_misses": (cache.misses - misses_before) if cache is not None else 0,
        "candidates_generated": int(
            prune_after["candidates_generated"] - prune_before["candidates_generated"]
        ),
        "candidates_pruned": int(
            prune_after["candidates_pruned"] - prune_before["candidates_pruned"]
        ),
        "candidates_verified": int(
            prune_after["candidates_verified"] - prune_before["candidates_verified"]
        ),
        "metrics": (
            MetricsRegistry.diff(dump_before, get_registry().dump())
            if include_metrics
            else None
        ),
    }


def _serve_shard_in_process(
    shard: Sequence[Tuple[int, SimilarityQuery]]
) -> Tuple[List[Tuple[int, QueryAnswer]], Dict]:
    """Process-pool worker body: answer one stream shard on the worker engine.

    Returns the answers plus the worker's observability delta (cache
    hits/misses, filter counters, metric-registry diff) so the parent can
    fold them into the merged :class:`ServingStats` instead of dropping
    them with the worker process.
    """
    if _WORKER_ENGINE is None:  # pragma: no cover - defensive
        raise ServingError("process worker was not initialised with an engine")
    before = _worker_stats_begin(_WORKER_ENGINE)
    answers = [(position, _WORKER_ENGINE.query(query)) for position, query in shard]
    return answers, _worker_stats_end(_WORKER_ENGINE, before, include_metrics=True)


def _serve_stream_on_shard(
    engine: BatchQueryEngine,
    queries: Sequence[SimilarityQuery],
    include_metrics: bool = True,
) -> Tuple[List[QueryAnswer], Dict]:
    """Data-parallel worker body: batch-score the whole stream on one shard.

    Shard engines are separate objects from the executor's engine, so their
    counters are invisible to the parent unless returned — the worker-stats
    delta travels back with the answers (``include_metrics=False`` for the
    single-shard in-process fast path, whose metric increments already
    landed in the parent registry).
    """
    before = _worker_stats_begin(engine)
    answers = engine.query_batch(queries)
    return answers, _worker_stats_end(engine, before, include_metrics=include_metrics)


class ServingExecutor:
    """Shard query streams (or the database) across a worker pool.

    Parameters
    ----------
    engine:
        The serving engine answering the queries.
    num_workers:
        Number of shards/workers (>= 1).  ``1`` degenerates to serial (for
        ``"data-parallel"``: a single database shard).
    mode:
        ``"serial"``, ``"thread"`` (default), ``"process"``, or
        ``"data-parallel"``.
    """

    def __init__(
        self,
        engine: BatchQueryEngine,
        *,
        num_workers: int = 4,
        mode: str = "thread",
    ) -> None:
        if mode not in _MODES:
            raise ServingError(f"mode must be one of {_MODES}, got {mode!r}")
        if num_workers < 1:
            raise ServingError("num_workers must be at least 1")
        self.engine = engine
        self.num_workers = int(num_workers)
        self.mode = mode
        self.last_stats: Optional[ServingStats] = None
        self.total_stats = ServingStats()
        # Data-parallel shard engines, built lazily and rebuilt when the
        # database grows (shard views are snapshots).
        self._shard_engines: Optional[List[BatchQueryEngine]] = None
        self._shard_revision: Optional[int] = None

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def map(self, queries: Iterable[SimilarityQuery]) -> List[QueryAnswer]:
        """Answer ``queries`` and return their answers in input order.

        The run's measurements are exposed as :attr:`last_stats` and folded
        into the lifetime :attr:`total_stats`.
        """
        stream = list(queries)
        if self.mode == "data-parallel":
            shards: List = []
            num_batches = len(self._shards_for_run()) if stream else 0
        else:
            shards = self._shard(stream)
            num_batches = len(shards)
        cache = self.engine.cache
        hits_before = cache.hits if cache is not None else 0
        misses_before = cache.misses if cache is not None else 0
        # Filter-effectiveness counters live in the shared execution core;
        # in-process modes read their deltas directly, pool modes receive
        # them back from the workers (see _worker_stats_end).
        prune_before = self.engine.prune_counters

        worker_stats: List[Dict] = []
        start = time.perf_counter()
        if self.mode == "data-parallel":
            indexed, worker_stats = self._run_data_parallel(stream)
        elif self.mode == "serial" or len(shards) <= 1:
            indexed = [
                (position, self.engine.query(query))
                for shard in shards
                for position, query in shard
            ]
        elif self.mode == "thread":
            indexed = self._run_threads(shards)
        else:
            indexed, worker_stats = self._run_processes(shards)
        elapsed = time.perf_counter() - start

        answers: List[Optional[QueryAnswer]] = [None] * len(stream)
        for position, answer in indexed:
            answers[position] = answer

        stats = ServingStats(
            num_queries=len(stream),
            num_batches=num_batches,
            elapsed_seconds=elapsed,
            latencies=[answer.elapsed_seconds for answer in answers if answer is not None],
        )
        if self.mode in ("process", "data-parallel"):
            # Fold the per-worker deltas back in: counters add into the
            # merged stats, and each pool worker's metric-registry diff
            # merges into the parent registry (in-process fast paths return
            # metrics=None — their increments already landed here).
            registry = get_registry()
            for delta in worker_stats:
                stats.cache_hits += delta["cache_hits"]
                stats.cache_misses += delta["cache_misses"]
                stats.candidates_generated += delta["candidates_generated"]
                stats.candidates_pruned += delta["candidates_pruned"]
                stats.candidates_verified += delta["candidates_verified"]
                if delta["metrics"] is not None:
                    registry.merge(delta["metrics"])
        else:
            if cache is not None:
                stats.cache_hits = cache.hits - hits_before
                stats.cache_misses = cache.misses - misses_before
            prune_after = self.engine.prune_counters
            stats.candidates_generated = int(
                prune_after["candidates_generated"] - prune_before["candidates_generated"]
            )
            stats.candidates_pruned = int(
                prune_after["candidates_pruned"] - prune_before["candidates_pruned"]
            )
            stats.candidates_verified = int(
                prune_after["candidates_verified"] - prune_before["candidates_verified"]
            )
        self.last_stats = stats
        self.total_stats.merge(stats)
        return answers  # type: ignore[return-value]

    def _shard(self, stream: Sequence[SimilarityQuery]):
        """Round-robin the stream into at most ``num_workers`` shards."""
        num_shards = min(self.num_workers, max(len(stream), 1))
        shards: List[List[Tuple[int, SimilarityQuery]]] = [[] for _ in range(num_shards)]
        for position, query in enumerate(stream):
            shards[position % num_shards].append((position, query))
        return [shard for shard in shards if shard] or [[]]

    def _run_threads(self, shards) -> List[Tuple[int, QueryAnswer]]:
        engine = self.engine

        def serve(shard):
            return [(position, engine.query(query)) for position, query in shard]

        merged: List[Tuple[int, QueryAnswer]] = []
        with ThreadPoolExecutor(max_workers=len(shards)) as pool:
            for result in pool.map(serve, shards):
                merged.extend(result)
        return merged

    def _run_processes(self, shards) -> Tuple[List[Tuple[int, QueryAnswer]], List[Dict]]:
        merged: List[Tuple[int, QueryAnswer]] = []
        worker_stats: List[Dict] = []
        with ProcessPoolExecutor(
            max_workers=len(shards),
            initializer=_init_process_worker,
            initargs=(self.engine,),
        ) as pool:
            for result, delta in pool.map(_serve_shard_in_process, shards):
                merged.extend(result)
                worker_stats.append(delta)
        return merged, worker_stats

    # ------------------------------------------------------------------ #
    # data-parallel mode: partition the database, not the stream
    # ------------------------------------------------------------------ #
    def _shards_for_run(self) -> List[BatchQueryEngine]:
        """Return (building or rebuilding as needed) the shard engines."""
        revision = self.engine.database.revision
        if self._shard_engines is None or self._shard_revision != revision:
            num_shards = min(self.num_workers, len(self.engine.database))
            self._shard_engines = self.engine.shard_engines(num_shards)
            self._shard_revision = revision
        return self._shard_engines

    def _run_data_parallel(
        self, stream
    ) -> Tuple[List[Tuple[int, QueryAnswer]], List[Dict]]:
        if not stream:
            return [], []
        shard_engines = self._shards_for_run()
        if len(shard_engines) == 1:
            results = [_serve_stream_on_shard(shard_engines[0], stream, False)]
        else:
            with ProcessPoolExecutor(max_workers=len(shard_engines)) as pool:
                futures = [
                    pool.submit(_serve_stream_on_shard, engine, stream)
                    for engine in shard_engines
                ]
                results = [future.result() for future in futures]
        partial_lists = [answers for answers, _delta in results]
        worker_stats = [delta for _answers, delta in results]
        indexed = [
            (
                position,
                # merge_for honours per-query top-k mode: thresholded answers
                # merge by union, rankings by re-sorting the shard top-k's.
                BatchQueryEngine.merge_for(
                    stream[position], [plist[position] for plist in partial_lists]
                ),
            )
            for position in range(len(stream))
        ]
        return indexed, worker_stats

    def __repr__(self) -> str:
        return (
            f"<ServingExecutor mode={self.mode!r} workers={self.num_workers} "
            f"served={self.total_stats.num_queries}>"
        )
