"""Serving-side latency/throughput accounting.

:class:`ServingStats` aggregates per-query latencies and cache counters
across batches.  The executor produces one instance per run and merges it
into a lifetime total; benchmarks and operators read the derived QPS /
percentile properties.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict

__all__ = ["ServingStats"]


@dataclass
class ServingStats:
    """Aggregated statistics of one (or several merged) serving runs.

    Attributes
    ----------
    num_queries:
        Total number of queries answered.
    num_batches:
        Number of batches (shards) the queries were served in.
    elapsed_seconds:
        Wall-clock time of the whole run (not the sum of per-query times —
        batches may run concurrently).
    latencies:
        Per-query online latencies in seconds, in completion order — a
        *bounded* ring of the most recent ``latency_window`` samples.  A
        long-running server records millions of queries; an unbounded list
        would leak memory and make every percentile call slower forever,
        so the ring keeps ``p50/p95/p99`` accurate on recent traffic at
        fixed memory and fixed sort cost.  ``num_queries`` still counts
        every query ever recorded.
    latency_window:
        Capacity of the latency ring (>= 1); defaults to
        :data:`DEFAULT_LATENCY_WINDOW`.
    cache_hits, cache_misses:
        Result-cache counters accumulated during the run (0 when the engine
        runs without a cache).
    candidates_generated, candidates_pruned, candidates_verified:
        Filter-effectiveness counters of the pruned execution layer,
        accumulated over the run's queries: (query, graph) pairs considered,
        eliminated by bound arithmetic before scoring, and actually scored.
        An unpruned engine reports every pair as generated *and* verified
        (prune_rate 0).
    """

    #: Default capacity of the recent-latency ring: large enough that p99
    #: over the window is statistically meaningful, small enough that a
    #: server holding one of these per process stays O(100 KiB).
    DEFAULT_LATENCY_WINDOW = 8192

    num_queries: int = 0
    num_batches: int = 0
    elapsed_seconds: float = 0.0
    latencies: Deque[float] = field(default_factory=deque)
    cache_hits: int = 0
    cache_misses: int = 0
    candidates_generated: int = 0
    candidates_pruned: int = 0
    candidates_verified: int = 0
    latency_window: int = DEFAULT_LATENCY_WINDOW

    def __post_init__(self) -> None:
        if self.latency_window < 1:
            raise ValueError("latency_window must be a positive integer")
        # Accept any iterable (tests/callers pass plain lists) and re-home
        # it in a ring of the configured capacity.
        self.latencies = deque(self.latencies, maxlen=int(self.latency_window))

    def record_latency(self, latency: float) -> None:
        """Record one served query (count + ring) in one call."""
        self.num_queries += 1
        self.latencies.append(float(latency))

    # ------------------------------------------------------------------ #
    # derived metrics
    # ------------------------------------------------------------------ #
    @property
    def queries_per_second(self) -> float:
        """Throughput of the run (0.0 before anything was served)."""
        if self.elapsed_seconds <= 0.0 or self.num_queries == 0:
            return 0.0
        return self.num_queries / self.elapsed_seconds

    @property
    def mean_latency(self) -> float:
        """Mean per-query latency in seconds."""
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def percentile(self, q: float) -> float:
        """Return the ``q``-th latency percentile (``q`` in ``[0, 100]``).

        Uses the nearest-rank method on the sorted latencies; returns 0.0
        when nothing has been recorded yet.
        """
        if not self.latencies:
            return 0.0
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile q must lie in [0, 100]")
        ordered = sorted(self.latencies)
        rank = max(math.ceil(q / 100.0 * len(ordered)), 1) - 1
        return ordered[rank]

    @property
    def p50_latency(self) -> float:
        """Median per-query latency in seconds."""
        return self.percentile(50.0)

    @property
    def p95_latency(self) -> float:
        """95th-percentile per-query latency in seconds."""
        return self.percentile(95.0)

    @property
    def p99_latency(self) -> float:
        """99th-percentile per-query latency in seconds (tail SLO metric)."""
        return self.percentile(99.0)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of queries answered from the result cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def prune_rate(self) -> float:
        """Fraction of generated candidates eliminated without scoring."""
        if self.candidates_generated <= 0:
            return 0.0
        return self.candidates_pruned / self.candidates_generated

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def merge(self, other: "ServingStats") -> "ServingStats":
        """Fold another stats object into this one (in place) and return self.

        Elapsed times are summed, which is correct for sequential runs —
        each merged run carries its own wall-clock time.
        """
        self.num_queries += other.num_queries
        self.num_batches += other.num_batches
        self.elapsed_seconds += other.elapsed_seconds
        self.latencies.extend(other.latencies)  # ring drops the oldest samples
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.candidates_generated += other.candidates_generated
        self.candidates_pruned += other.candidates_pruned
        self.candidates_verified += other.candidates_verified
        return self

    def as_dict(self) -> Dict[str, float]:
        """Return a flat summary dict (for logging / result files)."""
        return {
            "num_queries": self.num_queries,
            "num_batches": self.num_batches,
            "elapsed_seconds": self.elapsed_seconds,
            "queries_per_second": self.queries_per_second,
            "mean_latency": self.mean_latency,
            "p50_latency": self.p50_latency,
            "p95_latency": self.p95_latency,
            "p99_latency": self.p99_latency,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "candidates_generated": self.candidates_generated,
            "candidates_pruned": self.candidates_pruned,
            "candidates_verified": self.candidates_verified,
            "prune_rate": self.prune_rate,
            "latency_samples": len(self.latencies),
            "latency_window": self.latency_window,
        }

    def __repr__(self) -> str:
        return (
            f"<ServingStats n={self.num_queries} qps={self.queries_per_second:.1f} "
            f"p50={self.p50_latency * 1e3:.2f}ms p95={self.p95_latency * 1e3:.2f}ms "
            f"hit_rate={self.cache_hit_rate:.0%}>"
        )
