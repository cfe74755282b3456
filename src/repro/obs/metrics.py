"""Low-overhead metrics registry: counters, gauges, fixed-bucket histograms.

The observability substrate of the whole stack (see :mod:`repro.obs`): every
layer — columnar kernels, execution core, serving engine, service
— increments metrics registered here, and the exposition layer
(:mod:`repro.obs.export`) renders one registry into Prometheus text or a
plain snapshot dict.

Design constraints, in order:

1. **Hot-path cost.**  ``Counter.inc`` / ``Histogram.observe`` sit inside
   the per-query serving path (thousands of calls per second), so they are
   plain attribute arithmetic guarded by one module-global enable flag —
   no locks, no dict lookups, no string formatting.  Instrumented modules
   bind their label children **once at import time** so the hot path never
   resolves a label set.  Under CPython the ``+=`` on the int/float slots
   is not atomic across threads; concurrent increments may rarely lose a
   tick, which is the classic statsd trade-off — monotonicity of *observed*
   scrapes is preserved because readers only ever see some prefix of the
   true count (validated by the service-level concurrency test).
2. **Labels.**  A metric family created with ``labelnames`` hands out
   per-label-value children via :meth:`_MetricFamily.labels`; children are
   created under a lock (creation is rare), then cached and returned
   lock-free.

``set_enabled(False)`` turns every increment into an early return — the
switch the overhead benchmark uses to price the instrumentation itself.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "get_registry",
    "set_enabled",
]

#: Latency histogram bounds in seconds: 50µs .. 10s, roughly log-spaced —
#: wide enough for both in-process kernel timings and end-to-end service
#: latencies without per-metric tuning.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Size/count histogram bounds (batch sizes, candidate counts): powers of two.
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384,
)

#: Fraction histogram bounds (selectivity, hit rates): 0..1 in coarse steps.
DEFAULT_RATIO_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95, 1.0,
)

#: Module-global kill switch read by every hot-path increment.
_ENABLED = True


def set_enabled(enabled: bool) -> bool:
    """Globally enable/disable metric recording; return the previous state.

    Used by the overhead benchmark to measure the instrumented stack
    against itself with recording compiled down to one boolean check.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


class Counter:
    """Monotonically increasing value (one labeled series of a family)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0 for Prometheus semantics)."""
        if _ENABLED:
            self.value += amount


class Gauge:
    """Value that can go up and down (queue depth, model version, ...)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        if _ENABLED:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if _ENABLED:
            self.value += amount


class Histogram:
    """Fixed-bucket histogram with a sum and a count.

    ``bounds`` are the *upper* bucket edges (``le`` labels); an implicit
    ``+Inf`` bucket catches everything above the last bound.  ``observe``
    is one bisect plus three attribute writes — cheap enough for per-query
    hot paths.

    **Exemplars.**  An observation made with ``trace_id=...`` additionally
    stamps that trace id (plus the observed value) as the bucket's
    exemplar — the most recent sampled trace that landed there — so a bad
    latency bucket links straight to a concrete stage waterfall.
    Exemplars ride the JSON ``snapshot()`` and the OpenMetrics-style
    exposition comments.
    """

    __slots__ = ("bounds", "bucket_counts", "sum", "count", "exemplars")
    kind = "histogram"

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bucket bounds must be strictly increasing")
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        #: bucket index -> (trace_id, observed value); written only on the
        #: (rare) sampled path, read by the exposition layer.
        self.exemplars: Dict[int, Tuple[str, float]] = {}

    def observe(self, value: float, trace_id: Optional[str] = None, *, count: int = 1) -> None:
        """Record ``value`` (``count`` observations of it, for a batch's even shares)."""
        if _ENABLED:
            slot = bisect_left(self.bounds, value)
            self.bucket_counts[slot] += count
            self.sum += value * count
            self.count += count
            if trace_id is not None:
                self.exemplars[slot] = (trace_id, value)

    def cumulative_counts(self) -> List[int]:
        """Cumulative per-``le`` counts (Prometheus exposition form)."""
        total = 0
        out = []
        for count in self.bucket_counts:
            total += count
            out.append(total)
        return out
_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _MetricFamily:
    """One registered metric name: its metadata plus per-label-set children."""

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Tuple[str, ...],
        buckets: Optional[Sequence[float]],
    ) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = labelnames
        self.buckets = tuple(buckets) if buckets is not None else None
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()
        if not labelnames:
            # Label-less families are their own single child.
            self._children[()] = self._new_child()

    def _new_child(self):
        if self.kind == "histogram":
            return Histogram(self.buckets if self.buckets is not None else DEFAULT_LATENCY_BUCKETS)
        return _KINDS[self.kind]()

    def labels(self, **labels: str):
        """Return (creating if needed) the child for one label-value set."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._new_child()
                    self._children[key] = child
        return child

    @property
    def default(self):
        """The label-less child (only valid for families without labels)."""
        if self.labelnames:
            raise ValueError(f"metric {self.name!r} requires labels {self.labelnames}")
        return self._children[()]

    def series(self) -> List[Tuple[Tuple[str, ...], object]]:
        """Stable (label values, child) listing for exposition."""
        return sorted(self._children.items())


class MetricsRegistry:
    """Named metric families with get-or-create registration.

    One process-global default registry (:func:`get_registry`) backs all
    built-in instrumentation, mirroring the Prometheus client convention;
    isolated registries can be constructed for tests.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _MetricFamily] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # registration (get-or-create; kind/label mismatches are errors)
    # ------------------------------------------------------------------ #
    def _family(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Iterable[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> _MetricFamily:
        labelnames = tuple(labelnames)
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = _MetricFamily(name, help_text, kind, labelnames, buckets)
                    self._families[name] = family
        if family.kind != kind or family.labelnames != labelnames:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind} with labels "
                f"{family.labelnames}; requested {kind} with {labelnames}"
            )
        return family

    def counter(self, name: str, help_text: str = "", labelnames: Iterable[str] = ()):
        """Register (or fetch) a counter family; label-less returns the Counter."""
        family = self._family(name, help_text, "counter", labelnames)
        return family if family.labelnames else family.default

    def gauge(self, name: str, help_text: str = "", labelnames: Iterable[str] = ()):
        """Register (or fetch) a gauge family; label-less returns the Gauge."""
        family = self._family(name, help_text, "gauge", labelnames)
        return family if family.labelnames else family.default

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        """Register (or fetch) a histogram family; label-less returns it directly."""
        family = self._family(name, help_text, "histogram", labelnames, buckets)
        return family if family.labelnames else family.default

    # ------------------------------------------------------------------ #
    # introspection / aggregation
    # ------------------------------------------------------------------ #
    def families(self) -> List[_MetricFamily]:
        """Registered families in name order (exposition iterates this)."""
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[_MetricFamily]:
        """The family registered under ``name``, or ``None``."""
        return self._families.get(name)

    def reset(self) -> None:
        """Drop every registered family (test isolation helper).

        Children previously handed out by :meth:`labels` keep functioning
        but are no longer reachable from the registry — instrumented
        modules that bound children at import time keep counting into
        orphans, so production code should never call this.
        """
        with self._lock:
            self._families.clear()

    def __repr__(self) -> str:
        return f"<MetricsRegistry families={len(self._families)}>"


#: The process-global default registry backing all built-in instrumentation.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default :class:`MetricsRegistry`."""
    return REGISTRY
