"""Declarative SLOs evaluated as multi-window burn rates over live metrics.

An *objective* says what fraction of requests must be good — e.g. "99% of
requests complete within 250 ms" or "99.9% of requests succeed".  The
engine turns the cumulative good/total counts already maintained by the
metrics registry (histogram buckets, outcome counters) into **burn
rates**: the rate at which the error budget (``1 - objective``) is being
spent, normalized so that burn 1.0 exhausts the budget exactly at the end
of the compliance period.

Alerting follows the multi-window pattern from the SRE workbook: a page
requires *both* a short window (fast detection, 5 m) and a long window
(sustained damage, 1 h) to burn above the page threshold — a brief spike
trips neither, a real outage trips both within minutes.  State transitions
are ``ok → warn → page`` (and back), exported as ``repro_slo_state`` /
``repro_slo_burn_rate`` gauges next to the metrics they are computed from,
and returned by the service's ``slo`` admin command.

Everything is deterministic under an injectable clock: :meth:`SLOEngine.evaluate`
appends one ``(now, good, total)`` sample per objective to a pruned ring
and differences it against the sample at each window's horizon, so tests
drive the clock and the counters by hand and assert exact transitions.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.metrics import Histogram, MetricsRegistry, get_registry

__all__ = [
    "SLOTarget",
    "SLOEngine",
    "latency_slo",
    "error_rate_slo",
    "DEFAULT_WINDOWS",
    "STATE_OK",
    "STATE_WARN",
    "STATE_PAGE",
]

#: Multi-window horizon seconds: short (fast detection) and long (sustained).
DEFAULT_WINDOWS: Tuple[float, ...] = (300.0, 3600.0)

STATE_OK = "ok"
STATE_WARN = "warn"
STATE_PAGE = "page"
_STATE_VALUES = {STATE_OK: 0.0, STATE_WARN: 1.0, STATE_PAGE: 2.0}


class SLOTarget:
    """One declarative objective over a cumulative ``(good, total)`` source.

    ``counts`` is any callable returning the *cumulative* good and total
    event counts — the engine differences successive readings, so the
    source only ever needs to count up.  Use :func:`latency_slo` /
    :func:`error_rate_slo` to build one from registry metrics.
    """

    def __init__(
        self,
        name: str,
        objective: float,
        counts: Callable[[], Tuple[float, float]],
        description: str = "",
    ) -> None:
        if not 0.0 < objective < 1.0:
            raise ValueError("objective must lie strictly between 0 and 1")
        self.name = str(name)
        self.objective = float(objective)
        self.counts = counts
        self.description = description

    @property
    def error_budget(self) -> float:
        """The tolerated bad fraction, ``1 - objective``."""
        return 1.0 - self.objective

    def __repr__(self) -> str:
        return f"<SLOTarget {self.name} objective={self.objective}>"


def latency_slo(
    name: str,
    histogram: Histogram,
    threshold_seconds: float,
    objective: float = 0.99,
    description: str = "",
) -> SLOTarget:
    """Objective: ``objective`` of observations at most ``threshold_seconds``.

    Good = cumulative count of the largest histogram bucket whose upper
    bound is <= the threshold (the classic Prometheus ``le`` trick), so
    the threshold should coincide with a bucket bound; a threshold between
    bounds is conservatively rounded *down* to the next bound.
    """
    slot = bisect_right(histogram.bounds, float(threshold_seconds))
    if slot == 0:
        raise ValueError(
            f"threshold {threshold_seconds}s is below the lowest bucket bound "
            f"{histogram.bounds[0]}s"
        )

    def counts() -> Tuple[float, float]:
        good = 0
        for bucket_count in histogram.bucket_counts[:slot]:
            good += bucket_count
        return float(good), float(histogram.count)

    return SLOTarget(
        name,
        objective,
        counts,
        description
        or f"{objective:.1%} of observations <= {histogram.bounds[slot - 1] * 1e3:g}ms",
    )


def error_rate_slo(
    name: str,
    total: Callable[[], float],
    bad: Callable[[], float],
    objective: float = 0.999,
    description: str = "",
) -> SLOTarget:
    """Objective: at most ``1 - objective`` of events are bad.

    ``total`` and ``bad`` are cumulative-count callables (e.g. sums over
    an outcome-labeled counter family).
    """

    def counts() -> Tuple[float, float]:
        all_events = float(total())
        return all_events - float(bad()), all_events

    return SLOTarget(name, objective, counts, description or f"{objective:.2%} success")


class _TrackedSLO:
    """One objective plus its sample ring and alert state."""

    def __init__(self, target: SLOTarget, max_window: float) -> None:
        self.target = target
        self.state = STATE_OK
        self.transitions: List[Dict[str, Any]] = []
        self.samples: Deque[Tuple[float, float, float]] = deque()
        self._horizon = max_window * 1.25 + 1.0

    def observe(self, now: float) -> Tuple[float, float]:
        good, total = self.target.counts()
        self.samples.append((now, good, total))
        while self.samples and self.samples[0][0] < now - self._horizon:
            self.samples.popleft()
        return good, total

    def window_burn(self, now: float, window: float) -> float:
        """Burn rate over the trailing ``window`` seconds (0 when idle).

        Differences the newest sample against the oldest sample inside the
        window; burn = (bad fraction in window) / error budget.
        """
        if not self.samples:
            return 0.0
        newest_t, newest_good, newest_total = self.samples[-1]
        base = None
        for sample in self.samples:
            if sample[0] >= now - window:
                base = sample
                break
        if base is None or base[0] == newest_t:
            base = self.samples[0]
        delta_total = newest_total - base[2]
        if delta_total <= 0:
            return 0.0
        delta_bad = max(delta_total - (newest_good - base[1]), 0.0)
        return (delta_bad / delta_total) / self.target.error_budget


class SLOEngine:
    """Evaluates registered objectives into burn rates, gauges, and alerts.

    Parameters
    ----------
    windows:
        Trailing horizons in seconds (default 5 m and 1 h).  A state is
        only entered when **every** window agrees — the multi-window AND.
    warn_burn, page_burn:
        Burn-rate thresholds for the warn and page states.  Burn 1.0 means
        the error budget is being spent exactly at sustainable speed.
    clock:
        Injectable monotonic clock (tests drive transitions by hand).
    registry:
        Where the ``repro_slo_*`` gauges are registered (default: the
        process-global registry).
    on_transition:
        Optional callback ``(slo_name, old_state, new_state, burns)``
        invoked on every alert state change (the service logs these).
    """

    def __init__(
        self,
        *,
        windows: Tuple[float, ...] = DEFAULT_WINDOWS,
        warn_burn: float = 2.0,
        page_burn: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
        registry: Optional[MetricsRegistry] = None,
        on_transition: Optional[Callable[[str, str, str, Dict[str, float]], None]] = None,
    ) -> None:
        if not windows:
            raise ValueError("at least one burn-rate window is required")
        if warn_burn <= 0 or page_burn <= 0 or page_burn < warn_burn:
            raise ValueError("need 0 < warn_burn <= page_burn")
        self.windows = tuple(sorted(float(w) for w in windows))
        self.warn_burn = float(warn_burn)
        self.page_burn = float(page_burn)
        self.on_transition = on_transition
        self._clock = clock
        self._tracked: Dict[str, _TrackedSLO] = {}
        self._lock = threading.Lock()
        registry = registry if registry is not None else get_registry()
        self._burn_gauge = registry.gauge(
            "repro_slo_burn_rate",
            "Error-budget burn rate per objective and trailing window",
            ("slo", "window"),
        )
        self._state_gauge = registry.gauge(
            "repro_slo_state",
            "Alert state per objective (0=ok, 1=warn, 2=page)",
            ("slo",),
        )

    def add(self, target: SLOTarget) -> SLOTarget:
        """Register one objective (idempotent per name)."""
        with self._lock:
            if target.name not in self._tracked:
                self._tracked[target.name] = _TrackedSLO(target, self.windows[-1])
        return target

    def _classify(self, burns: Dict[str, float]) -> str:
        values = list(burns.values())
        if all(burn >= self.page_burn for burn in values):
            return STATE_PAGE
        if all(burn >= self.warn_burn for burn in values):
            return STATE_WARN
        return STATE_OK

    def evaluate(self) -> Dict[str, Any]:
        """Sample every objective now; update gauges/states; return the report.

        Cheap enough to run on every scrape: one counts() read and a few
        subtractions per objective.
        """
        now = self._clock()
        report: Dict[str, Any] = {
            "windows_seconds": list(self.windows),
            "warn_burn": self.warn_burn,
            "page_burn": self.page_burn,
            "objectives": [],
        }
        with self._lock:
            tracked_items = list(self._tracked.items())
        for name, tracked in tracked_items:
            good, total = tracked.observe(now)
            burns = {
                f"{int(window)}s": tracked.window_burn(now, window)
                for window in self.windows
            }
            new_state = self._classify(burns)
            old_state = tracked.state
            if new_state != old_state:
                tracked.state = new_state
                tracked.transitions.append(
                    {"at": now, "from": old_state, "to": new_state, "burns": dict(burns)}
                )
                if self.on_transition is not None:
                    self.on_transition(name, old_state, new_state, burns)
            for window_name, burn in burns.items():
                self._burn_gauge.labels(slo=name, window=window_name).set(burn)
            self._state_gauge.labels(slo=name).set(_STATE_VALUES[new_state])
            compliance = good / total if total > 0 else 1.0
            report["objectives"].append(
                {
                    "name": name,
                    "description": tracked.target.description,
                    "objective": tracked.target.objective,
                    "state": new_state,
                    "burn_rates": burns,
                    "good": good,
                    "total": total,
                    "compliance": compliance,
                    "budget_remaining": (
                        max(1.0 - (1.0 - compliance) / tracked.target.error_budget, 0.0)
                        if total > 0
                        else 1.0
                    ),
                    "transitions": len(tracked.transitions),
                }
            )
        return report

    def transitions(self, name: str) -> List[Dict[str, Any]]:
        """The recorded state transitions of one objective."""
        return list(self._tracked[name].transitions)

    def state(self, name: str) -> str:
        """Current alert state of one objective."""
        return self._tracked[name].state

    def __repr__(self) -> str:
        return f"<SLOEngine objectives={len(self._tracked)} windows={self.windows}>"
