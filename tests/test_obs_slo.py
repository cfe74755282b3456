"""Unit tests for the burn-rate SLO engine (repro.obs.slo)."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    STATE_OK,
    STATE_PAGE,
    STATE_WARN,
    SLOEngine,
    SLOTarget,
    error_rate_slo,
    latency_slo,
)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class CountSource:
    """Hand-driven cumulative (good, total) source."""

    def __init__(self):
        self.good = 0.0
        self.total = 0.0

    def __call__(self):
        return self.good, self.total

    def record(self, good: int, bad: int = 0) -> None:
        self.good += good
        self.total += good + bad


def _engine(clock, **kwargs):
    kwargs.setdefault("windows", (60.0, 600.0))
    kwargs.setdefault("registry", MetricsRegistry())
    return SLOEngine(clock=clock, **kwargs)


class TestSLOTarget:
    def test_error_budget(self):
        target = SLOTarget("t", 0.99, lambda: (0.0, 0.0))
        assert target.error_budget == pytest.approx(0.01)

    def test_objective_must_be_a_fraction(self):
        with pytest.raises(ValueError):
            SLOTarget("t", 1.0, lambda: (0.0, 0.0))
        with pytest.raises(ValueError):
            SLOTarget("t", 0.0, lambda: (0.0, 0.0))

    def test_latency_slo_counts_buckets_at_or_under_threshold(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", "h", buckets=(0.1, 0.25, 1.0))
        for value in (0.05, 0.2, 0.2, 0.9):
            histogram.observe(value)
        target = latency_slo("lat", histogram, 0.25, objective=0.9)
        good, total = target.counts()
        assert (good, total) == (3.0, 4.0)

    def test_latency_slo_threshold_below_all_bounds_rejected(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h2_seconds", "h", buckets=(0.1, 0.25))
        with pytest.raises(ValueError):
            latency_slo("lat", histogram, 0.01)

    def test_error_rate_slo_counts(self):
        target = error_rate_slo("avail", lambda: 10.0, lambda: 3.0, objective=0.9)
        assert target.counts() == (7.0, 10.0)


class TestBurnRates:
    def test_all_good_burns_zero(self):
        clock = FakeClock()
        source = CountSource()
        engine = _engine(clock)
        engine.add(SLOTarget("t", 0.99, source))
        source.record(good=100)
        report = engine.evaluate()
        objective = report["objectives"][0]
        assert objective["state"] == STATE_OK
        assert all(burn == 0.0 for burn in objective["burn_rates"].values())
        assert objective["compliance"] == 1.0
        assert objective["budget_remaining"] == 1.0

    def test_burn_rate_is_bad_fraction_over_budget(self):
        clock = FakeClock()
        source = CountSource()
        engine = _engine(clock)
        engine.add(SLOTarget("t", 0.99, source))
        engine.evaluate()  # baseline sample at t=0
        clock.advance(30.0)
        source.record(good=90, bad=10)  # 10% bad, budget 1% -> burn 10
        report = engine.evaluate()
        burns = report["objectives"][0]["burn_rates"]
        assert burns["60s"] == pytest.approx(10.0)
        assert burns["600s"] == pytest.approx(10.0)

    def test_idle_window_burns_zero(self):
        clock = FakeClock()
        source = CountSource()
        engine = _engine(clock)
        engine.add(SLOTarget("t", 0.99, source))
        engine.evaluate()
        clock.advance(30.0)
        report = engine.evaluate()  # no traffic at all
        assert all(
            burn == 0.0 for burn in report["objectives"][0]["burn_rates"].values()
        )


class TestStateTransitions:
    def test_page_requires_every_window_burning(self):
        clock = FakeClock()
        source = CountSource()
        engine = _engine(clock)
        engine.add(SLOTarget("t", 0.99, source))
        # Good traffic inside the long window dilutes its burn below the page
        # threshold: a page needs the damage to be sustained, not just recent.
        engine.evaluate()
        clock.advance(30.0)
        source.record(good=10000)
        engine.evaluate()
        clock.advance(510.0)
        engine.evaluate()
        clock.advance(30.0)
        source.record(good=0, bad=50)  # short window 100% bad
        report = engine.evaluate()
        objective = report["objectives"][0]
        assert objective["burn_rates"]["60s"] == pytest.approx(100.0)
        assert objective["burn_rates"]["600s"] < 2.0
        assert objective["state"] == STATE_OK

    def test_ok_warn_page_and_recovery(self):
        clock = FakeClock()
        source = CountSource()
        engine = _engine(clock)
        engine.add(SLOTarget("t", 0.99, source))
        engine.evaluate()
        assert engine.state("t") == STATE_OK

        clock.advance(30.0)
        source.record(good=96, bad=4)  # 4% bad -> burn 4: warn, not page
        engine.evaluate()
        assert engine.state("t") == STATE_WARN

        clock.advance(30.0)
        source.record(good=0, bad=100)  # sustained 100% bad -> page everywhere
        engine.evaluate()
        assert engine.state("t") == STATE_PAGE

        # Recovery: enough clean traffic pushes every window back under warn.
        clock.advance(700.0)
        source.record(good=100000)
        engine.evaluate()
        assert engine.state("t") == STATE_OK

        transitions = engine.transitions("t")
        assert [(t["from"], t["to"]) for t in transitions] == [
            (STATE_OK, STATE_WARN),
            (STATE_WARN, STATE_PAGE),
            (STATE_PAGE, STATE_OK),
        ]

    def test_on_transition_callback_fires(self):
        clock = FakeClock()
        source = CountSource()
        seen = []
        engine = _engine(
            clock, on_transition=lambda *args: seen.append(args)
        )
        engine.add(SLOTarget("t", 0.99, source))
        engine.evaluate()
        clock.advance(30.0)
        source.record(good=0, bad=100)
        engine.evaluate()
        assert len(seen) == 1
        name, old_state, new_state, burns = seen[0]
        assert (name, old_state, new_state) == ("t", STATE_OK, STATE_PAGE)
        assert burns["60s"] >= 10.0


class TestEngineSurface:
    def test_gauges_exported_to_registry(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        source = CountSource()
        engine = _engine(clock, registry=registry)
        engine.add(SLOTarget("t", 0.99, source))
        engine.evaluate()
        clock.advance(30.0)
        source.record(good=0, bad=10)
        engine.evaluate()
        burn = registry.get("repro_slo_burn_rate").labels(slo="t", window="60s").value
        state = registry.get("repro_slo_state").labels(slo="t").value
        assert burn == pytest.approx(100.0)
        assert state == 2.0

    def test_add_is_idempotent_per_name(self):
        engine = _engine(FakeClock())
        first = CountSource()
        engine.add(SLOTarget("t", 0.99, first))
        engine.add(SLOTarget("t", 0.5, CountSource()))
        assert list(engine._tracked) == ["t"]
        assert engine._tracked["t"].target.objective == 0.99

    def test_report_shape(self):
        engine = _engine(FakeClock())
        engine.add(SLOTarget("t", 0.99, CountSource(), description="desc"))
        report = engine.evaluate()
        assert report["windows_seconds"] == [60.0, 600.0]
        objective = report["objectives"][0]
        assert objective["name"] == "t"
        assert objective["description"] == "desc"
        assert set(objective["burn_rates"]) == {"60s", "600s"}

    def test_validation(self):
        with pytest.raises(ValueError):
            SLOEngine(windows=())
        with pytest.raises(ValueError):
            SLOEngine(warn_burn=5.0, page_burn=2.0)
