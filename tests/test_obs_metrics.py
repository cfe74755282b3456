"""Unit tests for the metrics registry and exposition (repro.obs)."""

from __future__ import annotations

import json

import pytest

from repro.obs import metrics as metrics_module
from repro.obs.export import PROMETHEUS_CONTENT_TYPE, prometheus_text, snapshot
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_enabled,
)


class TestPrimitives:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_gauge_set_inc(self):
        gauge = Gauge()
        gauge.set(7)
        gauge.inc(3)
        assert gauge.value == 10.0

    def test_histogram_buckets_and_sum(self):
        hist = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == pytest.approx(106.5)
        # per-slot: <=1, <=2, <=4, +Inf
        assert hist.bucket_counts == [1, 2, 1, 1]
        assert hist.cumulative_counts() == [1, 3, 4, 5]

    def test_histogram_boundary_lands_in_le_bucket(self):
        hist = Histogram(bounds=(1.0, 2.0))
        hist.observe(1.0)  # le="1.0" must include exactly-1.0 observations
        assert hist.bucket_counts == [1, 0, 0]

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_child(self):
        registry = MetricsRegistry()
        first = registry.counter("q_total", "queries")
        second = registry.counter("q_total")
        assert first is second

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")

    def test_label_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        family = registry.counter("by_kind", "k", ("kind",))
        with pytest.raises(ValueError):
            registry.counter("by_kind", "k", ("other",))
        with pytest.raises(ValueError):
            family.labels(other="x")
        with pytest.raises(ValueError):
            family.default  # labeled family has no label-less child

    def test_labeled_children_are_cached(self):
        registry = MetricsRegistry()
        family = registry.counter("by_kind", "k", ("kind",))
        a1 = family.labels(kind="a")
        a2 = family.labels(kind="a")
        b = family.labels(kind="b")
        assert a1 is a2 and a1 is not b
        a1.inc(2)
        b.inc()
        assert {lv: c.value for lv, c in family.series()} == {("a",): 2.0, ("b",): 1.0}

    def test_default_histogram_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds")
        assert hist.bounds == DEFAULT_LATENCY_BUCKETS

    def test_global_registry_is_a_singleton(self):
        assert get_registry() is get_registry()


class TestEnableSwitch:
    def test_disabled_increments_are_no_ops(self):
        counter = Counter()
        gauge = Gauge()
        hist = Histogram(bounds=(1.0,))
        previous = set_enabled(False)
        try:
            assert not metrics_module._ENABLED
            counter.inc()
            gauge.set(5)
            hist.observe(0.5)
        finally:
            set_enabled(previous)
        assert counter.value == 0.0
        assert gauge.value == 0.0
        assert hist.count == 0
        counter.inc()
        assert counter.value == 1.0  # re-enabled


class TestPrometheusText:
    def test_counter_and_gauge_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "Help text", ("kind",)).labels(kind="a").inc(2)
        registry.gauge("repro_depth", "Queue depth").set(4)
        text = prometheus_text(registry)
        assert "# HELP repro_x_total Help text" in text
        assert "# TYPE repro_x_total counter" in text
        assert 'repro_x_total{kind="a"} 2' in text
        assert "# TYPE repro_depth gauge" in text
        assert "repro_depth 4" in text
        assert text.endswith("\n")

    def test_histogram_exposition_is_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_lat", "Latency", buckets=(0.5, 1.0))
        for value in (0.25, 0.75, 2.0):
            hist.observe(value)
        text = prometheus_text(registry)
        assert 'repro_lat_bucket{le="0.5"} 1' in text
        assert 'repro_lat_bucket{le="1"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_sum 3" in text
        assert "repro_lat_count 3" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_esc_total", "", ("name",)).labels(name='a"b\\c').inc()
        text = prometheus_text(registry)
        assert 'name="a\\"b\\\\c"' in text

    def test_content_type_constant(self):
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(3)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = snapshot(registry)
        assert snap["c_total"]["samples"][0]["value"] == 3.0
        hist_sample = snap["h"]["samples"][0]
        assert hist_sample["count"] == 1
        assert hist_sample["buckets"]["+Inf"] == 1

    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("calls_total", "calls", ("kernel",)).labels(kernel="row").inc(5)
        registry.gauge("depth").set(3)
        registry.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
        snap = snapshot(registry)
        assert json.loads(json.dumps(snap)) == snap
        assert snap["calls_total"]["samples"] == [{"labels": {"kernel": "row"}, "value": 5.0}]
        assert snap["depth"]["samples"][0]["value"] == 3.0
        assert snap["lat"]["samples"][0]["buckets"] == {"1": 0, "2": 1, "+Inf": 1}

    def test_instrumented_stack_registers_all_layers(self):
        # Importing the five layers must register their metric families in
        # the global registry — the exposition covers the whole stack.
        import repro.core.plan  # noqa: F401
        import repro.db.columnar  # noqa: F401
        import repro.offline.fitter  # noqa: F401
        import repro.service.server  # noqa: F401
        import repro.serving.engine  # noqa: F401

        names = {family.name for family in get_registry().families()}
        expected = {
            "repro_kernel_calls_total",  # db layer
            "repro_kernel_backend_info",
            "repro_stage_seconds",  # execution core
            "repro_plan_choices_total",
            "repro_engine_queries_total",  # serving layer
            "repro_engine_cache_events_total",
            "repro_batcher_batch_size",  # service layer
            "repro_admission_admitted_total",
            "repro_service_requests_total",
            "repro_offline_fits_total",  # offline layer
        }
        assert expected <= names


class TestEngineQueryCounter:
    def test_every_query_is_counted_under_exactly_one_path(self):
        """Σ over ``path`` of ``repro_engine_queries_total`` == queries answered.

        Regression: ``query_batch`` used to count its whole batch under
        ``path="batch"`` and then route the top-k rows through
        ``query_topk``, which counted them again under ``path="topk"``.
        """
        import random

        from repro.core.search import GBDASearch
        from repro.db.database import GraphDatabase
        from repro.db.query import SimilarityQuery
        from repro.graphs.generators import random_labeled_graph
        from repro.serving import BatchQueryEngine

        rng = random.Random(7)
        graphs = [random_labeled_graph(rng.randint(4, 7), rng.randint(4, 8), seed=rng) for _ in range(12)]
        search = GBDASearch(GraphDatabase(graphs), max_tau=2, num_prior_pairs=60, seed=1).fit()
        engine = BatchQueryEngine.from_search(search)
        plain = [SimilarityQuery(graph, 1, 0.5) for graph in graphs[:5]]
        ranked = [SimilarityQuery(graph, 2, 0.5, top_k=3) for graph in graphs[5:8]]

        def counts():
            series = get_registry().get("repro_engine_queries_total").series()
            return {labels[0]: child.value for labels, child in series}

        before = counts()
        engine.query_batch(plain + ranked)  # 5 batch + 3 topk
        engine.query(plain[0])  # 1 single
        engine.query(ranked[0])  # 1 topk (routed by query)
        engine.query_topk(plain[1], 2)  # 1 topk
        after = counts()
        delta = {path: after[path] - before.get(path, 0.0) for path in after}
        assert delta == {"single": 1.0, "topk": 5.0, "batch": 5.0}
        assert sum(delta.values()) == len(plain) + len(ranked) + 3
