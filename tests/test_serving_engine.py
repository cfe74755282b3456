"""Tests for the batched serving engine (repro.serving.engine)."""

from __future__ import annotations

import random

import pytest

from repro.core.search import GBDASearch
from repro.db import columnar
from repro.db.database import GraphDatabase
from repro.db.kernels import available_backends
from repro.db.query import SimilarityQuery
from repro.exceptions import ServingError
from repro.graphs.generators import random_labeled_graph
from repro.obs.metrics import get_registry
from repro.obs.trace import QueryTrace
from repro.serving import BatchQueryEngine


@pytest.fixture(scope="module")
def random_database():
    rng = random.Random(7)
    graphs = [
        random_labeled_graph(rng.randint(5, 9), rng.randint(5, 12), seed=rng)
        for _ in range(50)
    ]
    return GraphDatabase(graphs, name="serving-random")


@pytest.fixture(scope="module")
def fitted(random_database):
    return GBDASearch(random_database, max_tau=4, num_prior_pairs=150, seed=3).fit()


@pytest.fixture(scope="module")
def engine(fitted):
    return BatchQueryEngine.from_search(fitted, keep_scores="all")


def _random_queries(num, seed, max_tau=4):
    rng = random.Random(seed)
    return [
        SimilarityQuery(
            random_labeled_graph(rng.randint(4, 10), rng.randint(4, 14), seed=rng),
            rng.randint(0, max_tau),
            rng.choice([0.25, 0.5, 0.75, 0.9]),
        )
        for _ in range(num)
    ]


class TestRegressionAgainstLoop:
    def test_identical_answers_on_random_queries(self, fitted, engine):
        """Engine answers must match per-query GBDASearch.query exactly."""
        for query in _random_queries(20, seed=11):
            loop = fitted.query(query)
            served = engine.query(query)
            assert served.accepted_ids == loop.answer.accepted_ids
            # keep_scores="all": posterior scores are bit-identical too
            assert served.scores == loop.posteriors

    def test_identical_answers_on_database_members(self, fitted, engine, random_database):
        for graph_id in (0, 7, 23):
            query = SimilarityQuery(random_database[graph_id].graph, 2, 0.5)
            assert engine.query(query).accepted_ids == fitted.query(query).answer.accepted_ids

    def test_query_batch_preserves_order(self, fitted, engine):
        queries = _random_queries(8, seed=5)
        answers = engine.query_batch(queries)
        assert len(answers) == len(queries)
        for query, answer in zip(queries, answers):
            assert answer.accepted_ids == fitted.query(query).answer.accepted_ids


class TestPosteriorTables:
    def test_posterior_vector_matches_estimator(self, fitted, engine):
        estimator = fitted.estimator
        vector = engine.posterior_vector(3, 8)
        assert len(vector) == 9
        for gbd in range(9):
            assert vector[gbd] == estimator.posterior(gbd, 3, 8)

    def test_posterior_table_refactor_matches_posterior(self, fitted):
        estimator = fitted.estimator
        table = estimator.posterior_table(2, [5, 7, 5])
        assert sorted(table) == [5, 7]
        for order, row in table.items():
            assert len(row) == order + 1
            for gbd, value in enumerate(row):
                assert value == estimator.posterior(gbd, 2, order)

    def test_tables_are_cached_and_warmable(self, engine):
        engine.warm([1, 2])
        before = engine.num_cached_tables
        engine.warm([1, 2])
        assert engine.num_cached_tables == before

    def test_warm_rejects_excessive_tau(self, engine):
        with pytest.raises(ServingError):
            engine.warm([99])


class TestValidationAndLifecycle:
    def test_tau_above_max_is_rejected(self, engine):
        query = SimilarityQuery(random_labeled_graph(5, 6, seed=0), 9, 0.5)
        with pytest.raises(ServingError):
            engine.query(query)

    def test_unfitted_search_is_rejected(self, random_database):
        unfitted = GBDASearch(random_database, max_tau=3)
        with pytest.raises(ServingError):
            BatchQueryEngine.from_search(unfitted)

    def test_empty_database_is_rejected(self, fitted):
        with pytest.raises(ServingError):
            BatchQueryEngine(GraphDatabase(), fitted.estimator, max_tau=3)

    def test_keep_scores_mode_is_validated(self, fitted):
        with pytest.raises(ServingError):
            BatchQueryEngine.from_search(fitted, keep_scores="sometimes")

    def test_keep_scores_accepted_limits_scores(self, fitted):
        engine = BatchQueryEngine.from_search(fitted, keep_scores="accepted", cache_size=None)
        answer = engine.query(_random_queries(1, seed=2)[0])
        assert set(answer.scores) == set(answer.accepted_ids)


class TestIndexPruningParity:
    def test_engine_mirrors_pruning_search(self):
        """from_search propagates use_index_pruning; answers stay identical."""
        rng = random.Random(29)
        graphs = [
            random_labeled_graph(rng.randint(4, 8), rng.randint(3, 10), seed=rng)
            for _ in range(30)
        ]
        database = GraphDatabase(graphs)
        pruning = GBDASearch(
            database, max_tau=3, num_prior_pairs=80, seed=4, use_index_pruning=True
        ).fit()
        engine = BatchQueryEngine.from_search(pruning, keep_scores="all", cache_size=None)
        assert engine.use_index_pruning is True
        # a tiny gamma accepts everything that gets scored, so any pruning
        # divergence between the two paths would show up immediately
        for tau_hat, gamma in [(1, 0.05), (2, 0.05), (3, 0.5)]:
            for query_graph in (graphs[0], random_labeled_graph(6, 8, seed=rng)):
                query = SimilarityQuery(query_graph, tau_hat, gamma)
                loop = pruning.query(query)
                served = engine.query(query)
                assert served.accepted_ids == loop.answer.accepted_ids
                assert served.scores == loop.posteriors

    def test_pruning_survives_snapshot(self, tmp_path):
        rng = random.Random(31)
        graphs = [random_labeled_graph(5, 6, seed=rng) for _ in range(10)]
        database = GraphDatabase(graphs)
        search = GBDASearch(
            database, max_tau=2, num_prior_pairs=40, seed=0, use_index_pruning=True
        ).fit()
        engine = BatchQueryEngine.from_search(search)
        path = tmp_path / "pruning.snapshot"
        engine.save(path)
        assert BatchQueryEngine.load(path).use_index_pruning is True


class TestCacheBehaviour:
    def test_cache_hit_gets_its_own_latency(self, fitted):
        """A cache hit must report the lookup time, not the cold scoring time."""
        engine = BatchQueryEngine.from_search(fitted)
        query = _random_queries(1, seed=77)[0]
        cold = engine.query(query)
        hot = engine.query(query)
        assert engine.cache.hits == 1
        assert hot is not cold  # a stamped copy, not the shared cached object
        assert hot.accepted_ids == cold.accepted_ids
        assert hot.elapsed_seconds > 0.0

    def test_caller_mutation_cannot_corrupt_cache(self, fitted):
        engine = BatchQueryEngine.from_search(fitted, keep_scores="accepted")
        query = _random_queries(1, seed=78)[0]
        first = engine.query(query)
        first.scores.clear()
        first.scores[-1] = 99.0  # vandalise the returned answer in place
        second = engine.query(query)
        assert -1 not in second.scores
        assert set(second.scores) == set(second.accepted_ids)

    def test_batch_scores_a_repeated_query_once(self, fitted, monkeypatch):
        """Repeats inside one batch are copies of the first row's answer."""
        engine = BatchQueryEngine.from_search(fitted)
        a, b, c = _random_queries(3, seed=79)
        engine.query(c)  # c is cached before the batch, a and b are not
        scored = []  # rows per execute_batch call; the engine's own call comes first

        def spy_on(core):
            execute_batch = core.execute_batch

            def spy(queries, **kwargs):
                scored.append(len(queries))
                return execute_batch(queries, **kwargs)

            monkeypatch.setattr(core, "execute_batch", spy)

        spy_on(engine._core)
        hits, misses = engine.cache.hits, engine.cache.misses
        batch = [a, b, a, c, a, b, c]
        answers = engine.query_batch(batch)
        assert scored[0] == 2  # a and b, once each
        # repeats of a missed row never probe the cache; c hits it both times
        assert (engine.cache.hits - hits, engine.cache.misses - misses) == (2, 2)
        for query, answer in zip(batch, answers):
            loop = fitted.query(query)
            assert answer.accepted_ids == loop.answer.accepted_ids
        assert answers[2] is not answers[0] and answers[2].scores is not answers[0].scores
        assert answers[2].scores == answers[0].scores

        cacheless = BatchQueryEngine.from_search(fitted, cache_size=None)
        spy_on(cacheless._core)
        del scored[:]
        cacheless.query_batch(batch)
        assert scored[0] == 7  # no cache key, nothing to deduplicate by

    def test_dropped_engine_does_not_leak_subscription(self):
        import gc

        rng = random.Random(3)
        graphs = [random_labeled_graph(5, 6, seed=rng) for _ in range(10)]
        database = GraphDatabase(graphs)
        search = GBDASearch(database, max_tau=2, num_prior_pairs=40, seed=0).fit()
        for _ in range(4):
            BatchQueryEngine.from_search(search)
        gc.collect()
        database.add(graphs[0].copy(name="post-drop"))  # prunes dead hooks
        assert len(database._subscribers) == 0


class TestIncrementalDatabase:
    def test_added_graph_is_served(self):
        rng = random.Random(19)
        graphs = [
            random_labeled_graph(rng.randint(5, 8), rng.randint(5, 10), seed=rng)
            for _ in range(25)
        ]
        database = GraphDatabase(graphs, name="serving-incremental")
        search = GBDASearch(database, max_tau=4, num_prior_pairs=100, seed=1).fit()
        engine = BatchQueryEngine.from_search(search)
        base = database[0].graph
        query = SimilarityQuery(base, 2, 0.5)
        engine.query(query)  # populate the cache before mutating the database

        new_id = database.add(base.copy(name="late-duplicate"))
        served = engine.query(query)
        loop = search.query(query)
        assert new_id in served.accepted_ids
        assert served.accepted_ids == loop.answer.accepted_ids


    def test_a_write_strands_no_row_data_in_the_core(self):
        """Per-snapshot rows of the execution core are dropped with their snapshot."""
        rng = random.Random(23)
        graphs = [
            random_labeled_graph(rng.randint(5, 8), rng.randint(5, 10), seed=rng)
            for _ in range(25)
        ]
        database = GraphDatabase(graphs, name="serving-write-stream")
        search = GBDASearch(database, max_tau=3, num_prior_pairs=100, seed=1).fit()
        engine = BatchQueryEngine.from_search(search, cache_size=None, keep_scores="all")
        core = engine._core
        queries = _random_queries(6, seed=29, max_tau=3)
        for round_ in range(5):
            for query in queries:
                assert engine.query(query).accepted_ids == search.query(query).answer.accepted_ids
            engine.query_batch(queries)
            snapshot_orders, rows = core._snapshot_rows
            assert snapshot_orders is core.index.store.view()[1]
            assert all(len(row) == len(database) for row in rows.values())
            assert len(rows) <= len({q.query_graph.num_vertices for q in queries}) + 1
            database.add_many([graphs[round_].copy(name=f"late-{round_}")])


class TestRevisionScopedCache:
    def test_lost_add_hook_cannot_serve_stale_answers(self):
        """Regression: cache keys are scoped to the database revision.

        An engine copy that lost its add-hook (the unpickled process-pool
        scenario — the hook is re-registered on unpickle, but a copy whose
        registration is gone must still be safe) used to keep serving
        pre-``add_many`` result sets from its cache.  With the revision in
        the key, the old entries simply stop matching.
        """
        rng = random.Random(29)
        graphs = [
            random_labeled_graph(rng.randint(5, 8), rng.randint(5, 10), seed=rng)
            for _ in range(20)
        ]
        database = GraphDatabase(graphs, name="serving-stale")
        search = GBDASearch(database, max_tau=4, num_prior_pairs=100, seed=2).fit()
        engine = BatchQueryEngine.from_search(search)
        base = database[0].graph
        query = SimilarityQuery(base, 2, 0.5)
        engine.query(query)  # populate the cache

        # Simulate the lost hook: the cache is NOT cleared on addition.
        database.unsubscribe(engine._on_graphs_added)
        new_ids = database.add_many([base.copy(name="post-pickle-duplicate")])

        served = engine.query(query)
        assert new_ids[0] in served.accepted_ids
        assert served.accepted_ids == search.query(query).answer.accepted_ids

    def test_model_version_scopes_cache_entries(self):
        rng = random.Random(31)
        graphs = [
            random_labeled_graph(rng.randint(5, 8), rng.randint(5, 10), seed=rng)
            for _ in range(15)
        ]
        search = GBDASearch(
            GraphDatabase(graphs, name="serving-modelv"), max_tau=3, num_prior_pairs=80, seed=3
        ).fit()
        engine = BatchQueryEngine.from_search(search)
        query = SimilarityQuery(graphs[0], 2, 0.5)
        engine.query(query)
        hits_before = engine.cache.hits
        engine.query(query)
        assert engine.cache.hits == hits_before + 1  # same state: served hot
        engine.model_version += 1  # refit published: old answers unusable
        engine.query(query)
        assert engine.cache.hits == hits_before + 1  # key no longer matches


class TestPrunedExecutionEngine:
    def test_prune_counters_accumulate_and_answers_match(self, fitted):
        pruned = BatchQueryEngine.from_search(fitted, cache_size=None)
        unpruned = BatchQueryEngine.from_search(
            fitted, cache_size=None, pruned_execution=False
        )
        assert pruned.pruned_execution and not unpruned.pruned_execution
        for query in _random_queries(10, seed=41):
            assert pruned.query(query).accepted_ids == unpruned.query(query).accepted_ids
        counters = pruned.prune_counters
        assert counters["candidates_generated"] == (
            counters["candidates_pruned"] + counters["candidates_verified"]
        )
        assert 0.0 <= counters["prune_rate"] <= 1.0

    def test_keep_scores_all_disables_filter_and_verify(self, fitted):
        engine = BatchQueryEngine.from_search(fitted, keep_scores="all", cache_size=None)
        assert not engine._pruned_path  # every candidate's posterior is needed

    def test_pruned_execution_survives_snapshot(self, fitted, tmp_path):
        engine = BatchQueryEngine.from_search(fitted, pruned_execution=False)
        path = tmp_path / "engine.snapshot"
        engine.save(path)
        assert not BatchQueryEngine.load(path).pruned_execution


class TestOnePipeline:
    """A batch row, a single query and both verification plans are one code path."""

    @pytest.fixture(scope="class")
    def selective(self):
        """400 graphs of 8–40 vertices, 16 small tight queries: the bounds prune most."""
        rng = random.Random(5)
        graphs = []
        for _ in range(400):
            order = rng.randint(8, 40)
            graphs.append(random_labeled_graph(order, rng.randint(order - 1, 2 * order), seed=rng))
        search = GBDASearch(
            GraphDatabase(graphs, name="selective"), max_tau=1, num_prior_pairs=150, seed=2
        ).fit()
        qrng = random.Random(9)
        queries = [
            SimilarityQuery(
                random_labeled_graph(qrng.randint(8, 12), qrng.randint(9, 18), seed=qrng),
                qrng.choice([0, 0, 1]),
                0.95,
            )
            for _ in range(12)
        ]
        queries += [SimilarityQuery(graphs[i], 1, 0.95) for i in (3, 77, 150, 311)]
        return search, queries

    def test_empty_batch_on_the_core(self, fitted):
        core = BatchQueryEngine.from_search(fitted, cache_size=None)._core
        for need, pruned in (("full", False), ("accepted", False), ("accepted", True)):
            assert core.execute_batch([], need=need, pruned=pruned) == []
            assert core.execute_batch([], query_branches=[], need=need, pruned=pruned) == []

    def test_batch_counts_what_each_query_verified(self, selective):
        """``prune_counters`` mean one thing: batch == loop, numpy == native."""
        search, queries = selective
        readings = {}
        for backend in available_backends():
            batch_engine, loop_engine = (
                BatchQueryEngine.from_search(search, cache_size=None, kernel_backend=backend)
                for _ in range(2)
            )
            batched = batch_engine.query_batch(queries)
            looped = [loop_engine.query(query) for query in queries]
            for query, one, other in zip(queries, batched, looped):
                assert one.accepted_ids == other.accepted_ids
                assert one.accepted_ids == search.query_reference(query).answer.accepted_ids
            counters = batch_engine.prune_counters
            assert counters == loop_engine.prune_counters  # key by key, passes included
            assert counters["candidates_generated"] == len(queries) * len(search.database)
            assert counters["sparse_passes"] > 0 and counters["candidates_pruned"] > 0
            readings[backend] = counters
        assert all(counters == readings["numpy"] for counters in readings.values())

    def test_traced_flush_has_one_span_per_stage(self, selective):
        """A sampled flush keeps its waterfall shape; histograms still see every row."""
        search, queries = selective
        rows = queries * 2  # no cache: all 32 rows are scored
        engine = BatchQueryEngine.from_search(search, cache_size=None)
        stages = get_registry().get("repro_stage_seconds")
        per_row = stages.labels(stage="bound_filter")
        rows_before = per_row.count
        trace = QueryTrace()
        engine.query_batch(rows, trace=trace)
        assert per_row.count - rows_before == len(rows) == 32
        core_spans = [span for span in trace.spans if span.depth == 1]
        names = [span.name for span in core_spans]
        assert sorted(names) == sorted(set(names))  # one span per stage and flush
        assert "bound_filter" in names and set(names) <= {"bound_filter", "verify", "score_dense"}
        assert ("batch_score",) not in dict(stages.series())  # the matrix path's label
        # The folded spans tile the start of the engine's own score span.
        (score,) = (span for span in trace.spans if span.name == "score")
        cursor = core_spans[0].offset
        assert cursor >= score.offset
        for span in core_spans:
            assert span.offset == pytest.approx(cursor, abs=1e-9)
            cursor += span.seconds
        assert cursor <= score.offset + score.seconds + 1e-9

    @pytest.mark.parametrize("backend", available_backends())
    def test_both_verification_plans_answer_like_the_reference(
        self, selective, monkeypatch, backend
    ):
        search, queries = selective
        for plan, budget in (("sparse", lambda postings, rows: rows), ("dense", lambda *_: 0)):
            monkeypatch.setattr(columnar, "sparse_row_budget", budget)
            engine = BatchQueryEngine.from_search(search, cache_size=None, kernel_backend=backend)
            for query, answer in zip(queries, engine.query_batch(queries)):
                reference = search.query_reference(query)
                assert answer.accepted_ids == reference.answer.accepted_ids
                assert answer.scores == {
                    graph_id: reference.posteriors[graph_id] for graph_id in answer.accepted_ids
                }
            counters = engine.prune_counters
            assert counters["sparse_passes" if plan == "dense" else "dense_passes"] == 0
            assert counters["dense_passes" if plan == "dense" else "sparse_passes"] > 0


class TestTopKServing:
    def test_topk_answer_shape_and_determinism(self, fitted, engine):
        query = SimilarityQuery(_random_queries(1, seed=51)[0].query_graph, 3, 0.5)
        answer = engine.query_topk(query, 5)
        assert len(answer.ranking) == 5
        assert answer.accepted_ids == frozenset(gid for gid, _ in answer.ranking)
        assert answer.scores == dict(answer.ranking)
        scores = [score for _gid, score in answer.ranking]
        assert scores == sorted(scores, reverse=True)
        assert answer.ranking == engine.query_topk(query, 5).ranking

    def test_topk_k_exceeding_database_returns_everything(self, fitted, engine):
        query = SimilarityQuery(_random_queries(1, seed=53)[0].query_graph, 2, 0.5)
        answer = engine.query_topk(query, 10_000)
        assert len(answer.ranking) == len(engine.database)

    def test_topk_requires_k(self, engine):
        query = SimilarityQuery(_random_queries(1, seed=55)[0].query_graph, 2, 0.5)
        with pytest.raises(ServingError):
            engine.query_topk(query)
        with pytest.raises(ServingError):
            engine.query_topk(query, 0)

    def test_topk_answers_are_cached_separately(self, fitted):
        engine = BatchQueryEngine.from_search(fitted)
        query = SimilarityQuery(_random_queries(1, seed=57)[0].query_graph, 2, 0.5)
        thresholded = engine.query(query)
        topk = engine.query_topk(query, 3)
        assert engine.cache.misses >= 2  # distinct entries, no cross-talk
        again = engine.query_topk(query, 3)
        assert again.ranking == topk.ranking
        assert engine.cache.hits >= 1
        assert thresholded.ranking is None
