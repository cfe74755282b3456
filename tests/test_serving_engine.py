"""Tests for the batched serving engine (repro.serving.engine)."""

from __future__ import annotations

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.plan import ExecutionCore
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
from repro.testing.oracles import query_reference, query_topk_reference


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
    return BatchQueryEngine.from_search(fitted)


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
            # the accepted graphs' posterior scores are bit-identical too
            assert served.scores == {gid: loop.posteriors[gid] for gid in served.accepted_ids}

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

    def test_posterior_row_matches_posterior(self, fitted):
        estimator = fitted.estimator
        for order in (5, 7):
            row = estimator.posterior_row(2, order)
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

    def test_the_plan_options_are_gone(self, fitted):
        for option in ({"keep_scores": "all"}, {"use_index_pruning": False}):
            with pytest.raises(TypeError):
                BatchQueryEngine(fitted.database, fitted.estimator, max_tau=4, **option)
            with pytest.raises(TypeError):
                BatchQueryEngine.from_search(fitted, **option)

    def test_scores_cover_the_accepted_graphs(self, fitted):
        engine = BatchQueryEngine.from_search(fitted, cache_size=None)
        answer = engine.query(_random_queries(1, seed=2)[0])
        assert set(answer.scores) == set(answer.accepted_ids)


class TestIndexPruningParity:
    def test_pruning_search_is_not_served(self):
        """The branch bound is the search's ablation filter: from_search refuses it.

        Its answers are not the engine's: γ = 0 accepts every graph the
        engine scores, and the pruning search drops those with GBD > 2 τ̂.
        """
        rng = random.Random(29)
        graphs = [
            random_labeled_graph(rng.randint(4, 8), rng.randint(3, 10), seed=rng)
            for _ in range(30)
        ]
        database = GraphDatabase(graphs)
        pruning = GBDASearch(
            database, max_tau=3, num_prior_pairs=80, seed=4, use_index_pruning=True
        ).fit()
        with pytest.raises(ServingError, match="use_index_pruning"):
            BatchQueryEngine.from_search(pruning)
        pruning.use_index_pruning = False
        engine = BatchQueryEngine.from_search(pruning, cache_size=None)
        pruning.use_index_pruning = True
        query = SimilarityQuery(graphs[0], 1, 0.0)
        assert 0 in pruning.query(query).accepted_ids
        assert pruning.query(query).accepted_ids < engine.query(query).accepted_ids


def _kernel_calls() -> float:
    """Columnar kernel invocations so far, all kernels and backends."""
    family = get_registry().get("repro_kernel_calls_total")
    return sum(child.value for _labels, child in family.series()) if family else 0.0


def _on_threads(engine, queries, num_threads):
    """``engine.query`` over ``queries`` from a pool of the caller's own threads."""
    with ThreadPoolExecutor(max_workers=num_threads) as pool:
        return list(pool.map(engine.query, queries))


class TestThreadedCallers:
    """Callers' threads share one engine: its cache, its core and the registry."""

    def test_thread_answers_equal_serial_answers(self, fitted):
        engine = BatchQueryEngine.from_search(fitted)
        queries = _random_queries(12, seed=43)
        serial = [engine.query(query) for query in queries]
        engine.cache.clear()
        for threaded, alone in zip(_on_threads(engine, queries, 4), serial):
            assert threaded.accepted_ids == alone.accepted_ids
            assert threaded.scores == alone.scores

    def test_thread_answers_equal_serial_answers_on_topk(self, fitted):
        # A fresh, cacheless engine: the top-k bound table of each τ̂ is
        # first filled, then read, by several threads at once.
        engine = BatchQueryEngine.from_search(fitted, cache_size=None)
        ranked = [
            SimilarityQuery(q.query_graph, q.tau_hat, q.gamma, top_k=1 + index % 5)
            for index, q in enumerate(_random_queries(12, seed=43) * 4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches inside the table fill
        try:
            answers = _on_threads(engine, ranked, 4)
        finally:
            sys.setswitchinterval(interval)
        assert [a.ranking for a in answers] == [
            query_topk_reference(fitted, q, q.top_k) for q in ranked
        ]

    @pytest.mark.parametrize("num_threads", [1, 2, 5])
    def test_prune_counters_add_up(self, fitted, random_database, num_threads):
        engine = BatchQueryEngine.from_search(fitted, cache_size=None)
        queries = _random_queries(6, seed=71)

        def delta(run):
            before = engine.prune_counters
            run()
            after = engine.prune_counters
            return {name: after[name] - before[name] for name in before if name != "prune_rate"}

        serial = delta(lambda: [engine.query(query) for query in queries])
        threaded = delta(lambda: _on_threads(engine, queries, num_threads))
        assert threaded == serial
        assert threaded["candidates_generated"] == 6 * len(random_database)
        assert threaded["candidates_generated"] == (
            threaded["candidates_pruned"] + threaded["candidates_verified"]
        )

    @pytest.mark.parametrize("num_threads", [1, 2, 5])
    def test_kernel_calls_land_in_the_registry(self, fitted, num_threads):
        engine = BatchQueryEngine.from_search(fitted, cache_size=None)
        queries = _random_queries(6, seed=71)

        def delta(run):
            before = _kernel_calls()
            run()
            return _kernel_calls() - before

        serial = delta(lambda: [engine.query(query) for query in queries])
        threaded = delta(lambda: _on_threads(engine, queries, num_threads))
        assert threaded == serial
        assert threaded >= 6  # at least one store call per query

    @pytest.mark.parametrize("num_threads", [1, 2, 5])
    def test_cache_hits_and_misses_add_up(self, fitted, num_threads):
        engine = BatchQueryEngine.from_search(fitted, cache_size=64)
        stream = _random_queries(1, seed=72) * 6
        _on_threads(engine, stream, num_threads)
        assert engine.cache.hits + engine.cache.misses == 6
        # Threads may race to the first miss; each thread misses at most once.
        misses = engine.cache.misses
        assert 1 <= misses <= num_threads
        _on_threads(engine, stream, num_threads)
        assert engine.cache.hits == 12 - misses  # the second pass only hits
        assert engine.cache.misses == misses


    def test_an_empty_batch_answers_nothing_and_counts_nothing(self, fitted):
        engine = BatchQueryEngine.from_search(fitted, cache_size=64)
        prune, calls = engine.prune_counters, _kernel_calls()
        assert engine.query_batch([]) == []
        assert engine.prune_counters == prune
        assert _kernel_calls() == calls
        assert (engine.cache.hits, engine.cache.misses) == (0, 0)


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
        engine = BatchQueryEngine.from_search(fitted)
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


    def test_after_a_write_stream_the_core_holds_nothing_d_long(self):
        """The execution core keeps posterior tables, sized by orders, and no per-snapshot row."""
        rng = random.Random(23)
        graphs = [
            random_labeled_graph(rng.randint(5, 8), rng.randint(5, 10), seed=rng)
            for _ in range(25)
        ]
        database = GraphDatabase(graphs, name="serving-write-stream")
        search = GBDASearch(database, max_tau=3, num_prior_pairs=100, seed=1).fit()
        engine = BatchQueryEngine.from_search(search, cache_size=None)
        core = search._core  # the dense rows are the search's (ExecutionCore.execute)
        queries = _random_queries(6, seed=29, max_tau=3)
        for round_ in range(5):
            for query in queries:
                assert engine.query(query).accepted_ids == search.query(query).answer.accepted_ids
            engine.query_batch(queries)
            database.add_many([graphs[round_].copy(name=f"late-{round_}")])
        for held in (core, engine._core):
            assert set(vars(held)) == {
                "database", "estimator", "max_tau", "error_class", "_tables", "_table_lock",
                "filter_counters", "_counter_lock",
            }
            orders = {entry.num_vertices for entry in database} | {
                q.query_graph.num_vertices for q in queries
            }
            for tau_hat, (table, covered) in held._tables.items():
                filled = np.flatnonzero(table.offsets >= 0)
                assert set(filled.tolist()) <= orders and covered <= len(orders)
                assert len(table.offsets) == filled.max() + 1
                assert len(table.phi) == len(table.best) == int((filled + 1).sum())


class TestRevisionScopedCache:
    def test_cached_answers_do_not_outlive_an_add(self):
        """Regression: cache keys are scoped to the database revision.

        Nothing clears the cache when graphs are added: with the revision in
        the key, the pre-``add_many`` entries simply stop matching.
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

    @pytest.mark.parametrize("topk", [False, True])
    def test_a_read_overlapping_add_many_caches_no_stale_answer(self, topk, monkeypatch):
        """A reader of the pre-write rows must not cache its answer under the new revision.

        The reader starts while ``add_many`` hands its batch to the store —
        from a wrapper around ``store.extend``, so before the store takes the
        new rows or the revision moves — reads its snapshot, and puts its
        answer only once ``add_many`` has returned.  The write adds an exact
        copy of the query (GBD 0): the next identical query must find it.
        """
        rng = random.Random(37)
        graphs = [
            random_labeled_graph(rng.randint(4, 9), rng.randint(3, 12), seed=rng)
            for _ in range(40)
        ]
        database = GraphDatabase(graphs, name="serving-race")
        viewed, written = threading.Event(), threading.Event()
        search = GBDASearch(database, max_tau=3, num_prior_pairs=80, seed=4).fit()
        engine = BatchQueryEngine.from_search(search, cache_size=16)
        query = SimilarityQuery(random_labeled_graph(7, 9, seed=rng), 2, 0.3)
        k = len(graphs) + 1  # every graph is ranked, the copy included

        def ask():
            return engine.query_topk(query, k) if topk else engine.query(query)

        store, cache = engine._core.store, engine.cache
        view, put, extend = store.view, cache.put, store.extend

        def start_reader_then_extend(multisets, **kwargs):
            reader.start()
            assert viewed.wait(30), "the reader never read its snapshot"
            extend(multisets, **kwargs)

        def view_then_signal():
            snapshot = view()
            if threading.current_thread() is reader:
                viewed.set()
            return snapshot

        def put_once_written(key, answer):
            if threading.current_thread() is reader:
                assert written.wait(30), "add_many never returned"
            put(key, answer)

        monkeypatch.setattr(store, "extend", start_reader_then_extend)
        monkeypatch.setattr(store, "view", view_then_signal)
        monkeypatch.setattr(cache, "put", put_once_written)
        answers = []
        reader = threading.Thread(target=lambda: answers.append(ask()))
        (copy_id,) = database.add_many([query.query_graph.copy(name="copy")])
        monkeypatch.setattr(store, "extend", extend)
        written.set()
        reader.join(timeout=30)
        assert not reader.is_alive() and len(answers) == 1
        assert copy_id not in answers[0].accepted_ids  # it read the pre-write rows
        assert copy_id in ask().accepted_ids


class TestPrunedExecutionEngine:
    def test_prune_counters_accumulate_and_answers_match(self, fitted):
        pruned = BatchQueryEngine.from_search(fitted, cache_size=None)
        unpruned = ExecutionCore(fitted.database, fitted.estimator, max_tau=fitted.max_tau)
        for query in _random_queries(10, seed=41):
            assert pruned.query(query).accepted_ids == unpruned.execute(query).accepted_id_set()
        counters = pruned.prune_counters
        assert counters["candidates_generated"] == (
            counters["candidates_pruned"] + counters["candidates_verified"]
        )
        assert 0.0 <= counters["prune_rate"] <= 1.0
        assert unpruned.filter_counters.candidates_pruned == 0

    def test_execute_verifies_every_row(self, fitted):
        core = ExecutionCore(fitted.database, fitted.estimator, max_tau=fitted.max_tau)
        queries = _random_queries(4, seed=43)
        for query in queries * 2:
            core.execute(query)
        # every candidate's posterior is needed: every row verified, one dense pass a query
        counters = core.filter_counters.as_dict()
        assert counters["candidates_pruned"] == counters["sparse_passes"] == 0
        assert counters["candidates_verified"] == 8 * len(fitted.database)
        assert counters["dense_passes"] == 8

    def test_older_snapshots_with_the_pruned_execution_key_still_load(self, fitted, tmp_path):
        """The key once chose the plan; answers never depended on it, so it is ignored."""
        import pickle

        engine = BatchQueryEngine.from_search(fitted, cache_size=None)
        path = tmp_path / "engine.snapshot"
        engine.save(path)
        payload = pickle.loads(path.read_bytes())
        assert "pruned_execution" not in payload["engine"]
        for flag in (False, True):
            payload["engine"]["pruned_execution"] = flag
            path.write_bytes(pickle.dumps(payload))
            loaded = BatchQueryEngine.load(path)
            for query in _random_queries(4, seed=47):
                assert loaded.query(query).accepted_ids == engine.query(query).accepted_ids


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
        assert core.execute_batch([]) == []
        assert core.execute_batch([], query_branches=[]) == []

    def test_an_empty_store_answers_every_row_empty(self, fitted):
        """No row to verify: empty hits and an empty ranking, not a refused table."""
        core = ExecutionCore(GraphDatabase(), fitted.estimator, max_tau=fitted.max_tau)
        query = _random_queries(1, seed=72)[0]
        ranked = SimilarityQuery(query.query_graph, query.tau_hat, query.gamma, top_k=3)
        assert core.execute_batch([query, ranked]) == [([], []), []]
        assert core.execute_pruned(query) == ([], []) and core.execute_topk(query, 3) == []

    def test_branch_multisets_that_do_not_match_the_queries_are_refused(self, fitted):
        """One multiset for three queries is an error, not one answer."""
        core = BatchQueryEngine.from_search(fitted, cache_size=None)._core
        queries = _random_queries(3, seed=71)
        before = core.filter_counters.as_dict()
        for branches in ([queries[0].branches()], [query.branches() for query in queries * 2]):
            with pytest.raises(ServingError, match=f"3 queries but {len(branches)} branch"):
                core.execute_batch(queries, query_branches=branches)
        assert core.filter_counters.as_dict() == before  # refused before any row was scored
        assert len(core.execute_batch(queries, query_branches=[q.branches() for q in queries])) == 3

    def test_batch_counts_what_each_query_verified(self, selective):
        """``prune_counters`` mean one thing: batch == loop, numpy == native."""
        search, queries = selective
        readings = {}
        for backend in available_backends():
            database = GraphDatabase(search.database.graphs(), kernel_backend=backend)
            batch_engine, loop_engine = (
                BatchQueryEngine(database, search.estimator, max_tau=1, cache_size=None)
                for _ in range(2)
            )
            batched = batch_engine.query_batch(queries)
            looped = [loop_engine.query(query) for query in queries]
            for query, one, other in zip(queries, batched, looped):
                assert one.accepted_ids == other.accepted_ids
                assert one.accepted_ids == query_reference(search, query).answer.accepted_ids
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
        database = GraphDatabase(search.database.graphs(), kernel_backend=backend)
        for plan, budget in (("sparse", lambda postings, rows: rows), ("dense", lambda *_: 0)):
            monkeypatch.setattr(columnar, "sparse_row_budget", budget)
            engine = BatchQueryEngine(database, search.estimator, max_tau=1, cache_size=None)
            for query, answer in zip(queries, engine.query_batch(queries)):
                reference = query_reference(search, query)
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
        # SimilarityQuery(top_k=...)'s rule: refused, never truncated or parsed.
        for bad in (0, -1, float("inf"), float("nan"), 2.7, "3"):
            with pytest.raises(ServingError):
                engine.query_topk(query, bad)
        assert len(engine.query_topk(query, 2.0).ranking) == 2

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


class TestBatchedTopK:
    """Top-k rows ride the flush: one core call, each path counted once, unshared rankings."""

    @staticmethod
    def counts(family: str):
        series = get_registry().get(family).series()
        return {labels: child.value for labels, child in series}

    def deltas(self, family: str, action):
        before = self.counts(family)
        result = action()
        after = self.counts(family)
        moved = {
            labels: after[labels] - before.get(labels, 0.0)
            for labels in after
            if after[labels] != before.get(labels, 0.0)
        }
        return result, moved

    def test_a_flush_scores_its_top_k_rows_with_the_rest(self, fitted, monkeypatch):
        engine = BatchQueryEngine.from_search(fitted)
        plain = _random_queries(3, seed=91)
        ranked = [
            SimilarityQuery(query.query_graph, query.tau_hat, query.gamma, top_k=2 + 3 * index)
            for index, query in enumerate(_random_queries(3, seed=92))
        ]
        # Differs from ranked[0] in γ alone: the same ranking, the same cache key.
        twin = SimilarityQuery(
            ranked[0].query_graph, ranked[0].tau_hat, 1.0 - ranked[0].gamma, top_k=ranked[0].top_k
        )
        engine.query_topk(ranked[2])  # cached before the flush
        scored = []
        execute_batch = engine._core.execute_batch

        def spy(queries, **kwargs):
            scored.append([query.top_k for query in queries])
            return execute_batch(queries, **kwargs)

        monkeypatch.setattr(engine._core, "execute_batch", spy)
        batch = [ranked[0], plain[0], ranked[1], twin, plain[1], ranked[2], ranked[0], plain[2]]
        (answers, kernels), paths = self.deltas(
            "repro_engine_queries_total",
            lambda: self.deltas("repro_kernel_calls_total", lambda: engine.query_batch(batch)),
        )
        # Each top-k row counts once as ``topk``, each other once as ``batch``,
        # whether it was scored, served from the cache or copied from a repeat.
        assert paths == {("batch",): 3.0, ("topk",): 5.0}
        # One core call for the flush: the three thresholded rows and ranked[0],
        # ranked[1] once each; the twin and the repeat are copies, ranked[2] a hit.
        assert scored == [[2, None, 5, None, None]]
        # A scored top-k row counts one ``row`` call, a thresholded one a
        # ``filter_verify_rows`` call: what either counts alone.
        backend = engine.active_kernel_backend
        assert kernels == {("row", backend): 2.0, ("filter_verify_rows", backend): 3.0}
        for query, answer in zip(batch, answers):
            if query.top_k is None:
                assert answer.ranking is None
                assert answer.accepted_ids == fitted.query(query).answer.accepted_ids
            else:
                expected = query_topk_reference(fitted, query, query.top_k)
                assert answer.ranking == expected and answer.scores == dict(expected)

        # Every ranking handed out is its own list: the scored row's, the
        # cached row's, the γ twin's and the repeat's.
        rankings = [answer.ranking for answer in answers if answer.ranking is not None]
        assert len({id(ranking) for ranking in rankings}) == len(rankings) == 5
        expected = [list(ranking) for ranking in rankings]
        for answer in answers:
            if answer.ranking is not None:
                answer.ranking.append((-1, 2.0))  # vandalise every answer in place
                answer.scores.clear()
        assert engine.query_topk(ranked[0]).ranking == expected[0]
        assert engine.query_topk(twin).ranking == expected[0]
        assert engine.query_topk(ranked[2]).ranking == expected[3]

    def test_a_cacheless_flush_scores_every_top_k_row(self, fitted, monkeypatch):
        engine = BatchQueryEngine.from_search(fitted, cache_size=None)
        query = _random_queries(1, seed=93)[0]
        ranked = SimilarityQuery(query.query_graph, query.tau_hat, query.gamma, top_k=4)
        scored = []
        execute_batch = engine._core.execute_batch

        def spy(queries, **kwargs):
            scored.append(len(queries))
            return execute_batch(queries, **kwargs)

        monkeypatch.setattr(engine._core, "execute_batch", spy)
        first, again = engine.query_batch([ranked, ranked])
        assert scored == [2]  # no cache key, nothing to deduplicate by
        assert first.ranking == again.ranking == query_topk_reference(fitted, ranked, 4)
        assert first.ranking is not again.ranking
