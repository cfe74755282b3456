"""Tests for serving-engine snapshots (repro.serving.snapshot)."""

from __future__ import annotations

import hashlib
import pickle
import random

import numpy as np
import pytest

from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.query import SimilarityQuery
from repro.exceptions import SnapshotCorruptError, SnapshotError
from repro.graphs.generators import random_labeled_graph
from repro.serving import BatchQueryEngine, load_engine, save_engine
from repro.serving.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    _FOOTER_MAGIC,
    _FOOTER_STRUCT,
)
from repro.testing.oracles import query_reference, query_topk_reference


@pytest.fixture(scope="module")
def fitted_search():
    rng = random.Random(23)
    graphs = [
        random_labeled_graph(rng.randint(5, 8), rng.randint(5, 10), seed=rng)
        for _ in range(30)
    ]
    database = GraphDatabase(graphs, name="snapshot-db")
    return GBDASearch(database, max_tau=4, num_prior_pairs=120, seed=9).fit()


@pytest.fixture(scope="module")
def fitted_engine(fitted_search):
    engine = BatchQueryEngine.from_search(fitted_search)
    engine.warm([1, 2, 3])
    return engine


def _queries(seed, num=10):
    rng = random.Random(seed)
    return [
        SimilarityQuery(
            random_labeled_graph(rng.randint(4, 9), rng.randint(4, 12), seed=rng),
            rng.randint(1, 4),
            rng.choice([0.3, 0.6, 0.9]),
        )
        for _ in range(num)
    ]


class TestRoundTrip:
    def test_identical_posteriors_without_fit(self, fitted_engine, tmp_path):
        """save → load reproduces bit-identical posteriors, never calling fit()."""
        path = tmp_path / "engine.snapshot"
        save_engine(fitted_engine, path)
        loaded = load_engine(path)

        for query in _queries(seed=31):
            original = fitted_engine.query(query)
            restored = loaded.query(query)
            assert restored.accepted_ids == original.accepted_ids
            assert restored.scores == original.scores  # exact floats

    def test_database_and_config_survive(self, fitted_engine, tmp_path):
        path = tmp_path / "engine.snapshot"
        fitted_engine.save(path)
        loaded = BatchQueryEngine.load(path)
        assert len(loaded.database) == len(fitted_engine.database)
        assert loaded.database.name == fitted_engine.database.name
        assert loaded.max_tau == fitted_engine.max_tau
        assert loaded.cache_size == fitted_engine.cache_size
        # The store is rebuilt from the graphs: the same rows, laid out the same.
        (csr, *vectors), (original_csr, *original_vectors) = (
            loaded.database.store.view(),
            fitted_engine.database.store.view(),
        )
        for mine, theirs in zip((*csr[:3], *vectors), (*original_csr[:3], *original_vectors)):
            assert np.array_equal(mine, theirs)

    def test_graphs_survive_exactly(self, fitted_engine, tmp_path):
        path = tmp_path / "engine.snapshot"
        save_engine(fitted_engine, path)
        loaded = load_engine(path)
        for original, restored in zip(fitted_engine.database, loaded.database):
            assert restored.graph == original.graph
            assert list(restored.graph.edges()) == list(original.graph.edges())

    def test_tables_are_rebuilt_not_stored(self, fitted_engine, tmp_path):
        path = tmp_path / "engine.snapshot"
        save_engine(fitted_engine, path)
        assert fitted_engine.num_cached_tables > 0
        assert "posterior_tables" not in pickle.loads(path.read_bytes())
        loaded = load_engine(path)
        assert loaded.num_cached_tables == 0
        for tau_hat in range(5):
            for order in range(1, 13):
                rebuilt = loaded.posterior_vector(tau_hat, order)
                assert rebuilt.tolist() == fitted_engine.posterior_vector(tau_hat, order).tolist()

    def test_loaded_priors_match(self, fitted_engine, tmp_path):
        path = tmp_path / "engine.snapshot"
        save_engine(fitted_engine, path)
        loaded = load_engine(path)
        original = fitted_engine.estimator
        restored = loaded.estimator
        for phi in range(10):
            assert restored.gbd_prior.probability(phi) == original.gbd_prior.probability(phi)
        for tau in range(5):
            assert restored.ged_prior.probability(tau, 7) == original.ged_prior.probability(tau, 7)


class TestVersioning:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_engine(tmp_path / "nope.snapshot")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "garbage.snapshot"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(SnapshotError):
            load_engine(path)

    def test_foreign_pickle_is_rejected(self, tmp_path):
        path = tmp_path / "foreign.snapshot"
        path.write_bytes(pickle.dumps({"hello": "world"}))
        with pytest.raises(SnapshotError):
            load_engine(path)

    def test_future_version_is_rejected(self, fitted_engine, tmp_path):
        path = tmp_path / "engine.snapshot"
        save_engine(fitted_engine, path)
        payload = pickle.loads(path.read_bytes())
        assert payload["format"] == SNAPSHOT_FORMAT
        payload["version"] = SNAPSHOT_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(SnapshotError):
            load_engine(path)

    def test_version_1_snapshot_still_loads(self, fitted_engine, tmp_path):
        """Format version 2 only adds fields; v1 files (no model_version,

        no prior seed state) must keep loading with the documented defaults.
        """
        path = tmp_path / "engine.snapshot"
        save_engine(fitted_engine, path)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = 1
        payload.pop("model_version")
        for key in ("seed", "seed_rng_state", "backend"):
            payload["gbd_prior"].pop(key, None)
        for key in ("seed", "rng_state", "backend"):
            payload["gbd_prior"]["mixture"].pop(key, None)
        path.write_bytes(pickle.dumps(payload))
        engine = load_engine(path)
        assert engine.model_version == 0
        assert len(engine.database) == len(fitted_engine.database)


def _with_footer(payload) -> bytes:
    blob = pickle.dumps(payload)
    return blob + _FOOTER_STRUCT.pack(hashlib.sha256(blob).digest(), len(blob), _FOOTER_MAGIC)


class TestStoredTables:
    def test_v4_posterior_tables_are_ignored(self, fitted_search, fitted_engine, tmp_path):
        """A v4 file's tables never answer a query: doctored to 1.0 everywhere,
        the loaded engine still answers exactly as the reference loop does."""
        path = tmp_path / "engine.snapshot"
        save_engine(fitted_engine, path)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = 4
        payload["posterior_tables"] = [
            (tau_hat, order, [1.0] * (order + 1)) for tau_hat in range(5) for order in range(1, 13)
        ]
        path.write_bytes(_with_footer(payload))
        loaded = load_engine(path)
        for query in _queries(seed=37):
            reference = query_reference(fitted_search, query)
            answer = loaded.query(query)
            assert answer.accepted_ids == reference.answer.accepted_ids
            assert answer.scores == {
                gid: reference.posteriors[gid] for gid in reference.answer.accepted_ids
            }
            expected = query_topk_reference(fitted_search, query, 5)
            assert loaded.query_topk(query, 5).ranking == expected


class TestPriorStates:
    def test_v6_prior_states_with_a_backend_key_load(self, fitted_engine, tmp_path):
        """Builds with a choice of EM loop wrote ``"backend"`` into both prior
        states; such a v6 file loads and answers as the engine that wrote it."""
        path = tmp_path / "engine.snapshot"
        save_engine(fitted_engine, path)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = 6
        assert "backend" not in payload["gbd_prior"]
        assert "backend" not in payload["gbd_prior"]["mixture"]
        payload["gbd_prior"]["backend"] = "python"
        payload["gbd_prior"]["mixture"]["backend"] = "python"
        path.write_bytes(_with_footer(payload))
        loaded = load_engine(path)
        assert loaded.estimator.gbd_prior.to_state() == fitted_engine.estimator.gbd_prior.to_state()
        for query in _queries(seed=41):
            original = fitted_engine.query(query)
            restored = loaded.query(query)
            assert restored.accepted_ids == original.accepted_ids
            assert restored.scores == original.scores
            assert loaded.query_topk(query, 5).ranking == fitted_engine.query_topk(query, 5).ranking


def _answers(engine, queries):
    """Every answer ``engine`` gives ``queries``: thresholded, batched and top-5."""
    return [
        (answer.accepted_ids, answer.scores, answer.ranking)
        for query in queries
        for answer in (
            engine.query(query), engine.query_batch([query])[0], engine.query_topk(query, 5)
        )
    ]


class TestPlanFields:
    """v7 drops the engine's ``keep_scores`` and ``use_index_pruning``."""

    def _v6(self, fitted_engine, tmp_path, **engine_fields):
        """A v6 file of ``fitted_engine``, with the plan fields a v6 build wrote."""
        path = tmp_path / "engine.v6.snapshot"
        save_engine(fitted_engine, path)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = 6
        payload["engine"].update(engine_fields)
        path.write_bytes(_with_footer(payload))
        return path

    def test_v6_keep_scores_is_ignored(self, fitted_search, fitted_engine, tmp_path):
        """A v6 ``keep_scores="all"`` file answers as a default engine over its priors."""
        path = self._v6(fitted_engine, tmp_path, keep_scores="all", use_index_pruning=False)
        loaded = load_engine(path)
        default = BatchQueryEngine(
            fitted_search.database, fitted_search.estimator, max_tau=fitted_search.max_tau
        )
        queries = _queries(seed=43)
        assert _answers(loaded, queries) == _answers(default, queries)
        for query in queries:  # accepted graphs only: the other posteriors are the search's
            assert set(loaded.query(query).scores) == loaded.query(query).accepted_ids

    def test_v6_index_pruning_is_refused(self, fitted_engine, tmp_path):
        path = self._v6(fitted_engine, tmp_path, keep_scores="all", use_index_pruning=True)
        with pytest.raises(SnapshotError, match="use_index_pruning"):
            load_engine(path)

    def test_v7_round_trips_bit_identically(self, fitted_engine, tmp_path):
        path = tmp_path / "engine.snapshot"
        save_engine(fitted_engine, path)
        payload = pickle.loads(path.read_bytes())
        assert payload["version"] == SNAPSHOT_VERSION == 7
        assert not {"keep_scores", "use_index_pruning"} & set(payload["engine"])
        loaded = load_engine(path)
        queries = _queries(seed=47)
        assert _answers(loaded, queries) == _answers(fitted_engine, queries)
        resaved = tmp_path / "engine.again.snapshot"
        save_engine(loaded, resaved)
        assert pickle.loads(resaved.read_bytes()) == payload


class TestStoredBranches:
    def test_a_snapshot_stores_no_branches(self, fitted_engine, tmp_path):
        path = tmp_path / "engine.snapshot"
        save_engine(fitted_engine, path)
        payload = pickle.loads(path.read_bytes())
        assert payload["version"] == SNAPSHOT_VERSION == 7
        assert all("branches" not in record for record in payload["database"]["graphs"])

    def test_legacy_branch_records_that_disagree_with_their_graphs_are_ignored(
        self, fitted_search, fitted_engine, tmp_path
    ):
        """A footer-less v5 file whose branch records lie (yet sum to |V|) is served by its graphs.

        Trusted, the records would leave graph 0 without a branch in common
        with an exact copy of itself, and the copy would miss it.
        """
        path = tmp_path / "engine.snapshot"
        save_engine(fitted_engine, path)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = 5
        for record in payload["database"]["graphs"]:
            record["branches"] = [(("bogus", ()), len(record["vertices"]))]
        path.write_bytes(pickle.dumps(payload))  # no footer: as an older build wrote it
        loaded = load_engine(path)
        query = SimilarityQuery(fitted_search.database[0].graph.copy(), 0, 0.5)
        expected = query_reference(fitted_search, query).answer
        assert 0 in expected.accepted_ids
        assert loaded.query(query).accepted_ids == expected.accepted_ids
        assert loaded.query_topk(query, 3).ranking == query_topk_reference(fitted_search, query, 3)


class TestIntegrity:
    """Crash-safe writes and the sha256 integrity footer."""

    def test_snapshot_carries_the_footer(self, fitted_engine, tmp_path):
        path = tmp_path / "engine.snapshot"
        save_engine(fitted_engine, path)
        blob = path.read_bytes()
        assert blob.endswith(_FOOTER_MAGIC)
        digest, length, magic = _FOOTER_STRUCT.unpack(blob[-_FOOTER_STRUCT.size:])
        assert magic == _FOOTER_MAGIC
        assert length == len(blob) - _FOOTER_STRUCT.size

    def test_truncated_file_is_rejected(self, fitted_engine, tmp_path):
        path = tmp_path / "engine.snapshot"
        save_engine(fitted_engine, path)
        blob = path.read_bytes()
        # Cut bytes out of the payload but keep the footer intact — the
        # recorded length no longer matches.
        torn = blob[: len(blob) // 2] + blob[-_FOOTER_STRUCT.size:]
        path.write_bytes(torn)
        with pytest.raises(SnapshotCorruptError, match="truncated"):
            load_engine(path)

    def test_bit_flip_is_rejected(self, fitted_engine, tmp_path):
        path = tmp_path / "engine.snapshot"
        save_engine(fitted_engine, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 3] ^= 0x01  # a single flipped bit in the payload
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotCorruptError, match="integrity"):
            load_engine(path)

    def test_corrupt_error_subclasses_snapshot_error(self, fitted_engine, tmp_path):
        # Pre-existing callers catch SnapshotError; corruption must not
        # escape that net.
        path = tmp_path / "engine.snapshot"
        save_engine(fitted_engine, path)
        blob = bytearray(path.read_bytes())
        blob[10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError):
            load_engine(path)

    def test_footer_less_legacy_snapshot_still_loads(self, fitted_engine, tmp_path):
        path = tmp_path / "engine.snapshot"
        save_engine(fitted_engine, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: -_FOOTER_STRUCT.size])  # strip → pre-footer file
        engine = load_engine(path)
        assert len(engine.database) == len(fitted_engine.database)

    def test_all_versions_round_trip_through_the_footer(self, fitted_engine, tmp_path):
        """Rewriting any v1–v7 payload with the footer appended loads fine —
        the footer sits after the pickle stream and never touches it."""
        path = tmp_path / "engine.snapshot"
        save_engine(fitted_engine, path)
        base = pickle.loads(path.read_bytes())  # pickle ignores the footer
        for version in range(1, SNAPSHOT_VERSION + 1):
            payload = dict(base)
            payload["version"] = version
            versioned = tmp_path / f"engine.v{version}.snapshot"
            versioned.write_bytes(_with_footer(payload))
            engine = load_engine(versioned)
            assert len(engine.database) == len(fitted_engine.database)

    def test_atomic_write_leaves_no_temp_file(self, fitted_engine, tmp_path):
        save_engine(fitted_engine, tmp_path / "engine.snapshot")
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "engine.snapshot"]
        assert leftovers == []

    def test_failed_save_preserves_the_previous_snapshot(self, fitted_engine, tmp_path):
        path = tmp_path / "engine.snapshot"
        save_engine(fitted_engine, path)
        good = path.read_bytes()

        class NotAnInt:
            def __int__(self):
                raise RuntimeError("cannot serialize")

        engine = load_engine(path)
        engine.model_version = NotAnInt()  # poisons payload assembly
        with pytest.raises(RuntimeError):
            save_engine(engine, path)
        assert path.read_bytes() == good, "a failed save must never touch the old file"
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "engine.snapshot"]
        assert leftovers == []
