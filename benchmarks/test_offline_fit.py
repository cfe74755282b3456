"""Offline-stage speed: the vectorized EM fit vs the scalar EM oracle.

Table IV of the paper prices the offline stage by its pair-GBD sampling and
GMM fit.  This benchmark draws 10 000 pair GBDs from a synthetic database
(the paper's ``N = 10k`` regime, scaled to CI budgets), fits the GBD prior
with the library's vectorized EM and with the scalar loop of
:func:`repro.testing.oracles.fit_gmm_oracle`, and asserts that

* the vectorized fit is at least 3x faster than the scalar loop,
* both produce the same mixture (within 1e-9), and
* a :class:`GBDASearch` whose prior either loop fitted returns identical
  (bit-stable, per fixed seed) query answers.

Setting ``REPRO_SMOKE=1`` (the CI smoke job) shrinks the sample count to
2 000 and relaxes the speedup floor, keeping the run under a few seconds.
The rendered table is written to ``results/offline_fit.txt``.
"""

from __future__ import annotations

import json
import os
import random
import time

from repro.core.gbd_prior import GBDPrior
from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.query import SimilarityQuery
from repro.graphs.generators import random_labeled_graph
from repro.stats.gmm import GaussianMixtureModel
from repro.stats.sampling import sample_pairs
from repro.testing.oracles import fit_gmm_oracle

SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
NUM_SAMPLES = 2_000 if SMOKE else 10_000
MIN_SPEEDUP = 1.5 if SMOKE else 3.0
DATABASE_SIZE = 150
NUM_QUERIES = 8


def _build_graphs(seed: int = 0):
    rng = random.Random(seed)
    return [
        random_labeled_graph(rng.randint(8, 12), rng.randint(9, 18), seed=rng)
        for _ in range(DATABASE_SIZE)
    ]


def _fit_seconds(samples, max_value: int) -> tuple:
    """Best-of-two wall-clock of the GMM fit (plus the prior)."""
    runs = []
    prior = None
    for _ in range(2):
        prior = GBDPrior(num_components=3, seed=7)
        start = time.perf_counter()
        prior.fit_from_samples(samples, max_value=max_value)
        runs.append(time.perf_counter() - start)
    return min(runs), prior


def test_vectorized_offline_fit_speedup(results_dir, monkeypatch):
    graphs = _build_graphs()

    # Steps 1.1-1.2 of the offline stage: N pair GBDs (with replacement so
    # the sample count is independent of |D|) read off the database's store.
    stored = GraphDatabase(graphs, name="offline-pairs")
    stored.store.compact()
    start = time.perf_counter()
    pairs = sample_pairs(range(len(graphs)), NUM_SAMPLES, seed=11, distinct=False)
    samples = stored.store.branch_distances(pairs)
    sampling_seconds = time.perf_counter() - start
    assert len(samples) == NUM_SAMPLES
    max_value = max(graph.num_vertices for graph in graphs)

    numpy_seconds, numpy_prior = _fit_seconds(samples, max_value)
    with monkeypatch.context() as scalar_em:
        scalar_em.setattr(GaussianMixtureModel, "fit", fit_gmm_oracle)
        scalar_seconds, scalar_prior = _fit_seconds(samples, max_value)
    speedup = scalar_seconds / numpy_seconds

    # Oracle parity: the same mixture within 1e-9 (same seeding, same
    # convergence semantics, array arithmetic only differs in round-off).
    scalar_components = scalar_prior.mixture.components
    numpy_components = numpy_prior.mixture.components
    assert len(scalar_components) == len(numpy_components)
    for a, b in zip(scalar_components, numpy_components):
        assert abs(a.weight - b.weight) < 1e-9
        assert abs(a.mean - b.mean) < 1e-9
        assert abs(a.std - b.std) < 1e-9

    # Bit-stable query answers for a fixed seed: the vectorized EM must
    # not move a single graph across the accept threshold.
    database = GraphDatabase(graphs[:60], name="offline-bench")
    queries = [
        SimilarityQuery(database[i].graph, 1 + (i % 3), 0.5)
        for i in range(NUM_QUERIES)
    ]
    numpy_search = GBDASearch(database, max_tau=3, num_prior_pairs=300, seed=4).fit()
    with monkeypatch.context() as scalar_em:
        scalar_em.setattr(GaussianMixtureModel, "fit", fit_gmm_oracle)
        scalar_search = GBDASearch(database, max_tau=3, num_prior_pairs=300, seed=4).fit()
    for query in queries:
        scalar_answer = scalar_search.query(query).answer
        numpy_answer = numpy_search.query(query).answer
        assert numpy_answer.accepted_ids == scalar_answer.accepted_ids

    mode = "smoke" if SMOKE else "full"
    lines = [
        f"Offline fit on N={NUM_SAMPLES} pair-GBD samples ({mode} mode, K=3)",
        "",
        f"{'stage':<38}{'seconds':>10}",
        f"{'pair-GBD sampling (stored multisets)':<38}{sampling_seconds:>10.3f}",
        f"{'GMM fit, scalar EM (oracle)':<38}{scalar_seconds:>10.3f}",
        f"{'GMM fit, vectorized EM (numpy)':<38}{numpy_seconds:>10.3f}",
        "",
        f"vectorized speedup over scalar: {speedup:.1f}x (required >= {MIN_SPEEDUP:.1f}x)",
        f"EM iterations: scalar={scalar_prior.mixture.n_iterations_} "
        f"numpy={numpy_prior.mixture.n_iterations_}",
        f"query answers: identical accepted sets, oracle vs vectorized "
        f"({NUM_QUERIES} queries, |D|={len(database)})",
    ]
    rendered = "\n".join(lines)
    (results_dir / "offline_fit.txt").write_text(rendered + "\n", encoding="utf-8")
    print()
    print(rendered)

    # Machine-readable record for the CI artifact upload / perf trajectory.
    payload = {
        "benchmark": "offline",
        "mode": mode,
        "num_samples": NUM_SAMPLES,
        "seconds": {
            "pair_gbd_sampling": sampling_seconds,
            "gmm_fit_scalar": scalar_seconds,
            "gmm_fit_numpy": numpy_seconds,
        },
        "samples_per_second": {
            "scalar": NUM_SAMPLES / scalar_seconds,
            "numpy": NUM_SAMPLES / numpy_seconds,
            "sampling": NUM_SAMPLES / sampling_seconds,
        },
        "vectorized_speedup": speedup,
        "em_iterations": {
            "scalar": scalar_prior.mixture.n_iterations_,
            "numpy": numpy_prior.mixture.n_iterations_,
        },
    }
    (results_dir / "BENCH_offline.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"vectorized fit is only {speedup:.2f}x the scalar path "
        f"(scalar {scalar_seconds:.3f}s, numpy {numpy_seconds:.3f}s)"
    )
