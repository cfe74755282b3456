"""Incremental offline fitting: keep the priors fresh as the database grows.

The paper's offline stage (Step 1 of Algorithm 1) is priced as a one-shot
cost, but the ROADMAP's serving story adds graphs to a live
:class:`~repro.db.database.GraphDatabase` — and a prior fitted before an
addition silently mis-describes the population after it.
:class:`OfflineFitter` closes that gap:

* :meth:`fit` runs the full offline stage once — the same
  :meth:`~repro.core.estimator.GBDAEstimator.fit` a
  :class:`~repro.core.search.GBDASearch` runs (pair GBDs read off the
  database's branch store, vectorised EM) — keeps the sampled GBD list and
  records the database revision it covers;
* :meth:`refit` takes the graphs added since that revision
  (``database[fitted_revision:]``), samples pairs that connect them to the rest of
  the database, appends their GBDs to the retained sample list, refits the
  GMM over the combined samples, extends the Jeffreys grid with any
  previously unseen extended orders (:meth:`GEDPrior.update` — existing
  columns are reused), and rebuilds the estimator.  A refit is therefore
  ``O(new pairs + new orders)``, not a from-scratch offline pass;
* every successful (re)fit bumps :attr:`version`, and :meth:`snapshot`
  writes a serving snapshot stamped with that version, so a server can tell
  which offline model produced the file it loaded.

Refits are deterministic: the pair sample for version ``v`` is drawn from
``random.Random(seed, v)``-style derived streams, so two fitters fed the
same database and additions produce identical priors.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.core.estimator import GBDAEstimator
from repro.core.gbd_prior import GBDPrior
from repro.core.ged_prior import GEDPrior
from repro.db.database import GraphDatabase
from repro.exceptions import SearchError
from repro.obs.metrics import get_registry

_FITS = get_registry().counter(
    "repro_offline_fits_total", "Offline (re)fits completed", ("kind",)
)
_FITS_FULL = _FITS.labels(kind="full")
_FITS_INCREMENTAL = _FITS.labels(kind="incremental")
_FIT_SECONDS = get_registry().gauge(
    "repro_offline_fit_seconds", "Duration of the most recent offline (re)fit"
)
_MODEL_VERSION = get_registry().gauge(
    "repro_offline_model_version", "Version of the most recently fitted model"
)

__all__ = ["OfflineFitter", "OfflineFitReport"]


def _draw_partners(rng: random.Random, population: int, graph_id: int, count: int) -> List[int]:
    """``count`` distinct ids of ``range(population)`` other than ``graph_id``.

    The draw is ``rng.sample`` over the ids without ``graph_id``, taken
    without building that list: its index ``k`` is id ``k`` below
    ``graph_id`` and ``k + 1`` from it on.
    """
    return [k + (k >= graph_id) for k in rng.sample(range(population - 1), count)]


@dataclass
class OfflineFitReport:
    """Book-keeping for one (re)fit pass (the incremental Table IV entry)."""

    version: int = 0
    num_new_graphs: int = 0
    num_new_pairs: int = 0
    num_total_samples: int = 0
    new_orders: List[int] = field(default_factory=list)
    seconds: float = 0.0


class OfflineFitter:
    """Vectorized, incrementally refittable offline stage for GBDA.

    Parameters
    ----------
    database:
        The live graph database; :meth:`refit` folds in what was added to it.
    max_tau, num_prior_pairs, num_gmm_components, seed:
        As in :class:`~repro.core.search.GBDASearch`.
    refit_pairs_per_graph:
        How many sampled partners each newly added graph contributes to the
        incremental GBD sample on :meth:`refit`.
    """

    def __init__(
        self,
        database: GraphDatabase,
        *,
        max_tau: int = 10,
        num_prior_pairs: int = 10_000,
        num_gmm_components: int = 3,
        seed: int = 0,
        refit_pairs_per_graph: int = 64,
    ) -> None:
        if len(database) == 0:
            raise SearchError("cannot build an offline fitter over an empty database")
        self.database = database
        self.max_tau = int(max_tau)
        self.num_prior_pairs = int(num_prior_pairs)
        self.num_gmm_components = int(num_gmm_components)
        self.seed = seed
        self.refit_pairs_per_graph = int(refit_pairs_per_graph)

        self.gbd_prior: Optional[GBDPrior] = None
        self.ged_prior: Optional[GEDPrior] = None
        self.estimator: Optional[GBDAEstimator] = None
        self.version = 0
        self.fitted_revision = -1
        self.last_report = OfflineFitReport()
        self._samples: List[int] = []

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has run at least once."""
        return self.estimator is not None

    @property
    def num_pending(self) -> int:
        """Graphs added since the last (re)fit and not yet sampled."""
        return len(self.database) - max(self.fitted_revision, 0)

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise SearchError("OfflineFitter.fit must be called before this operation")

    # ------------------------------------------------------------------ #
    # full offline stage
    # ------------------------------------------------------------------ #
    def fit(self) -> "OfflineFitter":
        """Run the full offline stage (Step 1 of Algorithm 1) and return self."""
        start = time.perf_counter()
        revision = self.database.revision
        self.estimator = GBDAEstimator.fit(
            self.database,
            max_tau=self.max_tau,
            num_prior_pairs=self.num_prior_pairs,
            num_gmm_components=self.num_gmm_components,
            seed=self.seed,
        )
        self.gbd_prior = self.estimator.gbd_prior
        self.ged_prior = self.estimator.ged_prior
        self._samples = list(self.gbd_prior.report.sampled_gbds)
        self.version += 1
        self.fitted_revision = revision
        self.last_report = OfflineFitReport(
            version=self.version,
            num_new_graphs=len(self.database),
            num_new_pairs=self.gbd_prior.report.num_pairs_sampled,
            num_total_samples=len(self._samples),
            new_orders=list(self.ged_prior.report.orders),
            seconds=time.perf_counter() - start,
        )
        _FITS_FULL.inc()
        _FIT_SECONDS.set(self.last_report.seconds)
        _MODEL_VERSION.set(self.version)
        return self

    # ------------------------------------------------------------------ #
    # incremental refit
    # ------------------------------------------------------------------ #
    def refit(self) -> bool:
        """Fold the pending additions into the priors; return whether anything changed.

        No-op (returns ``False``) when no graphs arrived since the last
        (re)fit.  Otherwise samples ``refit_pairs_per_graph`` partners per
        new graph, appends the newly reachable GBD samples, refits the GMM
        on the accumulated sample list (same seed stream as the original
        fit, so the result is deterministic), extends the GED grid with any
        new extended orders, rebuilds the estimator and bumps the version.
        """
        self._require_fitted()
        start = time.perf_counter()
        entries = self.database.entries()
        new_entries = entries[self.fitted_revision :]
        if not new_entries:
            return False

        # Deterministic per-version stream (integer-derived: string/tuple
        # hashes vary across processes), independent of the main seed's
        # earlier consumption.
        base_seed = self.seed if isinstance(self.seed, int) else 0
        rng = random.Random(base_seed * 1_000_003 + self.version)
        pairs = []
        population = len(entries)
        for entry in new_entries:
            partners = min(self.refit_pairs_per_graph, population - 1)
            if partners <= 0:
                continue
            for j in _draw_partners(rng, population, entry.graph_id, partners):
                pairs.append((entry.graph_id, j))

        self._samples.extend(self.database.store.branch_distances(pairs))
        orders = {entry.num_vertices for entry in entries}
        # A new prior, not a refit of the old in place: engines built on the
        # previous version keep reading the prior they were built with.
        self.gbd_prior = GBDPrior(
            num_components=self.num_gmm_components,
            num_pairs=self.num_prior_pairs,
            seed=self.seed,
        ).fit_from_samples(self._samples, max_value=max(orders))

        if (
            self.ged_prior.num_vertex_labels != self.database.num_vertex_labels
            or self.ged_prior.num_edge_labels != self.database.num_edge_labels
        ):
            # New label alphabets change the branch-type count D behind every
            # grid column; only a full rebuild stays faithful.
            self.ged_prior = GEDPrior(
                max_tau=self.max_tau,
                num_vertex_labels=self.database.num_vertex_labels,
                num_edge_labels=self.database.num_edge_labels,
            ).fit(sorted(orders))
            new_orders = sorted(orders)
        else:
            new_orders = self.ged_prior.update(orders)

        self.estimator = GBDAEstimator(
            self.gbd_prior,
            self.ged_prior,
            self.database.num_vertex_labels,
            self.database.num_edge_labels,
        )
        self.version += 1
        self.fitted_revision = len(entries)
        self.last_report = OfflineFitReport(
            version=self.version,
            num_new_graphs=len(new_entries),
            num_new_pairs=len(pairs),
            num_total_samples=len(self._samples),
            new_orders=new_orders,
            seconds=time.perf_counter() - start,
        )
        _FITS_INCREMENTAL.inc()
        _FIT_SECONDS.set(self.last_report.seconds)
        _MODEL_VERSION.set(self.version)
        return True

    # ------------------------------------------------------------------ #
    # serving integration
    # ------------------------------------------------------------------ #
    def build_engine(self, **engine_kwargs):
        """Build a :class:`~repro.serving.engine.BatchQueryEngine` at the current version."""
        self._require_fitted()
        from repro.serving.engine import BatchQueryEngine

        engine = BatchQueryEngine(
            self.database, self.estimator, max_tau=self.max_tau, **engine_kwargs
        )
        engine.model_version = self.version
        return engine

    def snapshot(self, path, **engine_kwargs) -> Path:
        """Write a serving snapshot stamped with the current model version."""
        from repro.serving.snapshot import save_engine

        return save_engine(self.build_engine(**engine_kwargs), path)

    def __repr__(self) -> str:
        state = f"v{self.version}" if self.is_fitted else "unfitted"
        return (
            f"<OfflineFitter |D|={len(self.database)} {state} "
            f"pending={self.num_pending}>"
        )
