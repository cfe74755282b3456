"""Offline GBD prior ``Λ2 = Pr[GBD = ϕ]`` (Section V-B).

The prior is estimated once per database in the offline stage:

1. sample ``N`` graph pairs from the database (Step 1.1);
2. compute the GBD of every sampled pair (Step 1.2, ``O(N · n d)``);
3. fit a Gaussian Mixture Model to the sampled GBDs by EM (Step 1.3,
   :class:`~repro.stats.gmm.GaussianMixtureModel`);
4. pre-compute ``Pr[GBD = ϕ]`` for every feasible ϕ with the continuity
   correction of Equation (14) (Step 1.4).

The resulting table is ``O(n)`` in size, matching the paper's space bound.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.branches import branch_multiset
from repro.core.gbd import branch_intersection_size
from repro.exceptions import PriorNotFittedError
from repro.graphs.graph import Graph
from repro.stats.gmm import GaussianMixtureModel
from repro.stats.sampling import (
    RandomState, as_rng, decode_rng_state, encode_rng_state, sample_pairs,
)

if TYPE_CHECKING:
    from repro.db.database import GraphDatabase

__all__ = ["GBDPrior", "GBDPriorReport"]

#: Probability floor returned for values outside the observed/support range.
#: Using a tiny positive value instead of exact zero keeps the posterior of
#: Equation (4) finite when an unusual query produces an out-of-range GBD.
_PROBABILITY_FLOOR = 1e-12


def _pair_gbds(
    orders: Sequence[int],
    multisets: Union[Sequence[Counter], Mapping[int, Counter]],
    pairs: Sequence[Tuple[int, int]],
) -> List[int]:
    """``GBD`` (Definition 4) of every index pair from extracted branch multisets.

    ``orders[i]`` is ``|V|`` of graph ``i`` and ``multisets[i]`` its branch
    multiset; both need only be indexable by the indices the pairs use.
    """
    return [
        max(orders[i], orders[j]) - branch_intersection_size(multisets[i], multisets[j])
        for i, j in pairs
    ]


@dataclass
class GBDPriorReport:
    """Book-keeping produced while fitting the prior (feeds Table IV).

    ``gbd_seconds`` is Steps 1.1–1.2 (sampling the pairs and computing their
    GBDs); ``fit_seconds`` is Steps 1.3–1.4 (the GMM and its table).
    """

    num_pairs_sampled: int = 0
    num_components: int = 0
    fit_seconds: float = 0.0
    gbd_seconds: float = 0.0
    table_entries: int = 0
    sampled_gbds: List[int] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Total offline wall-clock time spent on the GBD prior."""
        return self.fit_seconds + self.gbd_seconds

    @property
    def table_bytes(self) -> int:
        """Approximate storage of the pre-computed table (8 bytes per entry)."""
        return 8 * self.table_entries


class GBDPrior:
    """Prior distribution of GBD values across a graph population.

    Parameters
    ----------
    num_components:
        Number of GMM components ``K`` (user-defined, default 3).
    num_pairs:
        Number of graph pairs ``N`` to sample for the fit.
    seed:
        Seed controlling both the pair sampling and the GMM initialisation.
    """

    def __init__(
        self,
        num_components: int = 3,
        num_pairs: int = 10_000,
        *,
        seed: RandomState = 0,
    ) -> None:
        self.num_components = num_components
        self.num_pairs = num_pairs
        self._seed = seed
        self._mixture: Optional[GaussianMixtureModel] = None
        self._table: Dict[int, float] = {}
        self._max_value: int = 0
        self.report = GBDPriorReport()

    # ------------------------------------------------------------------ #
    # fitting
    # ------------------------------------------------------------------ #
    def fit(self, graphs: Union[Sequence[Graph], GraphDatabase]) -> "GBDPrior":
        """Run the four offline steps of Section V-C.1 on ``graphs``.

        A :class:`~repro.db.database.GraphDatabase` is read through its
        branch store (:meth:`~repro.db.columnar.ColumnarBranchStore.branch_distances`);
        for bare graphs the sampled ones' multisets are extracted here.
        """
        # Imported here: repro.db.database imports repro.core.
        from repro.db.database import GraphDatabase

        start = time.perf_counter()
        rng = as_rng(self._seed)
        pairs = sample_pairs(range(len(graphs)), self.num_pairs, seed=rng)
        if isinstance(graphs, GraphDatabase):
            gbds = graphs.store.branch_distances(pairs)
            max_value = graphs.max_vertices
        else:
            orders = [graph.num_vertices for graph in graphs]
            sampled = {index for pair in pairs for index in pair}
            multisets = {index: branch_multiset(graphs[index]) for index in sampled}
            gbds = _pair_gbds(orders, multisets, pairs)
            max_value = max(orders, default=0)
        gbd_seconds = time.perf_counter() - start

        return self.fit_from_samples(gbds, max_value=max_value, gbd_seconds=gbd_seconds)

    def fit_from_samples(
        self,
        gbd_samples: Sequence[int],
        *,
        max_value: Optional[int] = None,
        gbd_seconds: float = 0.0,
    ) -> "GBDPrior":
        """Fit the prior directly from pre-computed GBD samples.

        Exposed separately so the benchmark harness can decouple the GBD
        sampling cost (Table IV's dominant term) from the GMM fit, and so
        callers with externally computed distances can reuse the prior.
        """
        samples = [int(v) for v in gbd_samples]
        if not samples:
            raise PriorNotFittedError("cannot fit the GBD prior without samples")
        self._max_value = max(max(samples), max_value or 0)

        start = time.perf_counter()
        mixture = GaussianMixtureModel(self.num_components, seed=self._seed)
        mixture.fit(samples)
        self._mixture = mixture

        # Pre-compute Pr[GBD = ϕ] for every feasible ϕ (Step 1.4).
        table = {}
        for value in range(self._max_value + 1):
            table[value] = max(mixture.discrete_probability(value), _PROBABILITY_FLOOR)
        self._table = table
        fit_seconds = time.perf_counter() - start

        self.report = GBDPriorReport(
            num_pairs_sampled=len(samples),
            num_components=len(mixture.components),
            fit_seconds=fit_seconds,
            gbd_seconds=gbd_seconds,
            table_entries=len(table),
            sampled_gbds=samples,
        )
        return self

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` (or :meth:`fit_from_samples`) has been called."""
        return self._mixture is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise PriorNotFittedError("GBDPrior.fit must be called before querying probabilities")

    def probability(self, phi: int) -> float:
        """Return ``Pr[GBD = ϕ]`` from the pre-computed table (Equation 14)."""
        self._require_fitted()
        if phi < 0:
            return _PROBABILITY_FLOOR
        if phi in self._table:
            return self._table[phi]
        # Values beyond the pre-computed range can appear when the query graph
        # is larger than everything sampled offline; integrate on demand.
        return max(self._mixture.discrete_probability(phi), _PROBABILITY_FLOOR)

    def table(self) -> Dict[int, float]:
        """Return a copy of the pre-computed ``{ϕ: Pr[GBD = ϕ]}`` table."""
        self._require_fitted()
        return dict(self._table)

    @property
    def mixture(self) -> GaussianMixtureModel:
        """The underlying fitted Gaussian mixture."""
        self._require_fitted()
        return self._mixture

    # ------------------------------------------------------------------ #
    # serialization (used by the serving snapshot layer)
    # ------------------------------------------------------------------ #
    def to_state(self) -> dict:
        """Return the fitted prior as a plain dict (GMM parameters + table).

        The sampling seed is part of the state: a prior restored with
        :meth:`from_state` refits on the same pair-sampling and GMM streams
        as the original — previously the seed was dropped and a reloaded
        prior silently refitted with the default ``seed=0``.
        """
        self._require_fitted()
        if self._seed is None or isinstance(self._seed, int):
            seed_state = {"seed": self._seed}
        else:
            # A live random.Random was supplied; persist its current state.
            seed_state = {"seed": None, "seed_rng_state": encode_rng_state(self._seed)}
        return {
            "num_components": self.num_components,
            "num_pairs": self.num_pairs,
            "mixture": self._mixture.to_state(),
            "table": dict(self._table),
            "max_value": self._max_value,
            **seed_state,
        }

    @classmethod
    def from_state(cls, state: dict) -> "GBDPrior":
        """Rebuild a fitted prior from :meth:`to_state` output without re-fitting.

        A ``"backend"`` key, written by builds that had a choice of EM loop,
        is ignored.
        """
        if state.get("seed_rng_state") is not None:
            seed: RandomState = decode_rng_state(state["seed_rng_state"])
        else:
            seed = state.get("seed", 0)
        prior = cls(int(state["num_components"]), int(state["num_pairs"]), seed=seed)
        prior._mixture = GaussianMixtureModel.from_state(state["mixture"])
        prior._table = {int(phi): float(p) for phi, p in state["table"].items()}
        prior._max_value = int(state["max_value"])
        prior.report = GBDPriorReport(
            num_pairs_sampled=0,
            num_components=len(prior._mixture.components),
            table_entries=len(prior._table),
        )
        return prior

    def __repr__(self) -> str:
        state = "fitted" if self.is_fitted else "unfitted"
        return f"<GBDPrior K={self.num_components} N={self.num_pairs} ({state})>"
