"""Dataset container, ground-truth bookkeeping, and the named-dataset registry.

A :class:`Dataset` bundles everything one experiment needs: the database
graphs, the query workload, a :class:`GroundTruth` oracle giving the true
GED (or "far apart") for every (query, database graph) pair, and metadata
(name, scale-free flag).  The registry maps the paper's dataset names
("AIDS", "Fingerprint", "GREC", "AASD", "Syn-1", "Syn-2") to the generator
functions that build laptop-scale look-alikes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.exceptions import DatasetError
from repro.graphs.graph import Graph

__all__ = ["GroundTruth", "Dataset", "DATASET_BUILDERS", "register_dataset"]

#: Sentinel distance meaning "far apart": the true GED exceeds any threshold
#: used in the experiments, so the pair never belongs to an answer set.
FAR = None


class GroundTruth:
    """Oracle of true GED values between query graphs and database graphs.

    Ground truth is stored sparsely: pairs within the same generated family
    have an exact known GED (the Appendix-I construction), pairs across
    families are "far apart" (GED provably larger than every threshold used
    in the experiments) and are represented implicitly.
    """

    def __init__(self) -> None:
        self._exact: Dict[Tuple[str, int], int] = {}

    def record(self, query_key: str, graph_id: int, ged: int) -> None:
        """Record the exact GED between a query (by key) and a database graph."""
        if ged < 0:
            raise DatasetError("ground-truth GED values must be non-negative")
        self._exact[(query_key, graph_id)] = int(ged)

    def ged(self, query_key: str, graph_id: int) -> Optional[int]:
        """Return the exact GED, or ``None`` when the pair is far apart."""
        return self._exact.get((query_key, graph_id), FAR)

    def answer_set(self, query_key: str, tau_hat: int) -> FrozenSet[int]:
        """True answer set: database graphs with ``GED <= tau_hat``."""
        return frozenset(
            graph_id
            for (key, graph_id), ged in self._exact.items()
            if key == query_key and ged <= tau_hat
        )

    def known_pairs(self) -> int:
        """Number of (query, graph) pairs with an exact recorded GED."""
        return len(self._exact)

    def items(self):
        """Iterate over ``((query_key, graph_id), ged)`` pairs."""
        return self._exact.items()


@dataclass
class Dataset:
    """A named dataset: database graphs, queries, and ground truth."""

    name: str
    database_graphs: List[Graph]
    query_graphs: List[Graph]
    ground_truth: GroundTruth
    scale_free: bool = True
    description: str = ""
    metadata: Dict[str, object] = field(default_factory=dict)

    def query_key(self, query_index: int) -> str:
        """Stable key identifying one query graph inside the ground truth."""
        query = self.query_graphs[query_index]
        return query.name or f"q{query_index}"

    @property
    def num_database_graphs(self) -> int:
        """Number of graphs in the searchable database."""
        return len(self.database_graphs)

    @property
    def num_query_graphs(self) -> int:
        """Number of query graphs in the workload."""
        return len(self.query_graphs)

    def __repr__(self) -> str:
        return (
            f"<Dataset {self.name!r} |D|={self.num_database_graphs} "
            f"|Q|={self.num_query_graphs} scale_free={self.scale_free}>"
        )


#: Registry of named dataset builders.  Populated lazily by
#: :func:`register_dataset` calls at the bottom of the generator modules.
DATASET_BUILDERS: Dict[str, Callable[..., Dataset]] = {}


def register_dataset(name: str, builder: Callable[..., Dataset]) -> None:
    """Register a dataset builder under a (case-insensitive) name."""
    DATASET_BUILDERS[name.lower()] = builder
