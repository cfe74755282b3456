"""Ground-truth answer sets for effectiveness evaluation.

The truth is recorded, mirroring the paper's own strategy: datasets built
from known-GED families record the exact GED of every (query, same-family
graph) pair, and everything else is provably farther away than any
experimental threshold.  The tests hold the recorded values to the exact A*
baseline (``repro.baselines.ged_exact``) on small graphs.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.datasets.registry import Dataset
from repro.db.database import GraphDatabase
from repro.exceptions import DatasetError

__all__ = ["true_answer_set", "GroundTruthOracle"]


def true_answer_set(dataset: Dataset, query_index: int, tau_hat: int) -> FrozenSet[int]:
    """Return the true answer set of one query at threshold ``τ̂``."""
    query_key = dataset.query_key(query_index)
    return dataset.ground_truth.answer_set(query_key, tau_hat)


class GroundTruthOracle:
    """Answer-set oracle over a dataset's recorded ground truth."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset

    def answer_set(self, query_index: int, tau_hat: int) -> FrozenSet[int]:
        """True answer set for one query at threshold ``τ̂``."""
        if tau_hat < 0:
            raise DatasetError("the similarity threshold must be non-negative")
        return true_answer_set(self.dataset, query_index, tau_hat)

    def build_database(self) -> GraphDatabase:
        """Construct a :class:`GraphDatabase` over the dataset's database graphs."""
        return GraphDatabase(self.dataset.database_graphs, name=self.dataset.name)
