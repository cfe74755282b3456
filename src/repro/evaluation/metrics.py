"""Effectiveness metrics: precision, recall, and F1-score.

The paper evaluates every search method by comparing its answer set against
the true answer set (graphs whose exact GED to the query is at most τ̂) and
reporting precision, recall, and F1 (Section VII-C.2).  The conventions for
degenerate cases follow the usual information-retrieval definitions:

* empty retrieved set and empty true set → precision = recall = F1 = 1
  (the method correctly returned nothing);
* empty retrieved set, non-empty true set → precision 1 (vacuous), recall 0;
* non-empty retrieved set, empty true set → precision 0, recall 1 (vacuous).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Set

__all__ = ["ConfusionCounts", "evaluate_answer", "aggregate_counts"]


@dataclass(frozen=True)
class ConfusionCounts:
    """True/false positive/negative counts of one (or several pooled) queries."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        """Fraction of retrieved graphs that are truly similar."""
        retrieved = self.true_positives + self.false_positives
        if retrieved == 0:
            return 1.0
        return self.true_positives / retrieved

    @property
    def recall(self) -> float:
        """Fraction of truly similar graphs that were retrieved."""
        relevant = self.true_positives + self.false_negatives
        if relevant == 0:
            return 1.0
        return self.true_positives / relevant

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        precision, recall = self.precision, self.recall
        if precision + recall == 0:
            return 0.0
        return 2.0 * precision * recall / (precision + recall)

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.true_positives + other.true_positives,
            self.false_positives + other.false_positives,
            self.false_negatives + other.false_negatives,
        )


def evaluate_answer(retrieved: Iterable[int], relevant: Iterable[int]) -> ConfusionCounts:
    """Compare a retrieved id set against the true answer id set."""
    retrieved_set: Set[int] = set(retrieved)
    relevant_set: Set[int] = set(relevant)
    true_positives = len(retrieved_set & relevant_set)
    return ConfusionCounts(
        true_positives=true_positives,
        false_positives=len(retrieved_set) - true_positives,
        false_negatives=len(relevant_set) - true_positives,
    )


def aggregate_counts(counts: Iterable[ConfusionCounts]) -> ConfusionCounts:
    """Micro-average: pool the confusion counts of several queries.

    Micro-averaging (pooling counts before computing the ratios) is the
    standard way to aggregate retrieval metrics over a query workload and is
    how the per-dataset curves of Figures 10–21 are produced here.
    """
    total = ConfusionCounts(0, 0, 0)
    for item in counts:
        total = total + item
    return total
