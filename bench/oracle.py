"""An independent scalar check of the program's answers.

For a (query, stored graph) pair the oracle computes the Graph Branch
Distance from two ``Counter`` multisets it extracted itself and asks
``estimator.posterior`` for the pair's score.  It shares no code with the
columnar kernels, the execution plans or the posterior tables — only the
graph container and the fitted estimator, which are the inputs of Algorithm 1
Steps 2–4, not an implementation of them.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from bench.inputs import QuerySpec, rng_for


def branch_counter(graph) -> Counter:
    """``B_G``: one ``(vertex label, sorted incident edge labels)`` key per vertex."""
    counts: Counter = Counter()
    for vertex, label in graph.vertex_items():
        counts[(label, tuple(sorted(graph.incident_edge_labels(vertex))))] += 1
    return counts


def branch_distance(n_query: int, query: Counter, n_stored: int, stored: Counter) -> int:
    """``GBD = max(|V1|, |V2|) − |B1 ∩ B2|`` (Definition 4)."""
    shared = sum(min(query[key], stored[key]) for key in query.keys() & stored.keys())
    return max(n_query, n_stored) - shared


def canonical(answer):
    """The parts of a ``QueryAnswer`` that must repeat bit for bit."""
    return (answer.accepted_ids, answer.scores, answer.ranking)


class Oracle:
    """Checks answers over a growing list of stored graphs.

    An answer is checked on a fixed seeded sample of the stored graphs (all
    of them up to ``STORED_SAMPLE``) plus every graph the answer itself names:
    each accepted graph must be accepted by the oracle with the same score to
    the bit, and no sampled graph the oracle accepts may be missing.  The cap
    exists because the whole benchmark must fit a fixed time budget and a
    scalar pair costs ~3 µs: 64 queries × 40 000 graphs would take longer
    than a workload's timed section.
    """

    STORED_SAMPLE = 2048

    def __init__(self, graphs: Iterable, seed: int) -> None:
        self.estimator = None
        self._seed = seed
        self._graphs: list = []
        self._counters: Dict[int, Counter] = {}
        self._posteriors: Dict[Tuple[int, int, int], float] = {}
        self._sample: List[int] = []
        self.extend(graphs)

    def use(self, estimator) -> None:
        """Score with ``estimator`` from now on (each set-up fits its own)."""
        self.estimator = estimator
        self._posteriors.clear()

    def extend(self, graphs: Iterable) -> None:
        """Graph ids are positions, as in ``GraphDatabase``."""
        self._graphs.extend(graphs)
        population = len(self._graphs)
        if population <= self.STORED_SAMPLE:
            self._sample = list(range(population))
        else:
            picks = rng_for(self._seed, "oracle:stored").choice(
                population, size=self.STORED_SAMPLE, replace=False)
            self._sample = sorted(picks.tolist())

    def _posterior(self, gbd: int, tau_hat: int, order: int) -> float:
        key = (gbd, tau_hat, order)
        value = self._posteriors.get(key)
        if value is None:
            value = self.estimator.posterior(gbd, tau_hat, order)
            self._posteriors[key] = value
        return value

    def scores(self, spec: QuerySpec, graph_ids: Iterable[int]) -> Dict[int, float]:
        """``Pr[GED ≤ τ̂ | GBD]`` of ``spec`` against each named stored graph."""
        n_query = spec.graph.num_vertices
        query = branch_counter(spec.graph)
        out = {}
        for graph_id in graph_ids:
            graph_id = int(graph_id)
            stored = self._counters.get(graph_id)
            if stored is None:
                stored = self._counters[graph_id] = branch_counter(self._graphs[graph_id])
            n_stored = self._graphs[graph_id].num_vertices
            out[graph_id] = self._posterior(
                branch_distance(n_query, query, n_stored, stored),
                spec.tau_hat,
                max(n_query, n_stored),
            )
        return out

    def agrees(self, answer, spec: QuerySpec, top_k: Optional[int] = None) -> bool:
        """Whether ``canonical(answer)`` is what default knobs must return."""
        accepted, scores, ranking = answer
        truth = self.scores(spec, set(self._sample) | set(accepted))
        if scores != {graph_id: truth[graph_id] for graph_id in accepted}:
            return False
        if top_k is None:
            return ranking is None and all(
                (score >= spec.gamma) == (graph_id in accepted)
                for graph_id, score in truth.items()
            )
        # Top-k: the ranking is sorted by (−score, id), as long as it can be,
        # and nothing sampled outside it would sort before its last entry.
        keys = [(-score, graph_id) for graph_id, score in ranking]
        if keys != sorted(keys) or len(keys) != min(top_k, len(self._graphs)):
            return False
        if set(accepted) != {graph_id for graph_id, _ in ranking} or dict(ranking) != scores:
            return False
        return all(
            (-score, graph_id) > keys[-1]
            for graph_id, score in truth.items() if graph_id not in accepted
        )


def sample_indices(seed: int, population: int, count: int) -> Sequence[int]:
    """A seeded sample (without replacement) of ``count`` positions."""
    count = min(count, population)
    return sorted(rng_for(seed, "oracle").choice(population, size=count, replace=False).tolist())


class AnswerBook:
    """Every timed answer must equal the first answer seen under its key."""

    def __init__(self) -> None:
        self._first: Dict[object, tuple] = {}
        self.mismatches = 0

    def check(self, key, answer) -> bool:
        seen = canonical(answer)
        first = self._first.setdefault(key, seen)
        if first is seen or first == seen:
            return True
        self.mismatches += 1
        return False

    def first(self, key):
        return self._first.get(key)
