"""Exact Graph Edit Distance via A* search over vertex mappings.

The classical exact approach (Hart et al.'s A* applied to GED, see [5] in
the paper) explores partial vertex mappings between the two graphs; each
state maps a prefix of ``G1``'s vertices to vertices of ``G2`` (or to a
deletion), and the admissible heuristic lower-bounds the cost of completing
the mapping by comparing the label multisets of the unmapped remainder.

Exact GED is NP-hard and the paper notes that A* cannot handle graphs beyond
roughly a dozen vertices; this implementation honours that reality with an
explicit ``max_vertices`` guard and an optional expansion budget so that
callers (the evaluation harness) can fall back to known-GED synthetic data
for anything larger — exactly the strategy the paper itself adopts.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from typing import Optional

from repro.baselines.base import PairwiseGEDEstimator
from repro.exceptions import SearchError
from repro.graphs.graph import Graph

__all__ = ["exact_ged", "AStarGED"]

#: Marker used in the mapping for "this vertex of G1 is deleted".
_DELETED = None


def _label_multiset_lower_bound(g1: Graph, g2: Graph, unmapped1, unmapped2) -> float:
    """Admissible heuristic: label-multiset mismatch of the unmapped parts.

    The cheapest completion must at least relabel/insert/delete vertices so
    that the vertex-label multisets match; ``max(|A|, |B|) - |A ∩ B|`` over
    the remaining vertex labels therefore never over-estimates the remaining
    cost (edge costs are ignored, keeping the bound admissible).
    """
    labels1 = Counter(g1.vertex_label(v) for v in unmapped1)
    labels2 = Counter(g2.vertex_label(v) for v in unmapped2)
    intersection = sum((labels1 & labels2).values())
    return max(sum(labels1.values()), sum(labels2.values())) - intersection


def exact_ged(
    g1: Graph,
    g2: Graph,
    *,
    max_vertices: int = 12,
    max_expansions: int = 2_000_000,
    upper_bound: Optional[float] = None,
) -> int:
    """Compute the exact GED between two small graphs with A* search.

    Parameters
    ----------
    max_vertices:
        Guard against accidentally launching an exponential search on large
        graphs; raise the limit explicitly if you really mean it.
    max_expansions:
        Budget on the number of expanded search states.
    upper_bound:
        Optional known upper bound used to prune the search frontier.

    Raises
    ------
    SearchError
        If either graph exceeds ``max_vertices`` or the expansion budget is
        exhausted before the optimum is proven.
    """
    if g1.num_vertices > max_vertices or g2.num_vertices > max_vertices:
        raise SearchError(
            f"exact GED is limited to graphs with at most {max_vertices} vertices "
            f"(got {g1.num_vertices} and {g2.num_vertices}); use an estimator instead"
        )

    vertices1 = sorted(g1.vertices(), key=str)
    vertices2 = sorted(g2.vertices(), key=str)
    n1, n2 = len(vertices1), len(vertices2)

    if n1 == 0 and n2 == 0:
        return 0

    # state: (f, g_cost, index, mapping tuple, used frozenset)
    counter = itertools.count()
    start_h = _label_multiset_lower_bound(g1, g2, vertices1, vertices2)
    heap = [(start_h, 0.0, next(counter), 0, (), frozenset())]
    best = float("inf") if upper_bound is None else float(upper_bound)
    expansions = 0

    while heap:
        f_cost, g_cost, _, index, mapping, used = heapq.heappop(heap)
        if f_cost >= best:
            break
        expansions += 1
        if expansions > max_expansions:
            raise SearchError("exact GED search exceeded its expansion budget")

        if index == n1:
            # All G1 vertices decided; remaining G2 vertices are insertions.
            remaining2 = [v for v in vertices2 if v not in used]
            total = g_cost + len(remaining2)
            # edges incident to inserted vertices must be inserted as well
            inserted = set(remaining2)
            for u, v, _label in g2.edges():
                if u in inserted or v in inserted:
                    total += 1
            best = min(best, total)
            continue

        u1 = vertices1[index]
        mapped_pairs = list(zip(vertices1[:index], mapping))

        # Option 1: map u1 to each unused vertex of G2.
        for v2 in vertices2:
            if v2 in used:
                continue
            cost = g_cost
            if g1.vertex_label(u1) != g2.vertex_label(v2):
                cost += 1
            for (prev1, prev2) in mapped_pairs:
                edge1 = g1.edge_label(u1, prev1) if g1.has_edge(u1, prev1) else None
                if prev2 is _DELETED:
                    edge2 = None
                else:
                    edge2 = g2.edge_label(v2, prev2) if g2.has_edge(v2, prev2) else None
                if edge1 is None and edge2 is None:
                    continue
                if edge1 is None or edge2 is None:
                    cost += 1
                elif edge1 != edge2:
                    cost += 1
            new_used = used | {v2}
            heuristic = _label_multiset_lower_bound(
                g1, g2, vertices1[index + 1:], [v for v in vertices2 if v not in new_used]
            )
            if cost + heuristic < best:
                heapq.heappush(
                    heap,
                    (cost + heuristic, cost, next(counter), index + 1, mapping + (v2,), new_used),
                )

        # Option 2: delete u1 (and all its edges to previously mapped vertices).
        cost = g_cost + 1
        for (prev1, _prev2) in mapped_pairs:
            if g1.has_edge(u1, prev1):
                cost += 1
        heuristic = _label_multiset_lower_bound(
            g1, g2, vertices1[index + 1:], [v for v in vertices2 if v not in used]
        )
        if cost + heuristic < best:
            heapq.heappush(
                heap,
                (cost + heuristic, cost, next(counter), index + 1, mapping + (_DELETED,), used),
            )

    if best == float("inf"):
        raise SearchError("exact GED search failed to find any complete mapping")
    return int(best)


class AStarGED(PairwiseGEDEstimator):
    """Exact A* GED wrapped as a pairwise estimator (small graphs only)."""

    method_name = "A*-exact"

    def __init__(self, *, max_vertices: int = 12, max_expansions: int = 2_000_000) -> None:
        self.max_vertices = max_vertices
        self.max_expansions = max_expansions

    def estimate(self, g1: Graph, g2: Graph) -> float:
        return float(
            exact_ged(
                g1,
                g2,
                max_vertices=self.max_vertices,
                max_expansions=self.max_expansions,
            )
        )
