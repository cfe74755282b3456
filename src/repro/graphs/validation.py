"""Structural validation and statistics helpers for labeled graphs.

Used by the dataset registry to sanity-check generated data (connectivity,
degree regime, scale-free-ness) and by the Table III reproduction which
reports per-dataset statistics.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, List, Sequence

from repro.exceptions import GraphError
from repro.graphs.graph import Graph, VIRTUAL_LABEL, union_label_alphabets


def validate_graph(graph: Graph, *, require_connected: bool = False) -> None:
    """Raise :class:`GraphError` when the graph violates simple-graph invariants.

    Checks performed:

    * no vertex or edge carries the reserved virtual label;
    * every adjacency entry names a known vertex, and that vertex's entry
      back carries the same label (the adjacency is the only edge store, so
      this is every edge, seen from both endpoints);
    * optionally, the graph is connected.
    """
    for vertex, label in graph.vertex_items():
        if label == VIRTUAL_LABEL:
            raise GraphError(f"vertex {vertex!r} carries the reserved virtual label")
        for neighbour in graph.neighbors(vertex):
            edge_label = graph.edge_label(vertex, neighbour)
            if edge_label == VIRTUAL_LABEL:
                raise GraphError(f"edge {vertex!r}-{neighbour!r} carries the reserved virtual label")
            if not graph.has_vertex(neighbour):
                raise GraphError(f"edge {vertex!r}-{neighbour!r} references an unknown vertex")
            if not graph.has_edge(neighbour, vertex):
                raise GraphError(
                    f"adjacency lists {vertex!r}-{neighbour!r} but not {neighbour!r}-{vertex!r}"
                )
            if graph.edge_label(neighbour, vertex) != edge_label:
                raise GraphError(
                    f"edge {vertex!r}-{neighbour!r} carries different labels at its two endpoints"
                )
    if require_connected and not graph.is_connected():
        raise GraphError(f"graph {graph.name!r} is not connected")


def powerlaw_exponent_estimate(graphs: Iterable[Graph], *, k_min: int = 2) -> float:
    """Estimate the power-law exponent of the pooled degree distribution.

    Uses the standard maximum-likelihood (Hill) estimator
    ``1 + n / sum(ln(k_i / (k_min - 0.5)))`` over all degrees ``>= k_min``.
    Returns ``nan`` when there are not enough qualifying vertices.
    """
    degrees: List[int] = []
    for graph in graphs:
        degrees.extend(d for d in (graph.degree(v) for v in graph.vertices()) if d >= k_min)
    if len(degrees) < 10:
        return float("nan")
    log_sum = sum(math.log(degree / (k_min - 0.5)) for degree in degrees)
    if log_sum <= 0.0:
        return float("nan")
    return 1.0 + len(degrees) / log_sum


def looks_scale_free(graphs: Sequence[Graph], *, exponent_range=(1.5, 3.5)) -> bool:
    """Heuristically decide whether a collection of graphs is scale-free.

    The paper (Table III) tags datasets as scale-free when their pooled
    degree distribution follows a power law; we accept an MLE exponent in a
    generous range and require a heavy tail (maximum degree well above the
    average degree).
    """
    exponent = powerlaw_exponent_estimate(graphs)
    if math.isnan(exponent):
        return False
    low, high = exponent_range
    if not low <= exponent <= high:
        return False
    max_deg = max((g.max_degree() for g in graphs), default=0)
    avg_deg = collection_statistics(graphs).average_degree
    return max_deg >= 2.0 * max(avg_deg, 1.0)


@dataclasses.dataclass(frozen=True)
class CollectionStatistics:
    """Summary statistics of a graph collection (one row of Table III)."""

    num_graphs: int
    max_vertices: int
    max_edges: int
    average_vertices: float
    average_edges: float
    average_degree: float
    num_vertex_labels: int
    num_edge_labels: int

    def as_row(self) -> dict:
        """Return the statistics as a plain dictionary for reporting."""
        return dataclasses.asdict(self)


def collection_statistics(graphs: Sequence[Graph]) -> CollectionStatistics:
    """Compute Table III-style statistics over a collection of graphs."""
    graphs = list(graphs)
    if not graphs:
        return CollectionStatistics(0, 0, 0, 0.0, 0.0, 0.0, 0, 0)
    vertex_counts = [g.num_vertices for g in graphs]
    edge_counts = [g.num_edges for g in graphs]
    total_vertices = sum(vertex_counts)
    total_edges = sum(edge_counts)
    vertex_labels, edge_labels = union_label_alphabets(graphs)
    average_degree = (2.0 * total_edges / total_vertices) if total_vertices else 0.0
    return CollectionStatistics(
        num_graphs=len(graphs),
        max_vertices=max(vertex_counts),
        max_edges=max(edge_counts),
        average_vertices=total_vertices / len(graphs),
        average_edges=total_edges / len(graphs),
        average_degree=average_degree,
        num_vertex_labels=len(vertex_labels),
        num_edge_labels=len(edge_labels),
    )
