"""Random labeled graph generators and networkx interoperability.

Two generators are provided:

* :func:`random_labeled_graph` — an Erdős–Rényi-style generator that first
  builds a random spanning structure to guarantee connectivity (when asked)
  and then adds edges uniformly at random.  Used for Syn-2-style
  non-scale-free graphs and for test fixtures.
* :func:`scale_free_labeled_graph` — a preferential-attachment generator
  matching the construction in Appendix I: every vertex ``v_i`` (``i > 0``)
  connects to an earlier vertex, then a constant number of extra edges per
  vertex are attached to earlier vertices with probability proportional to
  their current degree.  Used for Syn-1-style scale-free graphs.

Both generators label vertices and edges uniformly at random from
user-provided alphabets and accept either an integer seed or a
``random.Random`` instance, so every experiment in the repository is
reproducible.
"""

from __future__ import annotations

from typing import Optional, Sequence

import networkx as nx

from repro.graphs.graph import Graph
from repro.stats.sampling import RandomState, as_rng

#: Default label alphabets used when a caller does not supply any.
DEFAULT_VERTEX_LABELS: Sequence[str] = ("A", "B", "C", "D", "E")
DEFAULT_EDGE_LABELS: Sequence[str] = ("x", "y", "z")


def random_labeled_graph(
    num_vertices: int,
    num_edges: int,
    vertex_labels: Sequence = DEFAULT_VERTEX_LABELS,
    edge_labels: Sequence = DEFAULT_EDGE_LABELS,
    *,
    connected: bool = True,
    seed: RandomState = None,
    name: Optional[str] = None,
) -> Graph:
    """Generate a uniformly random simple labeled graph.

    Parameters
    ----------
    num_vertices:
        Number of vertices.  Vertex ids are ``0 .. num_vertices - 1``.
    num_edges:
        Target number of edges.  Clamped to the maximum possible for a
        simple graph; when ``connected`` is true at least ``n - 1`` edges are
        produced.
    vertex_labels, edge_labels:
        Alphabets to draw labels from uniformly at random.
    connected:
        When true (default) the generator first wires every vertex ``i > 0``
        to a uniformly chosen earlier vertex, guaranteeing connectivity —
        the same trick used by the paper's Appendix I generator.
    seed:
        Integer seed or ``random.Random`` instance for reproducibility.
    """
    if num_vertices < 0:
        raise ValueError("num_vertices must be non-negative")
    rng = as_rng(seed)
    graph = Graph(name=name)
    for vertex in range(num_vertices):
        graph.add_vertex(vertex, rng.choice(list(vertex_labels)))

    if num_vertices <= 1:
        return graph

    max_edges = num_vertices * (num_vertices - 1) // 2
    num_edges = min(num_edges, max_edges)

    if connected:
        for vertex in range(1, num_vertices):
            anchor = rng.randrange(vertex)
            graph.add_edge(vertex, anchor, rng.choice(list(edge_labels)))

    attempts = 0
    max_attempts = 50 * max(num_edges, 1) + 100
    while graph.num_edges < num_edges and attempts < max_attempts:
        attempts += 1
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u == v or graph.has_edge(u, v):
            continue
        graph.add_edge(u, v, rng.choice(list(edge_labels)))
    return graph


def scale_free_labeled_graph(
    num_vertices: int,
    edges_per_vertex: int = 2,
    vertex_labels: Sequence = DEFAULT_VERTEX_LABELS,
    edge_labels: Sequence = DEFAULT_EDGE_LABELS,
    *,
    seed: RandomState = None,
    name: Optional[str] = None,
) -> Graph:
    """Generate a connected scale-free labeled graph via preferential attachment.

    Follows the Appendix I recipe for Syn-1: each new vertex ``v_i`` first
    connects to one uniformly chosen earlier vertex (ensuring connectivity)
    and then attaches up to ``edges_per_vertex - 1`` additional edges to
    earlier vertices picked with probability proportional to their degree.
    """
    if num_vertices < 0:
        raise ValueError("num_vertices must be non-negative")
    if edges_per_vertex < 1:
        raise ValueError("edges_per_vertex must be at least 1")
    rng = as_rng(seed)
    graph = Graph(name=name)
    for vertex in range(num_vertices):
        graph.add_vertex(vertex, rng.choice(list(vertex_labels)))

    if num_vertices <= 1:
        return graph

    # repeated-vertex list for degree-proportional sampling (Barabási–Albert style)
    degree_pool = [0]
    for vertex in range(1, num_vertices):
        anchor = rng.randrange(vertex)
        graph.add_edge(vertex, anchor, rng.choice(list(edge_labels)))
        degree_pool.extend((vertex, anchor))

        extra = min(edges_per_vertex - 1, vertex - 1)
        added = 0
        attempts = 0
        while added < extra and attempts < 20 * (extra + 1):
            attempts += 1
            target = rng.choice(degree_pool)
            if target == vertex or graph.has_edge(vertex, target):
                continue
            graph.add_edge(vertex, target, rng.choice(list(edge_labels)))
            degree_pool.extend((vertex, target))
            added += 1
    return graph


def to_networkx(graph: Graph) -> nx.Graph:
    """Convert a :class:`Graph` into a ``networkx.Graph`` with label attributes."""
    nx_graph = nx.Graph(name=graph.name or "")
    for vertex, label in graph.vertex_items():
        nx_graph.add_node(vertex, label=label)
    for u, v, label in graph.edges():
        nx_graph.add_edge(u, v, label=label)
    return nx_graph


def from_networkx(nx_graph: nx.Graph, *, default_vertex_label: str = "A",
                  default_edge_label: str = "x", name: Optional[str] = None) -> Graph:
    """Convert a ``networkx.Graph`` into a :class:`Graph`.

    Node/edge attributes named ``label`` are used; missing labels fall back to
    the provided defaults, so plain unlabeled networkx graphs can be imported.
    """
    graph = Graph(name=name or (nx_graph.name or None))
    for node, data in nx_graph.nodes(data=True):
        graph.add_vertex(node, data.get("label", default_vertex_label))
    for u, v, data in nx_graph.edges(data=True):
        if u == v:
            continue  # simple graphs: drop self-loops on import
        graph.add_edge(u, v, data.get("label", default_edge_label))
    return graph
