"""Labeled simple undirected graph data structure.

The paper (Section II) restricts attention to simple labeled undirected
graphs ``G = {V, E, L}`` where both vertices and edges carry labels drawn
from finite alphabets ``LV`` and ``LE``.  A reserved *virtual label*
``epsilon`` marks vertices/edges that "do not actually exist" and is used by
the extended-graph construction of Section IV; it is therefore not allowed
on ordinary vertices or edges.

The implementation favours dictionary-based adjacency so that the branch
extraction of Section III runs in ``O(sum of degrees)`` time, matching the
``O(nd)`` bound claimed for GBD computation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, Mapping, Optional, Tuple

from repro.exceptions import (
    DuplicateEdgeError,
    DuplicateVertexError,
    InvalidLabelError,
    MissingEdgeError,
    MissingVertexError,
    SelfLoopError,
)

#: The reserved virtual label ``epsilon`` of Section II.  It is not a member
#: of either label alphabet and may only appear on virtual vertices/edges of
#: extended graphs (Definition 5).
VIRTUAL_LABEL = "ε"

VertexId = Hashable
Label = Hashable
EdgeKey = FrozenSet


def edge_key(u: VertexId, v: VertexId) -> EdgeKey:
    """Return the canonical (unordered) key of the edge between ``u`` and ``v``."""
    return frozenset((u, v))


class Graph:
    """A simple labeled undirected graph.

    Parameters
    ----------
    name:
        Optional identifier of the graph (used by datasets and the database).

    Notes
    -----
    * Vertices are identified by hashable ids; each carries exactly one label.
    * Edges are unordered pairs of distinct vertices; each carries one label.
    * Multi-edges and self-loops are rejected, matching the paper's "simple
      labeled undirected graphs" restriction.
    """

    __slots__ = ("name", "_vertex_labels", "_adjacency", "_edge_labels")

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name
        self._vertex_labels: Dict[VertexId, Label] = {}
        # adjacency maps vertex -> {neighbour: edge label}
        self._adjacency: Dict[VertexId, Dict[VertexId, Label]] = {}
        self._edge_labels: Dict[EdgeKey, Label] = {}

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dicts(
        cls,
        vertices: Mapping[VertexId, Label],
        edges: Mapping[Tuple[VertexId, VertexId], Label],
        name: Optional[str] = None,
    ) -> "Graph":
        """Build a graph from ``{vertex: label}`` and ``{(u, v): label}`` mappings."""
        graph = cls(name=name)
        for vertex, label in vertices.items():
            graph.add_vertex(vertex, label)
        for (u, v), label in edges.items():
            graph.add_edge(u, v, label)
        return graph

    def copy(self, name: Optional[str] = None) -> "Graph":
        """Return a deep copy of this graph (labels are shared, structure copied)."""
        clone = Graph(name=self.name if name is None else name)
        clone._vertex_labels = dict(self._vertex_labels)
        clone._adjacency = {v: dict(nbrs) for v, nbrs in self._adjacency.items()}
        clone._edge_labels = dict(self._edge_labels)
        return clone

    # ------------------------------------------------------------------ #
    # vertices
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex: VertexId, label: Label, *, allow_virtual: bool = False) -> None:
        """Add an isolated vertex with the given non-virtual label.

        ``allow_virtual`` is used internally by the extended-graph machinery
        and must stay ``False`` for ordinary graphs.
        """
        if vertex in self._vertex_labels:
            raise DuplicateVertexError(f"vertex {vertex!r} already exists")
        if label == VIRTUAL_LABEL and not allow_virtual:
            raise InvalidLabelError(
                "the virtual label is reserved for extended graphs (Definition 5)"
            )
        self._vertex_labels[vertex] = label
        self._adjacency[vertex] = {}

    def remove_vertex(self, vertex: VertexId) -> None:
        """Delete an isolated vertex.  Deleting a non-isolated vertex is an error.

        The DV edit operation of Definition 1 only deletes *isolated*
        vertices; enforcing this here keeps the edit semantics faithful.
        """
        if vertex not in self._vertex_labels:
            raise MissingVertexError(f"vertex {vertex!r} does not exist")
        if self._adjacency[vertex]:
            raise SelfLoopError(
                f"vertex {vertex!r} is not isolated; delete its edges first (DV semantics)"
            )
        del self._vertex_labels[vertex]
        del self._adjacency[vertex]

    def relabel_vertex(self, vertex: VertexId, label: Label, *, allow_virtual: bool = False) -> None:
        """Change the label of an existing vertex (RV operation)."""
        if vertex not in self._vertex_labels:
            raise MissingVertexError(f"vertex {vertex!r} does not exist")
        if label == VIRTUAL_LABEL and not allow_virtual:
            raise InvalidLabelError("cannot relabel a vertex to the virtual label")
        self._vertex_labels[vertex] = label

    def has_vertex(self, vertex: VertexId) -> bool:
        """Return whether the vertex exists."""
        return vertex in self._vertex_labels

    def vertex_label(self, vertex: VertexId) -> Label:
        """Return the label of a vertex."""
        try:
            return self._vertex_labels[vertex]
        except KeyError as exc:
            raise MissingVertexError(f"vertex {vertex!r} does not exist") from exc

    def vertices(self) -> Iterator[VertexId]:
        """Iterate over vertex identifiers."""
        return iter(self._vertex_labels)

    def vertex_items(self) -> Iterator[Tuple[VertexId, Label]]:
        """Iterate over ``(vertex, label)`` pairs."""
        return iter(self._vertex_labels.items())

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return len(self._vertex_labels)

    # ------------------------------------------------------------------ #
    # edges
    # ------------------------------------------------------------------ #
    def add_edge(self, u: VertexId, v: VertexId, label: Label, *, allow_virtual: bool = False) -> None:
        """Add an edge with a non-virtual label between two existing vertices."""
        if u == v:
            raise SelfLoopError(f"self-loop on vertex {u!r} is not allowed in simple graphs")
        if u not in self._vertex_labels:
            raise MissingVertexError(f"vertex {u!r} does not exist")
        if v not in self._vertex_labels:
            raise MissingVertexError(f"vertex {v!r} does not exist")
        if label == VIRTUAL_LABEL and not allow_virtual:
            raise InvalidLabelError("the virtual label is reserved for extended graphs")
        key = edge_key(u, v)
        if key in self._edge_labels:
            raise DuplicateEdgeError(f"edge {u!r}-{v!r} already exists")
        self._edge_labels[key] = label
        self._adjacency[u][v] = label
        self._adjacency[v][u] = label

    def remove_edge(self, u: VertexId, v: VertexId) -> None:
        """Delete an existing edge (DE operation)."""
        key = edge_key(u, v)
        if key not in self._edge_labels:
            raise MissingEdgeError(f"edge {u!r}-{v!r} does not exist")
        del self._edge_labels[key]
        del self._adjacency[u][v]
        del self._adjacency[v][u]

    def relabel_edge(self, u: VertexId, v: VertexId, label: Label, *, allow_virtual: bool = False) -> None:
        """Change the label of an existing edge (RE operation)."""
        key = edge_key(u, v)
        if key not in self._edge_labels:
            raise MissingEdgeError(f"edge {u!r}-{v!r} does not exist")
        if label == VIRTUAL_LABEL and not allow_virtual:
            raise InvalidLabelError("cannot relabel an edge to the virtual label")
        self._edge_labels[key] = label
        self._adjacency[u][v] = label
        self._adjacency[v][u] = label

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        """Return whether an edge between ``u`` and ``v`` exists."""
        return edge_key(u, v) in self._edge_labels

    def edge_label(self, u: VertexId, v: VertexId) -> Label:
        """Return the label of an edge."""
        try:
            return self._edge_labels[edge_key(u, v)]
        except KeyError as exc:
            raise MissingEdgeError(f"edge {u!r}-{v!r} does not exist") from exc

    def edges(self) -> Iterator[Tuple[VertexId, VertexId, Label]]:
        """Iterate over ``(u, v, label)`` triples with an arbitrary endpoint order."""
        for key, label in self._edge_labels.items():
            u, v = tuple(key)
            yield u, v, label

    @property
    def num_edges(self) -> int:
        """Number of edges ``|E|``."""
        return len(self._edge_labels)

    # ------------------------------------------------------------------ #
    # neighbourhood / degree
    # ------------------------------------------------------------------ #
    def neighbors(self, vertex: VertexId) -> Iterator[VertexId]:
        """Iterate over the neighbours of a vertex."""
        if vertex not in self._adjacency:
            raise MissingVertexError(f"vertex {vertex!r} does not exist")
        return iter(self._adjacency[vertex])

    def incident_edge_labels(self, vertex: VertexId) -> Iterator[Label]:
        """Iterate over the labels of edges incident to ``vertex``.

        This is the raw material of the branch multiset ``N(v)`` of
        Definition 2.
        """
        if vertex not in self._adjacency:
            raise MissingVertexError(f"vertex {vertex!r} does not exist")
        return iter(self._adjacency[vertex].values())

    def neighbourhoods(self) -> Iterator[Tuple[Label, Iterable[Label]]]:
        """Iterate over ``(L(v), labels of the edges at v)`` in :meth:`vertices` order.

        Edge labels come as stored (insertion order, unsorted); no Python frame per vertex.
        """
        return zip(self._vertex_labels.values(), map(dict.values, self._adjacency.values()))

    def degree(self, vertex: VertexId) -> int:
        """Return the degree of a vertex."""
        if vertex not in self._adjacency:
            raise MissingVertexError(f"vertex {vertex!r} does not exist")
        return len(self._adjacency[vertex])

    def average_degree(self) -> float:
        """Return the average degree ``2|E| / |V|`` (0.0 for empty graphs)."""
        if not self._vertex_labels:
            return 0.0
        return 2.0 * self.num_edges / self.num_vertices

    def max_degree(self) -> int:
        """Return the maximum vertex degree (0 for an empty graph)."""
        if not self._adjacency:
            return 0
        return max(len(nbrs) for nbrs in self._adjacency.values())

    # ------------------------------------------------------------------ #
    # label alphabets
    # ------------------------------------------------------------------ #
    def vertex_label_set(self) -> FrozenSet[Label]:
        """Return the set of vertex labels used in this graph."""
        return frozenset(self._vertex_labels.values())

    def edge_label_set(self) -> FrozenSet[Label]:
        """Return the set of edge labels used in this graph."""
        return frozenset(self._edge_labels.values())

    def label_types(self) -> set:
        """Return the exact Python types of the labels in use (``1 == True == 1.0``:
        code that must tell equal labels apart asks here whether it has to look)."""
        return {*map(type, self._vertex_labels.values()), *map(type, self._edge_labels.values())}

    # ------------------------------------------------------------------ #
    # comparison helpers
    # ------------------------------------------------------------------ #
    def is_identical(self, other: "Graph") -> bool:
        """Return whether both graphs have exactly the same vertices/edges/labels.

        This is identity of the labelled structure under the *same* vertex
        identifiers — a much stronger property than isomorphism, used mainly
        in tests and in edit-path verification.
        """
        return (
            self._vertex_labels == other._vertex_labels
            and self._edge_labels == other._edge_labels
        )

    def connected_components(self) -> list:
        """Return the vertex sets of the connected components of the graph."""
        seen: set = set()
        components = []
        for start in self._vertex_labels:
            if start in seen:
                continue
            stack = [start]
            component = set()
            while stack:
                node = stack.pop()
                if node in component:
                    continue
                component.add(node)
                stack.extend(nbr for nbr in self._adjacency[node] if nbr not in component)
            seen |= component
            components.append(component)
        return components

    def is_connected(self) -> bool:
        """Return whether the graph is connected (empty graphs count as connected)."""
        if self.num_vertices == 0:
            return True
        return len(self.connected_components()) == 1

    # ------------------------------------------------------------------ #
    # dunder methods
    # ------------------------------------------------------------------ #
    def __contains__(self, vertex: VertexId) -> bool:
        return vertex in self._vertex_labels

    def __len__(self) -> int:
        return len(self._vertex_labels)

    def __iter__(self) -> Iterator[VertexId]:
        return iter(self._vertex_labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.is_identical(other)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} |V|={self.num_vertices} |E|={self.num_edges}>"


def union_label_alphabets(graphs: Iterable[Graph]) -> Tuple[FrozenSet[Label], FrozenSet[Label]]:
    """Return the union vertex-label and edge-label alphabets across ``graphs``.

    The alphabets ``LV`` and ``LE`` of Section II are properties of the whole
    database, not of an individual graph; this helper computes them.
    """
    vertex_labels: set = set()
    edge_labels: set = set()
    for graph in graphs:
        vertex_labels |= graph.vertex_label_set()
        edge_labels |= graph.edge_label_set()
    return frozenset(vertex_labels), frozenset(edge_labels)
