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

Layout.  A :class:`Graph` holds two per-vertex dicts and one small map:

* ``_vertex_labels``: vertex -> label, in insertion order ("vertex order");
* ``_adjacency``: vertex -> ``{neighbour: edge label}``, with the same key
  order.  Each edge sits in its two endpoints' dicts and nowhere else: the
  branches of Section III need ``L(v)`` and the labels of the edges at ``v``,
  nothing more;
* ``_edge_label_counts``: ``(type(label), label)`` -> number of edges with
  that label, at most ``|LE|`` entries.  It answers :attr:`Graph.num_edges`,
  :meth:`Graph.edge_label_set` and :meth:`Graph.label_types` without walking
  the edges; the type in the key keeps ``1``, ``True`` and ``1.0`` apart.

:meth:`Graph.edges` walks the adjacency in vertex order and yields each edge
once, as ``(u, v, label)`` with ``u`` the endpoint that comes first in vertex
order; the edges at one vertex come in the order they were added there.  The
order follows from the calls that built the graph alone, never from
``PYTHONHASHSEED``.

Graph pickles are not a storage format: snapshots store vertex and edge lists
and rebuild graphs through :meth:`Graph.from_dicts`, so a graph pickled by an
older version of this module is not expected to load.
"""

from __future__ import annotations

from operator import itemgetter
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

# The two halves of an ``_edge_label_counts`` key.
_TYPE, _LABEL = itemgetter(0), itemgetter(1)


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

    __slots__ = ("name", "_vertex_labels", "_adjacency", "_edge_label_counts")

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name
        self._vertex_labels: Dict[VertexId, Label] = {}
        # adjacency maps vertex -> {neighbour: edge label}
        self._adjacency: Dict[VertexId, Dict[VertexId, Label]] = {}
        # (type(label), label) -> number of edges carrying it
        self._edge_label_counts: Dict[Tuple[type, Label], int] = {}

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
        clone._edge_label_counts = dict(self._edge_label_counts)
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
        at_u = self._adjacency.get(u)
        if at_u is None:
            raise MissingVertexError(f"vertex {u!r} does not exist")
        at_v = self._adjacency.get(v)
        if at_v is None:
            raise MissingVertexError(f"vertex {v!r} does not exist")
        if label == VIRTUAL_LABEL and not allow_virtual:
            raise InvalidLabelError("the virtual label is reserved for extended graphs")
        if v in at_u:
            raise DuplicateEdgeError(f"edge {u!r}-{v!r} already exists")
        at_u[v] = label
        at_v[u] = label
        # _count(label, 1) inlined: this line runs once per edge of every graph built
        counts = self._edge_label_counts
        key = (type(label), label)
        counts[key] = counts.get(key, 0) + 1

    def _adjacent(self, u: VertexId, v: VertexId) -> Dict[VertexId, Label]:
        """Return ``u``'s adjacency dict, or raise :class:`MissingEdgeError` if ``v`` is not in it."""
        at_u = self._adjacency.get(u)
        if at_u is None or v not in at_u:
            raise MissingEdgeError(f"edge {u!r}-{v!r} does not exist")
        return at_u

    def _count(self, label: Label, step: int) -> None:
        """Move the number of edges carrying ``label`` by ``step``; a label at 0 leaves the map."""
        counts = self._edge_label_counts
        key = (type(label), label)
        left = counts.get(key, 0) + step
        if left:
            counts[key] = left
        else:
            del counts[key]

    def remove_edge(self, u: VertexId, v: VertexId) -> None:
        """Delete an existing edge (DE operation)."""
        self._count(self._adjacent(u, v).pop(v), -1)
        del self._adjacency[v][u]

    def relabel_edge(self, u: VertexId, v: VertexId, label: Label, *, allow_virtual: bool = False) -> None:
        """Change the label of an existing edge (RE operation)."""
        at_u = self._adjacent(u, v)
        if label == VIRTUAL_LABEL and not allow_virtual:
            raise InvalidLabelError("cannot relabel an edge to the virtual label")
        self._count(at_u[v], -1)
        at_u[v] = label
        self._adjacency[v][u] = label
        self._count(label, 1)

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        """Return whether an edge between ``u`` and ``v`` exists."""
        at_u = self._adjacency.get(u)
        return at_u is not None and v in at_u

    def edge_label(self, u: VertexId, v: VertexId) -> Label:
        """Return the label of an edge."""
        return self._adjacent(u, v)[v]

    def edges(self) -> Iterator[Tuple[VertexId, VertexId, Label]]:
        """Iterate over ``(u, v, label)`` triples, each edge once, in vertex order.

        ``u`` is the endpoint that comes first in vertex order; the edges at
        one vertex come in the order they were added there (module docstring).
        """
        done = set()
        for u, at_u in self._adjacency.items():
            done.add(u)
            for v, label in at_u.items():
                if v not in done:
                    yield u, v, label

    @property
    def num_edges(self) -> int:
        """Number of edges ``|E|``."""
        return sum(self._edge_label_counts.values())

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
        return frozenset(map(_LABEL, self._edge_label_counts))

    def label_types(self) -> set:
        """Return the exact Python types of the labels in use (``1 == True == 1.0``:
        code that must tell equal labels apart asks here whether it has to look)."""
        return {*map(type, self._vertex_labels.values()), *map(_TYPE, self._edge_label_counts)}

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
            and self._adjacency == other._adjacency
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
