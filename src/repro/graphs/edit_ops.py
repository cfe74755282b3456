"""Graph edit operations (GEO) and edit paths.

Definition 1 of the paper restricts graph edit operations to six types:

* ``AV`` — add one isolated vertex with a non-virtual label;
* ``DV`` — delete one isolated vertex;
* ``RV`` — relabel one vertex;
* ``AE`` — add one edge with a non-virtual label;
* ``DE`` — delete one edge;
* ``RE`` — relabel one edge.

An *edit path* (``seq`` in the paper) is a sequence of such operations; the
Graph Edit Distance is the length of the shortest edit path transforming one
graph into another.  This module provides concrete operation objects that can
be applied to :class:`~repro.graphs.graph.Graph` instances and
verified — used by the exact GED baseline, the synthetic known-GED dataset
generator, and the tests.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, List, Sequence

from repro.exceptions import EditOperationError
from repro.graphs.graph import Graph, VIRTUAL_LABEL

VertexId = Hashable
Label = Hashable


class EditOperation:
    """Abstract base class for a single graph edit operation."""

    #: Two-letter code matching the paper's Definition 1 (AV/DV/RV/AE/DE/RE).
    code: str = "??"

    def apply(self, graph: Graph) -> None:
        """Apply the operation to ``graph`` in place."""
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class AddVertex(EditOperation):
    """AV: add one isolated vertex with a non-virtual label."""

    vertex: VertexId
    label: Label
    code = "AV"

    def apply(self, graph: Graph) -> None:
        if self.label == VIRTUAL_LABEL:
            raise EditOperationError("AV must add a vertex with a non-virtual label")
        graph.add_vertex(self.vertex, self.label)


@dataclasses.dataclass(frozen=True)
class DeleteVertex(EditOperation):
    """DV: delete one isolated vertex."""

    vertex: VertexId
    code = "DV"

    def apply(self, graph: Graph) -> None:
        if graph.degree(self.vertex) != 0:
            raise EditOperationError(
                f"DV may only delete isolated vertices; {self.vertex!r} has degree "
                f"{graph.degree(self.vertex)}"
            )
        graph.remove_vertex(self.vertex)


@dataclasses.dataclass(frozen=True)
class RelabelVertex(EditOperation):
    """RV: relabel one vertex."""

    vertex: VertexId
    label: Label
    code = "RV"

    def apply(self, graph: Graph) -> None:
        if graph.vertex_label(self.vertex) == self.label:
            raise EditOperationError(
                f"RV on {self.vertex!r} must change the label ({self.label!r} is unchanged)"
            )
        graph.relabel_vertex(self.vertex, self.label)


@dataclasses.dataclass(frozen=True)
class AddEdge(EditOperation):
    """AE: add one edge with a non-virtual label."""

    u: VertexId
    v: VertexId
    label: Label
    code = "AE"

    def apply(self, graph: Graph) -> None:
        if self.label == VIRTUAL_LABEL:
            raise EditOperationError("AE must add an edge with a non-virtual label")
        graph.add_edge(self.u, self.v, self.label)


@dataclasses.dataclass(frozen=True)
class DeleteEdge(EditOperation):
    """DE: delete one edge."""

    u: VertexId
    v: VertexId
    code = "DE"

    def apply(self, graph: Graph) -> None:
        graph.remove_edge(self.u, self.v)


@dataclasses.dataclass(frozen=True)
class RelabelEdge(EditOperation):
    """RE: relabel one edge."""

    u: VertexId
    v: VertexId
    label: Label
    code = "RE"

    def apply(self, graph: Graph) -> None:
        if graph.edge_label(self.u, self.v) == self.label:
            raise EditOperationError(
                f"RE on {self.u!r}-{self.v!r} must change the label "
                f"({self.label!r} is unchanged)"
            )
        graph.relabel_edge(self.u, self.v, self.label)


class EditPath:
    """A sequence of graph edit operations (``seq`` in the paper).

    The length of an edit path is the number of operations it contains; an
    optimal edit path between two graphs has length equal to their GED.
    """

    def __init__(self, operations: Sequence[EditOperation] = ()) -> None:
        self._operations: List[EditOperation] = list(operations)

    def append(self, operation: EditOperation) -> None:
        """Append one operation to the path."""
        self._operations.append(operation)

    def extend(self, operations: Sequence[EditOperation]) -> None:
        """Append several operations to the path."""
        self._operations.extend(operations)

    @property
    def operations(self) -> List[EditOperation]:
        """The list of operations (a copy is not made; treat as read-only)."""
        return self._operations

    def __len__(self) -> int:
        return len(self._operations)

    def __iter__(self):
        return iter(self._operations)

    def __getitem__(self, index):
        return self._operations[index]

    def __repr__(self) -> str:
        codes = ",".join(op.code for op in self._operations)
        return f"<EditPath len={len(self)} [{codes}]>"

    def count(self, code: str) -> int:
        """Return the number of operations with the given two-letter code."""
        return sum(1 for op in self._operations if op.code == code)

    def apply_to(self, graph: Graph, *, in_place: bool = False) -> Graph:
        """Apply the whole path to ``graph`` and return the transformed graph."""
        target = graph if in_place else graph.copy()
        for operation in self._operations:
            operation.apply(target)
        return target

    def verify(self, source: Graph, target: Graph) -> bool:
        """Return whether applying this path to ``source`` yields ``target`` exactly."""
        try:
            result = self.apply_to(source)
        except Exception:
            return False
        return result.is_identical(target)
