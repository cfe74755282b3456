"""Graph substrate: labeled simple undirected graphs and edit operations.

This subpackage implements the data model of the paper's Section II: simple
labeled undirected graphs with a shared labelling function, the six graph
edit operations of Definition 1, extended graphs of Definition 5, plus
generators, serialisation, and validation helpers.
"""

from repro.graphs.graph import Graph, VIRTUAL_LABEL
from repro.graphs.edit_ops import (
    AddEdge,
    AddVertex,
    DeleteEdge,
    DeleteVertex,
    EditOperation,
    EditPath,
    RelabelEdge,
    RelabelVertex,
)
from repro.graphs.extended import ExtendedGraphView, extend_pair
from repro.graphs.generators import (
    random_labeled_graph,
    scale_free_labeled_graph,
    to_networkx,
    from_networkx,
)

__all__ = [
    "Graph",
    "VIRTUAL_LABEL",
    "EditOperation",
    "AddVertex",
    "DeleteVertex",
    "RelabelVertex",
    "AddEdge",
    "DeleteEdge",
    "RelabelEdge",
    "EditPath",
    "ExtendedGraphView",
    "extend_pair",
    "random_labeled_graph",
    "scale_free_labeled_graph",
    "to_networkx",
    "from_networkx",
]
