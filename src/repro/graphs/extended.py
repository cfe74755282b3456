"""Extended graphs (Definition 5) and the pairing convention of Section IV.

For a graph ``G`` and an extension factor ``k``, the extended graph ``G{k}``
is obtained by (1) inserting ``k`` isolated *virtual* vertices (labelled with
the reserved virtual label ``epsilon``) and then (2) inserting a virtual edge
between every pair of non-adjacent vertices, so that the extended graph is a
complete graph on ``|V| + k`` vertices.

For a pair ``(G1, G2)`` with ``|V1| <= |V2|`` the paper defines
``G1' = G1^{|V2| - |V1|}`` and ``G2' = G2^{0}``; on these extended graphs
every minimal edit script consists solely of relabelling operations (RV/RE),
which is what makes the probabilistic model of Section V tractable.

The paper stresses (end of Section IV) that the extension is *conceptual*:
GED and GBD are preserved (Theorems 1 and 2), so implementations never need
to materialise the virtual vertices/edges.  We honour that: the model code
works on the original graphs and only needs the *size* ``|V1'|`` of the
extended graph, which :func:`extended_order` provides.  A materialised
:class:`ExtendedGraphView` is still offered for tests, examples, and the
exact verification of Theorems 1 and 2 on small graphs.
"""

from __future__ import annotations

import itertools
from typing import Tuple

from repro.graphs.graph import Graph, VIRTUAL_LABEL


def extended_order(g1: Graph, g2: Graph) -> int:
    """Return ``|V1'| = |V2'| = max(|V1|, |V2|)`` for the extended pair.

    This is the only quantity the probabilistic model needs from the
    extended graphs (it appears in the closed forms of Ω1, Ω2, Ω4 and in the
    Jeffreys prior).
    """
    return max(g1.num_vertices, g2.num_vertices)


def virtual_vertex_id(index: int) -> str:
    """Return the identifier used for the ``index``-th inserted virtual vertex."""
    return f"__virtual_{index}"


class ExtendedGraphView(Graph):
    """A materialised extended graph ``G{k}``.

    The view is itself a :class:`Graph` whose virtual vertices carry the
    reserved label and whose virtual edges carry the reserved label, so the
    branch/GBD machinery can be run on it directly when verifying Theorems 1
    and 2 in the test-suite.
    """

    def __init__(self, base: Graph, extension_factor: int) -> None:
        if extension_factor < 0:
            raise ValueError("extension factor must be non-negative")
        super().__init__(name=f"{base.name or 'G'}{{{extension_factor}}}")
        self.extension_factor = extension_factor

        for vertex, label in base.vertex_items():
            self.add_vertex(vertex, label, allow_virtual=True)
        for index in range(extension_factor):
            self.add_vertex(virtual_vertex_id(index), VIRTUAL_LABEL, allow_virtual=True)
        for u, v, label in base.edges():
            self.add_edge(u, v, label, allow_virtual=True)
        # complete the graph with virtual edges between non-adjacent pairs
        all_vertices = list(self.vertices())
        for u, v in itertools.combinations(all_vertices, 2):
            if not self.has_edge(u, v):
                self.add_edge(u, v, VIRTUAL_LABEL, allow_virtual=True)

    def virtual_vertices(self):
        """Iterate over the virtual vertices of the view."""
        return (v for v, label in self.vertex_items() if label == VIRTUAL_LABEL)


def extend_pair(g1: Graph, g2: Graph) -> Tuple[ExtendedGraphView, ExtendedGraphView]:
    """Return the extended pair ``(G1', G2')`` following the paper's convention.

    The smaller graph receives extension factor ``abs(|V1| - |V2|)`` and the
    larger graph receives factor 0, so both extended graphs have the same
    number of vertices.  When the two graphs already have the same order both
    factors are 0.
    """
    if g1.num_vertices <= g2.num_vertices:
        k1, k2 = g2.num_vertices - g1.num_vertices, 0
    else:
        k1, k2 = 0, g1.num_vertices - g2.num_vertices
    return ExtendedGraphView(g1, k1), ExtendedGraphView(g2, k2)
