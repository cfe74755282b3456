"""GREC-like graph generator (look-alike of the IAM GREC dataset).

The IAM GREC graphs represent symbols from architectural and electronic
drawings: vertices are junction/corner/endpoint primitives, edges are line
or arc segments, the graphs are small (~24 vertices) with average degree
around 2.1.  The generator lays out grid-like symbol skeletons (rectangles,
crosses, and connecting strokes) to mimic that structure.
"""

from __future__ import annotations

import random
from typing import List

from repro.datasets._assembly import assemble_family_dataset, spread_sizes
from repro.datasets.registry import Dataset, register_dataset
from repro.graphs.graph import Graph
from repro.stats.sampling import RandomState, as_rng

__all__ = ["make_grec_graph", "make_grec_like"]

#: Drawing primitive types (vertex labels).
_PRIMITIVES = ["corner", "junction", "endpoint", "circle-center"]
_PRIMITIVE_WEIGHTS = [0.40, 0.30, 0.22, 0.08]

#: Segment types (edge labels).
_SEGMENTS = ["line", "arc", "dashed"]


def make_grec_graph(num_vertices: int, *, seed: RandomState = None, name: str = None) -> Graph:
    """Generate one GREC-like symbol graph.

    Symbols are built as a closed polygon (the outer contour of the symbol)
    plus internal strokes connecting contour points, producing the mix of
    cycles and trees typical of technical drawings.
    """
    rng = as_rng(seed)
    graph = Graph(name=name)
    if num_vertices <= 0:
        return graph
    for vertex in range(num_vertices):
        primitive = rng.choices(_PRIMITIVES, weights=_PRIMITIVE_WEIGHTS, k=1)[0]
        graph.add_vertex(vertex, primitive)

    if num_vertices == 1:
        return graph

    # outer contour: a cycle over roughly two thirds of the vertices
    contour_size = max(min(2 * num_vertices // 3, num_vertices), 2)
    for index in range(contour_size):
        nxt = (index + 1) % contour_size
        if index != nxt and not graph.has_edge(index, nxt):
            graph.add_edge(index, nxt, rng.choice(_SEGMENTS))

    # internal strokes: connect remaining vertices to contour points
    for vertex in range(contour_size, num_vertices):
        anchor = rng.randrange(contour_size)
        graph.add_edge(vertex, anchor, rng.choice(_SEGMENTS))

    # a few chords across the contour
    for _ in range(max(num_vertices // 6, 0)):
        u = rng.randrange(contour_size)
        v = rng.randrange(contour_size)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, rng.choice(_SEGMENTS))
    return graph


def make_grec_like(
    *,
    num_templates: int = 30,
    family_size: int = 12,
    max_distance: int = 10,
    queries_per_family: int = 1,
    min_vertices: int = 6,
    max_vertices: int = 24,
    mode_vertices: int = 12,
    seed: int = 13,
) -> Dataset:
    """Build the GREC look-alike dataset (symbol drawing graphs)."""
    rng = random.Random(seed)
    sizes = spread_sizes(rng, num_templates, min_vertices, max_vertices, mode_vertices)
    templates: List[Graph] = [
        make_grec_graph(size, seed=rng.randrange(2**31), name=f"grec_t{index}")
        for index, size in enumerate(sizes)
    ]
    return assemble_family_dataset(
        "GREC",
        templates,
        family_size=family_size,
        max_distance=max_distance,
        queries_per_family=queries_per_family,
        seed=rng.randrange(2**31),
        scale_free=True,
        description=(
            "Symbol-drawing look-alike of the IAM GREC dataset: primitive-labeled vertices, "
            "segment-labeled edges, average degree ≈ 2.1, known-GED families"
        ),
    )


register_dataset("grec", make_grec_like)
