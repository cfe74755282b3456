"""Fingerprint-like graph generator (look-alike of the IAM Fingerprint dataset).

The IAM Fingerprint graphs are built from minutiae skeletons: small, very
sparse graphs (average degree ≈ 1.7, at most ~26 vertices) whose vertices
carry ridge-ending/bifurcation type labels and whose edges carry quantised
orientation labels.  This generator reproduces that regime with short paths
and occasional bifurcations.
"""

from __future__ import annotations

import random
from typing import List

from repro.datasets._assembly import assemble_family_dataset, spread_sizes
from repro.datasets.registry import Dataset, register_dataset
from repro.graphs.graph import Graph
from repro.stats.sampling import RandomState, as_rng

__all__ = ["make_fingerprint_graph", "make_fingerprint_like"]

#: Minutia types (vertex labels).
_MINUTIAE = ["ending", "bifurcation", "core", "delta"]
_MINUTIAE_WEIGHTS = [0.55, 0.30, 0.08, 0.07]

#: Quantised ridge orientations (edge labels).
_ORIENTATIONS = ["o0", "o45", "o90", "o135"]


def make_fingerprint_graph(num_vertices: int, *, seed: RandomState = None, name: str = None) -> Graph:
    """Generate one fingerprint-like graph (sparse skeleton, degree ≈ 1.7)."""
    rng = as_rng(seed)
    graph = Graph(name=name)
    if num_vertices <= 0:
        return graph
    for vertex in range(num_vertices):
        minutia = rng.choices(_MINUTIAE, weights=_MINUTIAE_WEIGHTS, k=1)[0]
        graph.add_vertex(vertex, minutia)

    # ridge skeleton: mostly a path, with occasional bifurcations
    for vertex in range(1, num_vertices):
        if rng.random() < 0.85 or vertex < 3:
            anchor = vertex - 1
        else:
            anchor = rng.randrange(max(vertex - 4, 1))
        graph.add_edge(vertex, anchor, rng.choice(_ORIENTATIONS))

    # a few extra connections raise the average degree towards 1.7 without
    # creating hubs
    extra_edges = max(num_vertices // 8, 0)
    for _ in range(extra_edges):
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, rng.choice(_ORIENTATIONS))
    return graph


def make_fingerprint_like(
    *,
    num_templates: int = 45,
    family_size: int = 12,
    max_distance: int = 10,
    queries_per_family: int = 1,
    min_vertices: int = 6,
    max_vertices: int = 26,
    mode_vertices: int = 12,
    seed: int = 11,
) -> Dataset:
    """Build the Fingerprint look-alike dataset (sparse skeleton graphs)."""
    rng = random.Random(seed)
    sizes = spread_sizes(rng, num_templates, min_vertices, max_vertices, mode_vertices)
    templates: List[Graph] = [
        make_fingerprint_graph(size, seed=rng.randrange(2**31), name=f"finger_t{index}")
        for index, size in enumerate(sizes)
    ]
    return assemble_family_dataset(
        "Fingerprint",
        templates,
        family_size=family_size,
        max_distance=max_distance,
        queries_per_family=queries_per_family,
        seed=rng.randrange(2**31),
        scale_free=True,
        description=(
            "Fingerprint-skeleton look-alike of the IAM Fingerprint dataset: minutia-labeled "
            "vertices, orientation-labeled edges, average degree ≈ 1.7, known-GED families"
        ),
    )


register_dataset("fingerprint", make_fingerprint_like)
register_dataset("finger", make_fingerprint_like)
