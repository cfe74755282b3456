"""AIDS-like molecular graph generator (look-alike of the IAM AIDS dataset).

The IAM AIDS dataset contains molecular graphs of antiviral screening
compounds: vertices are atoms labelled by their chemical element, edges are
bonds labelled by their valence, the average degree is about 2.1, and the
largest graphs have ~95 atoms (Table III).  This generator produces graphs
with the same statistical profile — chains and rings of carbon with
heteroatom substitutions and single/double/aromatic bonds — without using
the (non-redistributable) original screening data.
"""

from __future__ import annotations

import random
from typing import List

from repro.datasets._assembly import assemble_family_dataset, spread_sizes
from repro.datasets.registry import Dataset, register_dataset
from repro.graphs.graph import Graph
from repro.stats.sampling import RandomState, as_rng

__all__ = ["make_molecule_graph", "make_aids_like"]

#: Element alphabet with occurrence weights roughly matching organic compounds.
_ELEMENTS = ["C", "N", "O", "S", "P", "Cl", "F", "Br"]
_ELEMENT_WEIGHTS = [0.62, 0.12, 0.14, 0.04, 0.02, 0.03, 0.02, 0.01]

#: Bond types (edge labels).
_BONDS = ["single", "double", "aromatic"]
_BOND_WEIGHTS = [0.70, 0.18, 0.12]


def make_molecule_graph(num_atoms: int, *, seed: RandomState = None, name: str = None) -> Graph:
    """Generate one molecule-like labeled graph with ``num_atoms`` vertices.

    The construction grows a backbone chain, occasionally closes small rings
    (5- or 6-cycles, as in aromatic systems) and attaches short side chains,
    which yields connected graphs with average degree close to the published
    2.1 of the AIDS dataset.
    """
    rng = as_rng(seed)
    graph = Graph(name=name)
    if num_atoms <= 0:
        return graph

    for atom in range(num_atoms):
        element = rng.choices(_ELEMENTS, weights=_ELEMENT_WEIGHTS, k=1)[0]
        graph.add_vertex(atom, element)

    # backbone chain keeps the molecule connected
    for atom in range(1, num_atoms):
        anchor = atom - 1 if rng.random() < 0.75 else rng.randrange(atom)
        bond = rng.choices(_BONDS, weights=_BOND_WEIGHTS, k=1)[0]
        graph.add_edge(atom, anchor, bond)

    # close a few rings: connect atoms five or six positions apart
    num_rings = max(num_atoms // 12, 0)
    for _ in range(num_rings):
        ring_size = rng.choice((5, 6))
        start = rng.randrange(max(num_atoms - ring_size, 1))
        end = min(start + ring_size - 1, num_atoms - 1)
        if start != end and not graph.has_edge(start, end):
            graph.add_edge(start, end, "aromatic")
    return graph


def make_aids_like(
    *,
    num_templates: int = 40,
    family_size: int = 12,
    max_distance: int = 10,
    queries_per_family: int = 1,
    min_atoms: int = 10,
    max_atoms: int = 95,
    mode_atoms: int = 25,
    seed: int = 7,
) -> Dataset:
    """Build the AIDS look-alike dataset (molecule graphs, known-GED families).

    Defaults give ~440 database graphs and ~40 queries; scale ``num_templates``
    and ``family_size`` up to approach the published |D| = 1896 / |Q| = 100.
    """
    rng = random.Random(seed)
    sizes = spread_sizes(rng, num_templates, min_atoms, max_atoms, mode_atoms)
    templates: List[Graph] = [
        make_molecule_graph(size, seed=rng.randrange(2**31), name=f"aids_t{index}")
        for index, size in enumerate(sizes)
    ]
    return assemble_family_dataset(
        "AIDS",
        templates,
        family_size=family_size,
        max_distance=max_distance,
        queries_per_family=queries_per_family,
        seed=rng.randrange(2**31),
        scale_free=True,
        description=(
            "Molecule-like look-alike of the IAM AIDS dataset: element-labeled atoms, "
            "bond-labeled edges, average degree ≈ 2.1, known-GED families"
        ),
    )


register_dataset("aids", make_aids_like)
