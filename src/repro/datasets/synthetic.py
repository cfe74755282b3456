"""Known-GED synthetic graph families (Appendix I) and the Syn-1/Syn-2 datasets.

The paper needs GED ground truth on graphs far too large for exact
computation, so Appendix I generates graphs around a *modification centre*:
a vertex ``v_c`` whose neighbours have pairwise-different signatures.  When
only the edges incident to ``v_c`` are modified (and each modified edge gets
a label unique to its variant), the GED between any two family members is
simply the number of incident edges on which they disagree — computable in
polynomial time by comparing the centres' adjacencies.

The implementation follows the same two phases:

1. generate a random "qualified" template graph (scale-free for Syn-1,
   uniform-random for Syn-2) that is connected and owns a modification
   centre of sufficiently high degree;
2. derive the family by relabelling ``k`` chosen centre edges per variant,
   recording pairwise GEDs exactly.

Different families are made "far apart" by drawing their vertex labels from
disjoint sub-alphabets, so the cross-family GED provably exceeds every
similarity threshold used in the experiments (their label multisets differ
in more positions than the largest threshold).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets.registry import Dataset, GroundTruth, register_dataset
from repro.exceptions import DatasetError
from repro.graphs.generators import random_labeled_graph, scale_free_labeled_graph
from repro.graphs.graph import Graph
from repro.stats.sampling import RandomState, as_rng

__all__ = [
    "find_modification_center",
    "KnownGEDFamily",
    "make_known_ged_family",
    "make_syn1",
    "make_syn2",
]


def _neighbor_signature(graph: Graph, center, neighbor) -> Tuple:
    """Signature of a centre neighbour: its label, the centre edge label, and its 1-hop view.

    This is the (truncated, k = 1) signature of Appendix I — sufficient to
    certify that two neighbours are distinguishable, which is what makes the
    centre a valid modification centre.
    """
    one_hop = sorted(
        (str(graph.vertex_label(other)), str(graph.edge_label(neighbor, other)))
        for other in graph.neighbors(neighbor)
        if other != center
    )
    return (
        str(graph.vertex_label(neighbor)),
        str(graph.edge_label(center, neighbor)),
        tuple(one_hop),
    )


def find_modification_center(graph: Graph, *, min_degree: int = 3) -> Optional[object]:
    """Return a vertex that is certainly a modification centre, or ``None``.

    A vertex qualifies when its degree is at least ``min_degree`` and the
    signatures of its neighbours are pairwise different (the sufficient
    condition of Appendix I).
    """
    best = None
    best_degree = min_degree - 1
    for vertex in graph.vertices():
        degree = graph.degree(vertex)
        if degree <= best_degree:
            continue
        signatures = [_neighbor_signature(graph, vertex, nbr) for nbr in graph.neighbors(vertex)]
        if len(set(signatures)) == len(signatures):
            best = vertex
            best_degree = degree
    return best


def _ensure_distinct_neighbor_labels(graph: Graph, center, labels: Sequence, rng: random.Random) -> None:
    """Relabel the centre's neighbours so their signatures are pairwise distinct.

    Used as a repair step when random generation fails to produce a valid
    centre: giving each neighbour a distinct vertex label is the simplest way
    to force pairwise-different signatures.
    """
    neighbors = list(graph.neighbors(center))
    pool = [f"{label}#{i}" for i, label in enumerate(labels * (len(neighbors) // max(len(labels), 1) + 1))]
    rng.shuffle(pool)
    for neighbor, label in zip(neighbors, pool):
        graph.relabel_vertex(neighbor, label)


@dataclass
class KnownGEDFamily:
    """A family of graphs with exactly known pairwise GEDs.

    Attributes
    ----------
    members:
        The generated graphs (index 0 is the unmodified template).
    center:
        The modification centre shared by all members.
    slots:
        The modification slots: ``("edge", neighbor)`` for centre-incident
        edges and ``("vertex", v)`` for distinguishable far-away vertices.
    edits_from_template:
        For each member, the mapping ``slot -> new label`` of its
        modifications relative to the template.
    """

    members: List[Graph]
    center: object
    slots: List[Tuple[str, object]]
    edits_from_template: List[Dict[Tuple[str, object], object]]

    def ged(self, i: int, j: int) -> int:
        """Exact GED between members ``i`` and ``j``.

        Members differ only on modification slots; each disagreeing slot
        requires exactly one relabelling operation, and no shorter edit path
        exists because every slot is uniquely distinguishable (pairwise
        different signatures, Appendix I).
        """
        edits_i = self.edits_from_template[i]
        edits_j = self.edits_from_template[j]
        touched = set(edits_i) | set(edits_j)
        distance = 0
        for slot in touched:
            if edits_i.get(slot) != edits_j.get(slot):
                distance += 1
        return distance

    def __len__(self) -> int:
        return len(self.members)


def _vertex_slot_candidates(template: Graph, center, limit: int) -> List[object]:
    """Vertices (away from the centre) usable as vertex-relabel modification slots.

    A candidate must not be the centre or one of its neighbours (so vertex
    modifications never interact with the edge slots) and candidates must be
    pairwise non-adjacent with pairwise-different branch context, which keeps
    the Hamming-distance GED argument intact.
    """
    center_neighbors = set(template.neighbors(center))
    chosen: List[object] = []
    chosen_set: set = set()
    seen_signatures: set = set()
    for vertex in sorted(template.vertices(), key=str):
        if len(chosen) >= limit:
            break
        if vertex == center or vertex in center_neighbors:
            continue
        if any(template.has_edge(vertex, other) for other in chosen_set):
            continue
        signature = (
            str(template.vertex_label(vertex)),
            tuple(
                sorted(
                    (str(template.vertex_label(nbr)), str(template.edge_label(vertex, nbr)))
                    for nbr in template.neighbors(vertex)
                )
            ),
        )
        if signature in seen_signatures:
            continue
        seen_signatures.add(signature)
        chosen.append(vertex)
        chosen_set.add(vertex)
    return chosen


def make_known_ged_family(
    template: Graph,
    family_size: int,
    max_distance: int,
    *,
    seed: RandomState = None,
) -> KnownGEDFamily:
    """Derive a known-GED family from a template graph (Appendix I, phase 2).

    Parameters
    ----------
    template:
        The qualified template graph; it must contain (or be repairable to
        contain) a modification centre.
    family_size:
        Number of graphs in the family, including the template itself.
    max_distance:
        Maximum number of modification slots altered per variant, i.e. the
        largest possible GED to the template.  When the centre's degree is
        smaller than ``max_distance`` the generator adds vertex-relabel slots
        on distinguishable far-away vertices to make up the difference, so
        low-degree domains (molecule-like graphs) can still span the full
        GED range used in the experiments.

    Each modified element gets a fresh label ``mod_<variant>_<kind>_<target>``,
    distinct per (variant, slot), so the pairwise GED equals the plain Hamming
    distance of the modifications.
    """
    if family_size < 1:
        raise DatasetError("family_size must be at least 1")
    rng = as_rng(seed)
    center = find_modification_center(template, min_degree=3)
    if center is None:
        # Repair: pick the highest-degree vertex and make its neighbourhood
        # distinguishable, then re-check.
        candidate = max(template.vertices(), key=template.degree, default=None)
        if candidate is None or template.degree(candidate) < 1:
            raise DatasetError(
                "template has no vertex of sufficient degree to host a modification centre"
            )
        _ensure_distinct_neighbor_labels(
            template, candidate, sorted(template.vertex_label_set(), key=str), rng
        )
        center = find_modification_center(template, min_degree=1)
        if center is None:
            raise DatasetError("failed to construct a modification centre on the template")

    slots: List[Tuple[str, object]] = [
        ("edge", neighbor) for neighbor in sorted(template.neighbors(center), key=str)
    ]
    if len(slots) < max_distance:
        extra_needed = max_distance - len(slots)
        slots.extend(
            ("vertex", vertex)
            for vertex in _vertex_slot_candidates(template, center, extra_needed)
        )
    max_distance = min(max_distance, len(slots))
    if max_distance < 1:
        raise DatasetError("template is too small to host any modification slot")

    members: List[Graph] = [template]
    edits: List[Dict[Tuple[str, object], object]] = [{}]
    for variant_index in range(1, family_size):
        distance = rng.randint(1, max_distance)
        chosen = rng.sample(slots, distance)
        variant = template.copy(name=f"{template.name or 'syn'}_v{variant_index}")
        variant_edits: Dict[Tuple[str, object], object] = {}
        for slot in chosen:
            kind, target = slot
            new_label = f"mod_{variant_index}_{kind}_{target}"
            if kind == "edge":
                variant.relabel_edge(center, target, new_label)
            else:
                variant.relabel_vertex(target, new_label)
            variant_edits[slot] = new_label
        members.append(variant)
        edits.append(variant_edits)
    return KnownGEDFamily(
        members=members, center=center, slots=slots, edits_from_template=edits
    )


# --------------------------------------------------------------------------- #
# Syn-1 / Syn-2 dataset builders
# --------------------------------------------------------------------------- #
def _build_synthetic_dataset(
    name: str,
    *,
    scale_free: bool,
    sizes: Sequence[int],
    families_per_size: int,
    family_size: int,
    queries_per_size: int,
    max_distance: int,
    seed: int,
) -> Dataset:
    """Shared builder for Syn-1 (scale-free) and Syn-2 (uniform random)."""
    rng = random.Random(seed)
    database_graphs: List[Graph] = []
    query_graphs: List[Graph] = []
    ground_truth = GroundTruth()

    for size_index, size in enumerate(sizes):
        for family_index in range(families_per_size):
            # Disjoint vertex-label sub-alphabets keep distinct families far apart.
            alphabet_tag = f"s{size_index}f{family_index}"
            vertex_labels = [f"V{alphabet_tag}_{i}" for i in range(5)]
            edge_labels = [f"E{alphabet_tag}_{i}" for i in range(3)]
            template_name = f"{name}_{size}_{family_index}"
            if scale_free:
                template = scale_free_labeled_graph(
                    size,
                    edges_per_vertex=3,
                    vertex_labels=vertex_labels,
                    edge_labels=edge_labels,
                    seed=rng.randrange(2**31),
                    name=template_name,
                )
            else:
                template = random_labeled_graph(
                    size,
                    num_edges=3 * size,
                    vertex_labels=vertex_labels,
                    edge_labels=edge_labels,
                    seed=rng.randrange(2**31),
                    name=template_name,
                )
            family = make_known_ged_family(
                template,
                family_size=family_size,
                max_distance=max_distance,
                seed=rng.randrange(2**31),
            )

            member_ids: List[int] = []
            query_members: List[int] = []
            queries_from_family = min(queries_per_size // max(families_per_size, 1) or 1, len(family))
            query_members = rng.sample(range(len(family)), queries_from_family)

            for member_index, member in enumerate(family.members):
                if member_index in query_members:
                    member.name = f"{template_name}_q{member_index}"
                    query_graphs.append(member)
                    member_ids.append(-1)  # placeholder; queries are not in the database
                else:
                    graph_id = len(database_graphs)
                    database_graphs.append(member)
                    member_ids.append(graph_id)

            # record exact GEDs between the family's queries and its database members
            for query_member in query_members:
                query_key = family.members[query_member].name
                for member_index, graph_id in enumerate(member_ids):
                    if graph_id < 0:
                        continue
                    ground_truth.record(query_key, graph_id, family.ged(query_member, member_index))

    return Dataset(
        name=name,
        database_graphs=database_graphs,
        query_graphs=query_graphs,
        ground_truth=ground_truth,
        scale_free=scale_free,
        description=(
            "Appendix-I style synthetic graphs with exactly known pairwise GEDs; "
            f"sizes={list(sizes)}, {families_per_size} families per size"
        ),
        metadata={"sizes": list(sizes), "family_size": family_size, "max_distance": max_distance},
    )


def make_syn1(
    *,
    sizes: Sequence[int] = (100, 200, 500, 1000, 2000),
    families_per_size: int = 2,
    family_size: int = 12,
    queries_per_size: int = 2,
    max_distance: int = 10,
    seed: int = 17,
) -> Dataset:
    """Build the Syn-1 dataset (scale-free graphs, known GEDs).

    The paper's Syn-1 uses sizes from 1K to 100K vertices; the defaults here
    are laptop-scale but the knob is exposed so the full-size experiment can
    be regenerated on bigger hardware.
    """
    return _build_synthetic_dataset(
        "Syn-1",
        scale_free=True,
        sizes=sizes,
        families_per_size=families_per_size,
        family_size=family_size,
        queries_per_size=queries_per_size,
        max_distance=max_distance,
        seed=seed,
    )


def make_syn2(
    *,
    sizes: Sequence[int] = (100, 200, 500, 1000, 2000),
    families_per_size: int = 2,
    family_size: int = 12,
    queries_per_size: int = 2,
    max_distance: int = 10,
    seed: int = 23,
) -> Dataset:
    """Build the Syn-2 dataset (uniform random graphs, known GEDs)."""
    return _build_synthetic_dataset(
        "Syn-2",
        scale_free=False,
        sizes=sizes,
        families_per_size=families_per_size,
        family_size=family_size,
        queries_per_size=queries_per_size,
        max_distance=max_distance,
        seed=seed,
    )


register_dataset("syn-1", make_syn1)
register_dataset("syn1", make_syn1)
register_dataset("syn-2", make_syn2)
register_dataset("syn2", make_syn2)
