"""Graph Branch Distance (Definition 4) and its weighted variant (Equation 26).

``GBD(G1, G2) = max(|V1|, |V2|) - |B_G1 ∩ B_G2|`` where the intersection is a
multiset intersection over isomorphic branches.  The variant distance VGBD
used by the GBDA-V2 ablation replaces the intersection size with
``w * |B_G1 ∩ B_G2|`` for a user-chosen weight ``w``.

Both distances run in ``O(nd)`` time: branch extraction visits each incident
edge of each vertex once, and the multiset intersection is a counting merge.
The functions also accept pre-computed branch multisets so the graph
database can amortise branch extraction across many queries, matching the
paper's assumption that "all auxiliary data structures ... are pre-computed
and stored with graphs".
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Union

import numpy as np

from repro.graphs.graph import Graph
from repro.core.branches import branch_multiset


def branch_intersection_size(counter_a: Counter, counter_b: Counter) -> int:
    """Return the size of the multiset intersection of two branch multisets."""
    if len(counter_b) < len(counter_a):
        counter_a, counter_b = counter_b, counter_a
    return sum(min(count, counter_b[key]) for key, count in counter_a.items() if key in counter_b)


def graph_branch_distance(
    g1: Graph,
    g2: Graph,
    *,
    branches1: Optional[Counter] = None,
    branches2: Optional[Counter] = None,
) -> int:
    """Compute ``GBD(G1, G2)`` per Definition 4.

    Parameters
    ----------
    g1, g2:
        The two graphs to compare.
    branches1, branches2:
        Optional pre-computed branch multisets (as returned by
        :func:`repro.core.branches.branch_multiset`).  Passing them skips
        branch extraction, which is how the database layer amortises the
        offline cost across queries.
    """
    counter_a = branch_multiset(g1) if branches1 is None else branches1
    counter_b = branch_multiset(g2) if branches2 is None else branches2
    intersection = branch_intersection_size(counter_a, counter_b)
    return max(g1.num_vertices, g2.num_vertices) - intersection


def variant_graph_branch_distance(
    g1: Graph,
    g2: Graph,
    weight: float,
    *,
    branches1: Optional[Counter] = None,
    branches2: Optional[Counter] = None,
) -> float:
    """Compute the weighted variant ``VGBD`` of Equation (26).

    ``VGBD(G1, G2) = max(|V1|, |V2|) - w * |B_G1 ∩ B_G2|`` — used only by the
    GBDA-V2 ablation of Section VII-D.
    """
    if weight < 0:
        raise ValueError("VGBD weight must be non-negative")
    counter_a = branch_multiset(g1) if branches1 is None else branches1
    counter_b = branch_multiset(g2) if branches2 is None else branches2
    intersection = branch_intersection_size(counter_a, counter_b)
    return max(g1.num_vertices, g2.num_vertices) - weight * intersection


def ged_lower_bound(gbd_value: Union[int, np.ndarray]) -> Union[int, np.ndarray]:
    """The branch bound ``GED >= ceil(GBD / 2)``, for scalars or whole arrays.

    A single edit operation changes at most two branches (it relabels one
    vertex, or touches one edge and hence its two endpoints' branches), so
    ``GBD <= 2 * GED``.  This is the single source of truth for the bound
    math shared by the pairwise branch filter
    (:func:`repro.baselines.branch_filter.branch_lower_bound`) and the
    vectorized pruned execution paths.
    """
    if isinstance(gbd_value, np.ndarray):
        return (gbd_value + 1) // 2
    return (int(gbd_value) + 1) // 2


def max_gbd_for_ged(tau: int) -> int:
    """Largest GBD compatible with ``GED <= τ``: the contrapositive of the bound.

    ``GBD > 2 τ`` certifies ``GED > τ`` (see :func:`ged_lower_bound`), so a
    similarity search with threshold ``τ̂`` may discard any graph whose GBD
    — or whose GBD *lower bound* — exceeds ``2 τ̂`` without scoring it.
    """
    return 2 * int(tau)
