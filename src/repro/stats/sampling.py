"""Sampling utilities for the offline prior-estimation stage.

Section V-B samples ``α%`` of graph pairs from the database (``N = 100 000``
pairs in the experiments) and computes the GBD of each pair to fit the prior.
These helpers draw reproducible pair samples without materialising the full
quadratic pair set.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple, TypeVar, Union

T = TypeVar("T")
RandomState = Union[int, random.Random, None]

__all__ = [
    "RandomState",
    "as_rng",
    "sample_pairs",
    "sample_items",
    "encode_rng_state",
    "decode_rng_state",
]


def as_rng(seed: RandomState) -> random.Random:
    """``seed`` itself when it is a ``random.Random``, else a new one seeded with it."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def encode_rng_state(rng: random.Random) -> list:
    """Encode ``rng.getstate()`` as nested plain lists (pickle/JSON friendly).

    The offline priors round-trip their random streams through snapshot
    state dicts with this encoding so that refitting a reloaded prior
    consumes exactly the same stream as refitting the original instance.
    """
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def decode_rng_state(state: Sequence) -> random.Random:
    """Rebuild a ``random.Random`` from :func:`encode_rng_state` output."""
    rng = random.Random()
    version, internal, gauss_next = state
    rng.setstate((int(version), tuple(int(v) for v in internal), gauss_next))
    return rng


def sample_items(items: Sequence[T], count: int, *, seed: RandomState = None) -> List[T]:
    """Sample ``count`` items without replacement (all items when count >= len)."""
    if count >= len(items):
        return list(items)
    rng = as_rng(seed)
    return rng.sample(list(items), count)


def sample_pairs(
    items: Sequence[T],
    num_pairs: int,
    *,
    seed: RandomState = None,
    distinct: bool = True,
) -> List[Tuple[T, T]]:
    """Sample ``num_pairs`` unordered pairs of items uniformly at random.

    Parameters
    ----------
    items:
        The population (e.g. the graphs of the database).
    num_pairs:
        Number of pairs to draw.  When the population admits fewer distinct
        pairs than requested and ``distinct`` is true, all distinct pairs are
        returned instead.
    distinct:
        When true, the two elements of each pair are different items and no
        pair is repeated; when false, pairs are drawn independently with
        replacement (faster for very large populations).
    """
    population = list(items)
    n = len(population)
    if n < 2:
        return []
    rng = as_rng(seed)

    if not distinct:
        pairs = []
        for _ in range(num_pairs):
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            pairs.append((population[i], population[j]))
        return pairs

    total_pairs = n * (n - 1) // 2
    if num_pairs >= total_pairs:
        return [
            (population[i], population[j])
            for i in range(n)
            for j in range(i + 1, n)
        ]

    chosen_indices = rng.sample(range(total_pairs), num_pairs)
    pairs = []
    for flat_index in chosen_indices:
        i, j = _unrank_pair(flat_index, n)
        pairs.append((population[i], population[j]))
    return pairs


def _unrank_pair(flat_index: int, n: int) -> Tuple[int, int]:
    """Map a flat index in ``[0, C(n, 2))`` to the lexicographic pair ``(i, j)``.

    Pairs are ordered ``(0,1), (0,2), ..., (0,n-1), (1,2), ...``.  Counted
    from the last pair, row ``i`` holds the triangular range of indices
    ``[k(k+1)/2, (k+1)(k+2)/2)`` with ``k = n - 2 - i``, so the row is one
    integer square root away and sampling stays ``O(num_pairs)`` regardless
    of the population size (exact integer arithmetic at any ``n``).
    """
    total_pairs = n * (n - 1) // 2
    if not 0 <= flat_index < total_pairs:
        raise ValueError(f"flat index {flat_index} out of range for population of size {n}")
    from_end = total_pairs - 1 - flat_index
    i = n - 2 - (math.isqrt(8 * from_end + 1) - 1) // 2
    return i, flat_index - i * (2 * n - i - 1) // 2 + i + 1
