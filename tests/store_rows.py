"""Reading a columnar store's rows by graph id, for tests.

The store speaks positions only: its rows are laid out by ``|V_G|``.  A test
that holds a row to per-graph truth (``graph_branch_distance``,
``database.gbd_to``) re-indexes it by the ``global_ids`` of the same snapshot,
and reads one key's postings by graph id through :func:`key_postings`.
"""

from __future__ import annotations

import numpy as np


def by_graph_id(store, row: np.ndarray) -> np.ndarray:
    """``row`` (by position, over ``store``'s current snapshot) in ascending graph id.

    For a plain :class:`~repro.db.database.GraphDatabase` entry ``i`` is then
    the row of graph ``i``.
    """
    global_ids = store.view()[2]
    assert len(row) == len(global_ids)
    return row[np.argsort(global_ids, kind="stable")]


def key_postings(store, branch_key) -> list:
    """The ``(graph id, count)`` postings of one branch key in the current snapshot, by graph id."""
    (offsets, positions, counts, _rows), _orders, global_ids = store.view()
    key_id = store._key_ids.get(branch_key)
    if key_id is None or key_id >= len(offsets) - 1:
        return []
    start, end = offsets[key_id], offsets[key_id + 1]
    return sorted(zip(global_ids[positions[start:end]].tolist(), counts[start:end].tolist()))
