"""Feeding a columnar store branch multisets, and reading its rows by graph id, for tests.

The store takes one branch key per vertex (``ColumnarBranchStore.extend(keys,
sizes)``, what ``repro.core.branches.branch_keys`` returns for a batch of
graphs).  A test that holds its rows as ``Counter`` multisets — fake rows with
no graph behind them, or ``branch_multiset`` of a graph — expands them into
that stream through :func:`vertex_stream` (or builds a whole store with
:func:`store_of`).

The store speaks positions only: its rows are laid out by ``|V_G|``.  A test
that holds a row to per-graph truth (``graph_branch_distance``,
``database.gbd_to``) re-indexes it by the ``global_ids`` of the same snapshot,
and reads one key's postings by graph id through :func:`key_postings`.
"""

from __future__ import annotations

import numpy as np

from repro.db.columnar import ColumnarBranchStore


def vertex_stream(multisets):
    """``(keys, sizes)`` for ``ColumnarBranchStore.extend``: each multiset's keys, each
    repeated by its count in the multiset's own order, and each multiset's size.

    The keys meet the vocabulary in the order the multisets list them, so the
    store learns the ids a row-by-row feed of the same multisets would.
    """
    multisets = list(multisets)
    keys = [key for multiset in multisets for key, count in multiset.items() for _ in range(count)]
    return keys, [sum(multiset.values()) for multiset in multisets]


def store_of(multisets, *, backend="auto") -> ColumnarBranchStore:
    """A store holding one row per multiset, in order (row ``i`` is ``multisets[i]``)."""
    store = ColumnarBranchStore(backend=backend)
    store.extend(*vertex_stream(multisets))
    return store


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
