"""Inverted branch index over a graph database.

The index maps each canonical branch key to the list of (graph id, count)
pairs containing it.  Storage is delegated to a CSR-style
:class:`~repro.db.columnar.ColumnarBranchStore` (branch-key vocabulary plus
contiguous ``offsets``/``positions``/``counts`` arrays with an append
buffer), so the operations used by the search and serving layers are all
vectorized:

* fast computation of ``|B_Q ∩ B_G|`` for *all* database graphs at once
  (one gather over the query's CSR segments plus a ``bincount`` scatter-add
  instead of one merge per graph),
* a dense vectorized variant (:meth:`gbd_array`) returning the GBD of the
  query against every database graph as a numpy array — one query at a
  time: a batch is a loop over its rows, there is no ``(Q, D)`` form — and
* a branch-count lower bound on GED (the filter of Zheng et al. [15]) that
  can optionally pre-prune candidates before the probabilistic scoring —
  this is the "index pruning" ablation of the benchmark suite.

The index subscribes to the database's incremental hook
(:meth:`~repro.db.database.GraphDatabase.subscribe`), so graphs added to the
database *after* construction are reflected in the postings automatically —
previously the index silently served stale, incomplete candidate sets.
Additions land in the store's append buffer and are folded in by a single
compaction on the next read, so bulk loads stay cheap.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.branches import branch_multiset
from repro.core.gbd import max_gbd_for_ged
from repro.db.columnar import ColumnarBranchStore
from repro.db.database import GraphDatabase, StoredGraph
from repro.graphs.graph import Graph

__all__ = ["BranchInvertedIndex"]


class BranchInvertedIndex:
    """Inverted index from branch keys to the graphs containing them."""

    def __init__(self, database: GraphDatabase, *, backend: str = "auto") -> None:
        self.database = database
        self._store = ColumnarBranchStore(database, backend=backend)
        database.subscribe(self._on_graph_added, batched=True)

    def _on_graph_added(self, entries: Sequence[StoredGraph]) -> None:
        """Incremental hook: buffer the new entries' postings in the store.

        Batched, so a bulk ``add_many`` takes the store's compaction lock
        once, not once per graph.
        """
        self._store.extend(entries)

    def __setstate__(self, state):
        # The database drops its (weakly held) subscribers when pickled;
        # re-register so an unpickled index keeps tracking additions.
        self.__dict__.update(state)
        self.database.subscribe(self._on_graph_added, batched=True)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> ColumnarBranchStore:
        """The columnar postings store backing this index."""
        return self._store

    @property
    def num_distinct_branches(self) -> int:
        """Number of distinct branch keys present in the database."""
        return self._store.num_keys

    @property
    def num_indexed_graphs(self) -> int:
        """Number of database graphs covered by the postings."""
        return self._store.num_graphs

    def postings(self, branch_key: Tuple) -> List[Tuple[int, int]]:
        """Return the ``(graph_id, count)`` postings list of one branch key."""
        return self._store.postings(branch_key)

    def intersection_sizes(
        self, query: Graph, *, query_branches: Optional[Counter] = None
    ) -> Dict[int, int]:
        """Return ``{graph_id: |B_Q ∩ B_G|}`` for every database graph.

        Graphs sharing no branch with the query are omitted (their
        intersection size is zero).
        """
        branches_q = branch_multiset(query) if query_branches is None else query_branches
        row = self._store.intersection_row(branches_q)
        global_ids = self._store.global_ids()
        nonzero = np.flatnonzero(row)
        return {int(global_ids[position]): int(row[position]) for position in nonzero}

    def gbd_all(self, query: Graph, *, query_branches: Optional[Counter] = None) -> Dict[int, int]:
        """Return ``{graph_id: GBD(Q, G)}`` for every database graph via the index."""
        branches_q = branch_multiset(query) if query_branches is None else query_branches
        gbds = self._store.gbd_row(query.num_vertices, branches_q)
        global_ids = self._store.global_ids()
        return {int(graph_id): int(gbd) for graph_id, gbd in zip(global_ids, gbds)}

    def gbd_array(self, query: Graph, *, query_branches: Optional[Counter] = None) -> np.ndarray:
        """Return ``GBD(Q, G)`` for every database graph as a dense numpy array.

        The array is indexed by arrival — the order graphs were added in,
        which is graph id for a plain :class:`GraphDatabase` (ids are assigned
        contiguously by :meth:`GraphDatabase.add`; shard views map arrival
        rows to global ids via ``store.global_ids()``).  The store keeps its
        rows clustered by ``|V_G|`` and gathers this row back into arrival
        order at its boundary.  This is the vectorized form of
        :meth:`gbd_all`: one walk of the query's CSR segments produces all
        intersection sizes, then a single numpy subtraction yields every GBD
        at once.
        """
        branches_q = branch_multiset(query) if query_branches is None else query_branches
        return self._store.gbd_row(query.num_vertices, branches_q)

    def candidates_by_gbd_bound(
        self,
        query: Graph,
        tau_hat: int,
        *,
        query_branches: Optional[Counter] = None,
    ) -> List[int]:
        """Prune graphs using the branch lower bound ``GED >= GBD / 2``.

        One edit operation changes at most two branches, so any graph with
        ``GBD(Q, G) > 2 τ̂`` cannot satisfy ``GED(Q, G) <= τ̂``.  Returns the
        ids of the surviving candidates.  This is the structural filter of
        Zheng et al. [15] expressed in terms of GBD; it is optional for GBDA
        (the probabilistic score already drives acceptance) but gives the
        ablation benchmark its pruning variant.
        """
        branches_q = branch_multiset(query) if query_branches is None else query_branches
        gbds = self._store.gbd_row(query.num_vertices, branches_q)
        global_ids = self._store.global_ids()
        survivors = np.flatnonzero(gbds <= max_gbd_for_ged(tau_hat))
        return [int(global_ids[position]) for position in survivors]

    def gbd_lower_bound_array(
        self, query: Graph, *, query_branches: Optional[Counter] = None
    ) -> np.ndarray:
        """Vectorized GBD lower bound for every database graph, by arrival like :meth:`gbd_array`.

        Entry-wise ``<= gbd_array(query)`` always; computed from per-graph
        norms only (O(1) per graph, no postings traversal) — see
        :meth:`ColumnarBranchStore.gbd_lower_bound_row`.
        """
        branches_q = branch_multiset(query) if query_branches is None else query_branches
        return self._store.gbd_lower_bound_row(query.num_vertices, branches_q)

    def __repr__(self) -> str:
        return (
            f"<BranchInvertedIndex graphs={len(self.database)} "
            f"branches={self.num_distinct_branches}>"
        )
