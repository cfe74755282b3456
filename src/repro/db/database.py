"""Graph database storage: the graphs, and the one columnar store of their branches.

:class:`GraphDatabase` is the container every search method in this
repository operates on.  It owns the corpus once:

* one :class:`StoredGraph` per graph — the :class:`~repro.graphs.graph.Graph`
  itself, its id and ``|V|``;
* :attr:`GraphDatabase.store`, the :class:`~repro.db.columnar.ColumnarBranchStore`
  of every graph's branch multiset (Definition 2), row ``i`` graph ``i``:
  the postings the online stage reads and the rows the offline stage's pair
  GBDs are computed from.  No per-graph multiset is kept anywhere else.

The database also tracks the union label alphabets ``LV``/``LE`` (needed by
the branch-type count ``D`` of the probabilistic model).  :meth:`GraphDatabase.gbd_to`
and :meth:`GraphDatabase.vgbd_to` are the scalar reference: they extract
both multisets from the graphs and share nothing with the store.

Writes: one writer at a time.  :meth:`GraphDatabase.add_many` extracts a
batch as one branch key per vertex (:func:`~repro.core.branches.branch_keys`;
no per-graph ``Counter``, and the alphabets come from the batch's distinct
keys) and appends it to the store, which counts the postings in one NumPy
pass and appends the entries (what moves :attr:`GraphDatabase.revision`)
under the lock its compaction takes.  A
reader that sees a revision (and keys a cached answer with it) finds at
least that many rows in the store, and every row a read computes against is
a graph the database already lists.  Reads may run concurrently with the
writer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from repro.core.branches import branch_keys
from repro.core.gbd import graph_branch_distance, variant_graph_branch_distance
from repro.db.columnar import ColumnarBranchStore
from repro.exceptions import DatasetError
from repro.graphs.graph import Graph

__all__ = ["GraphDatabase", "StoredGraph"]


@dataclass(frozen=True)
class StoredGraph:
    """A database entry: the graph, its id and its vertex count."""

    graph_id: int
    graph: Graph
    num_vertices: int

    @property
    def name(self) -> str:
        """Name of the underlying graph (falls back to the numeric id)."""
        return self.graph.name or f"g{self.graph_id}"


class GraphDatabase:
    """An in-memory collection of labeled graphs and their columnar branch store.

    Parameters
    ----------
    graphs:
        Initial graphs to add.
    name:
        Optional database name (used in reports).
    kernel_backend:
        Kernel backend of :attr:`store` (``"auto"`` — the compiled backend
        when buildable, numpy otherwise — ``"numpy"`` or ``"native"``, a hard
        error when unbuildable; see :mod:`repro.db.kernels`).  Answers are
        bit-identical across backends.
    """

    def __init__(
        self,
        graphs: Optional[Iterable[Graph]] = None,
        *,
        name: str = "database",
        kernel_backend: str = "auto",
    ) -> None:
        self.name = name
        #: The configured kernel backend (``store.backend`` is the resolved one).
        self.kernel_backend = str(kernel_backend)
        #: The branch multisets of every stored graph, row ``i`` graph ``i``.
        self.store = ColumnarBranchStore(backend=self.kernel_backend)
        self._entries: List[StoredGraph] = []
        self._vertex_labels: set = set()
        self._edge_labels: set = set()
        if graphs is not None:
            self.add_many(graphs)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add(self, graph: Graph) -> int:
        """Add a graph; return its id."""
        return self.add_many((graph,))[0]

    def add_many(self, graphs: Iterable[Graph]) -> List[int]:
        """Add several graphs; return their ids.

        All or nothing: every branch key of the batch is extracted before the
        store takes any, so a bad item (a non-:class:`Graph` is a
        :class:`DatasetError` naming its position) leaves the length, revision,
        alphabets and the store exactly as they were.  The alphabets grow
        first, from the batch's distinct branch keys (each holds ``L(v)`` and
        the labels of the edges at ``v``, and every edge has two ends); the
        store then takes the batch as one append of one key per vertex (a bulk
        load of ``k`` graphs costs one compaction, not ``k``) and, under the
        same lock, the entries go in, moving :attr:`revision`.
        """
        graphs = list(graphs)
        for position, graph in enumerate(graphs):
            if not isinstance(graph, Graph):
                raise DatasetError(f"add_many: item {position} is not a Graph; nothing was added")
        keys = branch_keys(graphs)
        first = len(self._entries)
        entries = [
            StoredGraph(first + offset, graph, graph.num_vertices)
            for offset, graph in enumerate(graphs)
        ]
        distinct = set(keys)
        self._vertex_labels.update(map(itemgetter(0), distinct))
        self._edge_labels.update(chain.from_iterable(map(itemgetter(1), distinct)))
        self.store.extend(
            keys,
            [entry.num_vertices for entry in entries],
            commit=lambda: self._entries.extend(entries),
        )
        return list(range(first, first + len(graphs)))

    @property
    def revision(self) -> int:
        """Monotonic mutation counter: the number of graphs added so far.

        Derived artifacts (fitted priors, cached answers, serving snapshots)
        record the revision they were built against, so staleness is
        detectable without comparing graph contents; the graphs added since
        revision ``r`` are ``database[r:]``.
        """
        return len(self._entries)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[StoredGraph]:
        return iter(self._entries)

    def __getitem__(self, graph_id: Union[int, slice]) -> Union[StoredGraph, List[StoredGraph]]:
        try:
            return self._entries[graph_id]
        except IndexError as exc:
            raise DatasetError(f"graph id {graph_id} is out of range") from exc

    def graphs(self) -> List[Graph]:
        """Return the stored graphs (in id order)."""
        return [entry.graph for entry in self._entries]

    def entries(self) -> Sequence[StoredGraph]:
        """Return the stored entries (in id order)."""
        return list(self._entries)

    # ------------------------------------------------------------------ #
    # label alphabets and statistics
    # ------------------------------------------------------------------ #
    @property
    def num_vertex_labels(self) -> int:
        """Size of the union vertex-label alphabet ``|LV|``."""
        return max(len(self._vertex_labels), 1)

    @property
    def num_edge_labels(self) -> int:
        """Size of the union edge-label alphabet ``|LE|``."""
        return max(len(self._edge_labels), 1)

    @property
    def max_vertices(self) -> int:
        """Largest ``|V|`` among the stored graphs (0 for an empty database)."""
        return max((entry.num_vertices for entry in self._entries), default=0)

    # ------------------------------------------------------------------ #
    # distances against a query graph
    # ------------------------------------------------------------------ #
    def gbd_to(self, query: Graph, graph_id: int, *, query_branches: Optional[Counter] = None) -> int:
        """GBD between ``query`` and the stored graph ``graph_id``, both multisets extracted here."""
        return graph_branch_distance(query, self[graph_id].graph, branches1=query_branches)

    def vgbd_to(
        self,
        query: Graph,
        graph_id: int,
        weight: float,
        *,
        query_branches: Optional[Counter] = None,
    ) -> float:
        """Variant GBD (Equation 26) between ``query`` and a stored graph."""
        return variant_graph_branch_distance(
            query, self[graph_id].graph, weight, branches1=query_branches
        )

    def __repr__(self) -> str:
        return f"<GraphDatabase {self.name!r} |D|={len(self)}>"
