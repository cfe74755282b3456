"""Graph database storage: graphs plus pre-computed branch multisets.

:class:`GraphDatabase` is the container every search method in this
repository operates on.  Each stored graph keeps:

* the :class:`~repro.graphs.graph.Graph` itself,
* its branch multiset (Definition 2) for ``O(nd)`` GBD computation,
* its vertex/edge counts for the extended-order computation.

The database also tracks the union label alphabets ``LV``/``LE`` (needed by
the branch-type count ``D`` of the probabilistic model) and exposes the
GBD between a query graph and any member in ``O(nd)`` using the cached
branch multisets.
"""

from __future__ import annotations

import inspect
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.branches import branch_multiset
from repro.core.gbd import graph_branch_distance, variant_graph_branch_distance
from repro.exceptions import DatasetError
from repro.graphs.graph import Graph, union_label_alphabets

__all__ = ["GraphDatabase", "StoredGraph"]


@dataclass(frozen=True)
class StoredGraph:
    """A database entry: the graph and its pre-computed auxiliary structures."""

    graph_id: int
    graph: Graph
    branches: Counter
    num_vertices: int
    num_edges: int

    @property
    def name(self) -> str:
        """Name of the underlying graph (falls back to the numeric id)."""
        return self.graph.name or f"g{self.graph_id}"


class GraphDatabase:
    """An in-memory collection of labeled graphs with pre-computed branches.

    Parameters
    ----------
    graphs:
        Initial graphs to add.
    name:
        Optional database name (used in reports).
    """

    def __init__(self, graphs: Optional[Iterable[Graph]] = None, *, name: str = "database") -> None:
        self.name = name
        self._entries: List[StoredGraph] = []
        self._vertex_labels: set = set()
        self._edge_labels: set = set()
        # Each subscriber is a (callback-or-WeakMethod, batched) pair.
        self._subscribers: List = []
        self._revision = 0
        if graphs is not None:
            self.add_many(graphs)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def _commit(self, graphs: Sequence[Graph], multisets: Sequence[Counter]) -> List[int]:
        """Append one entry per graph, tell the subscribers once, then bump the revision.

        The revision moves last: a reader that sees the new revision (and
        keys a cached answer with it) also sees what the subscribers did —
        the branch store holds the new rows, the engine's cache was cleared.
        Bumped the other way round, a read overlapping the write could cache
        an answer over the old rows under the new revision.
        """
        first = len(self._entries)
        entries = [
            StoredGraph(first + offset, graph, branches, graph.num_vertices, graph.num_edges)
            for offset, (graph, branches) in enumerate(zip(graphs, multisets))
        ]
        self._entries += entries
        for graph in graphs:
            self._vertex_labels |= graph.vertex_label_set()
            self._edge_labels |= graph.edge_label_set()
        try:
            if entries:
                self._notify(entries)
        finally:
            self._revision += len(entries)
        return list(range(first, first + len(entries)))

    def add(self, graph: Graph, *, branches: Optional[Counter] = None) -> int:
        """Add a graph; pre-compute its branch multiset; return its id.

        ``branches`` optionally supplies a pre-computed branch multiset (the
        snapshot loader uses this to skip re-extraction); it must equal
        ``branch_multiset(graph)`` or GBD computations will be wrong.

        Every registered :meth:`subscribe` callback is notified with the new
        :class:`StoredGraph` so derived structures (e.g. the columnar branch
        store) stay consistent with incremental additions.
        """
        branches = branch_multiset(graph) if branches is None else branches
        return self._commit((graph,), (branches,))[0]

    def add_many(self, graphs: Iterable[Graph]) -> List[int]:
        """Add several graphs with a single round of notifications; return their ids.

        All or nothing: every branch multiset of the batch is extracted before
        the first entry is appended, so a bad item (a non-:class:`Graph` is a
        :class:`DatasetError` naming its position) leaves the length, revision,
        alphabets and every subscriber exactly as they were.

        Per-entry subscribers still see every graph, but subscribers
        registered with ``subscribe(..., batched=True)`` receive the whole
        batch in one call — so bulk loads trigger one cache invalidation /
        one derived-structure refresh instead of one per graph.  Combined
        with the columnar store's append buffer this makes ``extend`` of
        ``k`` graphs cost one compaction, not ``k`` dense rebuilds.
        """
        graphs = list(graphs)
        for position, graph in enumerate(graphs):
            if not isinstance(graph, Graph):
                raise DatasetError(f"add_many: item {position} is not a Graph; nothing was added")
        return self._commit(graphs, list(map(branch_multiset, graphs)))

    @property
    def revision(self) -> int:
        """Monotonic mutation counter: increments once per added graph.

        Derived artifacts (fitted priors, serving snapshots) record the
        revision they were built against, so staleness is detectable
        without comparing graph contents.
        """
        return self._revision

    def subscribe(
        self, callback: Callable, *, batched: bool = False
    ) -> None:
        """Register ``callback`` to be invoked with newly added entries.

        This is the incremental hook that keeps auxiliary structures (the
        execution core's :class:`~repro.db.columnar.ColumnarBranchStore`,
        serving engines' result caches) from silently serving stale state
        when graphs are added after they were built.  Callbacks run in
        registration order, before :attr:`revision` moves.

        With ``batched=False`` (default) the callback receives one
        :class:`StoredGraph` per added graph.  With ``batched=True`` it
        receives the *list* of entries of each mutation — one call per
        :meth:`add`, and one call total per :meth:`add_many`/:meth:`extend`
        bulk load, which is what lets derived structures compact once.

        Bound methods are held through weak references, so a store or
        engine that is otherwise dropped does not stay alive (and keep being
        notified) just because it subscribed here; plain functions and other
        callables are held strongly — pair them with :meth:`unsubscribe`.
        """
        if inspect.ismethod(callback):
            self._subscribers.append((weakref.WeakMethod(callback), batched))
        else:
            self._subscribers.append((callback, batched))

    def unsubscribe(self, callback: Callable) -> None:
        """Remove a previously registered callback (no-op when absent)."""
        for subscriber in list(self._subscribers):
            held, _batched = subscriber
            resolved = held() if isinstance(held, weakref.WeakMethod) else held
            if resolved is None or resolved == callback:
                self._subscribers.remove(subscriber)

    def _notify(self, entries: Sequence[StoredGraph]) -> None:
        """Invoke live subscribers; prune the ones whose owners were collected."""
        dead = []
        for subscriber in list(self._subscribers):
            held, batched = subscriber
            if isinstance(held, weakref.WeakMethod):
                callback = held()
                if callback is None:
                    dead.append(subscriber)
                    continue
            else:
                callback = held
            if batched:
                callback(list(entries))
            else:
                for entry in entries:
                    callback(entry)
        for subscriber in dead:
            self._subscribers.remove(subscriber)

    # ------------------------------------------------------------------ #
    # pickling: weak references are not picklable; subscribers re-register
    # themselves (see ExecutionCore / BatchQueryEngine __setstate__)
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_subscribers"] = []
        return state

    def extend(self, graphs: Iterable[Graph]) -> List[int]:
        """Add several graphs and return their ids (one notification round)."""
        return self.add_many(graphs)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[StoredGraph]:
        return iter(self._entries)

    def __getitem__(self, graph_id: int) -> StoredGraph:
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

    @property
    def average_degree(self) -> float:
        """Average degree across all stored graphs."""
        total_vertices = sum(entry.num_vertices for entry in self._entries)
        total_edges = sum(entry.num_edges for entry in self._entries)
        if total_vertices == 0:
            return 0.0
        return 2.0 * total_edges / total_vertices

    def label_alphabets(self):
        """Return ``(LV, LE)`` as frozensets (recomputed from the graphs)."""
        return union_label_alphabets(self.graphs())

    # ------------------------------------------------------------------ #
    # distances against a query graph
    # ------------------------------------------------------------------ #
    def gbd_to(self, query: Graph, graph_id: int, *, query_branches: Optional[Counter] = None) -> int:
        """GBD between ``query`` and the stored graph ``graph_id`` (cached branches)."""
        entry = self[graph_id]
        branches_q = branch_multiset(query) if query_branches is None else query_branches
        return graph_branch_distance(
            query, entry.graph, branches1=branches_q, branches2=entry.branches
        )

    def vgbd_to(
        self,
        query: Graph,
        graph_id: int,
        weight: float,
        *,
        query_branches: Optional[Counter] = None,
    ) -> float:
        """Variant GBD (Equation 26) between ``query`` and a stored graph."""
        entry = self[graph_id]
        branches_q = branch_multiset(query) if query_branches is None else query_branches
        return variant_graph_branch_distance(
            query, entry.graph, weight, branches1=branches_q, branches2=entry.branches
        )

    def distinct_extended_orders(self, query: Graph) -> Dict[int, List[int]]:
        """Group stored graph ids by the extended order they induce with ``query``.

        The online stage of GBDA re-uses the Λ1 model across all graphs with
        the same ``max(|V_Q|, |V_G|)``; this helper exposes that grouping.
        """
        groups: Dict[int, List[int]] = {}
        for entry in self._entries:
            order = max(query.num_vertices, entry.num_vertices)
            groups.setdefault(order, []).append(entry.graph_id)
        return groups

    def __repr__(self) -> str:
        return f"<GraphDatabase {self.name!r} |D|={len(self)}>"
