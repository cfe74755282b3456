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

__all__ = ["GraphDatabase", "GraphDatabaseShard", "StoredGraph"]


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
        """Append one entry per graph, then tell the subscribers once."""
        first = len(self._entries)
        entries = [
            StoredGraph(first + offset, graph, branches, graph.num_vertices, graph.num_edges)
            for offset, (graph, branches) in enumerate(zip(graphs, multisets))
        ]
        self._entries += entries
        for graph in graphs:
            self._vertex_labels |= graph.vertex_label_set()
            self._edge_labels |= graph.edge_label_set()
        self._revision += len(entries)
        if entries:
            self._notify(entries)
        return list(range(first, first + len(entries)))

    def add(self, graph: Graph, *, branches: Optional[Counter] = None) -> int:
        """Add a graph; pre-compute its branch multiset; return its id.

        ``branches`` optionally supplies a pre-computed branch multiset (the
        snapshot loader uses this to skip re-extraction); it must equal
        ``branch_multiset(graph)`` or GBD computations will be wrong.

        Every registered :meth:`subscribe` callback is notified with the new
        :class:`StoredGraph` so derived structures (e.g. the branch inverted
        index) stay consistent with incremental additions.
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
        with the columnar index's append buffer this makes ``extend`` of
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
        :class:`~repro.db.index.BranchInvertedIndex`, serving engines) from
        silently serving stale state when graphs are added after they were
        built.

        With ``batched=False`` (default) the callback receives one
        :class:`StoredGraph` per added graph.  With ``batched=True`` it
        receives the *list* of entries of each mutation — one call per
        :meth:`add`, and one call total per :meth:`add_many`/:meth:`extend`
        bulk load, which is what lets derived structures compact once.

        Bound methods are held through weak references, so an index or
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
    # themselves (see BranchInvertedIndex / BatchQueryEngine __setstate__)
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_subscribers"] = []
        return state

    def extend(self, graphs: Iterable[Graph]) -> List[int]:
        """Add several graphs and return their ids (one notification round)."""
        return self.add_many(graphs)

    # ------------------------------------------------------------------ #
    # sharding
    # ------------------------------------------------------------------ #
    def shard(self, num_shards: int) -> List["GraphDatabaseShard"]:
        """Partition the database into id-preserving, read-only shard views.

        Entries are split into ``min(num_shards, len(self))`` contiguous
        blocks; each view exposes the usual read API but keeps the *global*
        graph ids, so per-shard query answers (accepted ids, score dicts)
        can be merged by simple union — the basis of shard-parallel scoring
        and of the serving executor's ``"data-parallel"`` mode.

        The views are snapshots: graphs added to the parent afterwards are
        not reflected (re-shard to pick them up), and the views themselves
        reject mutation.
        """
        if num_shards < 1:
            raise DatasetError("the number of shards must be at least 1")
        if len(self._entries) == 0:
            raise DatasetError("cannot shard an empty database")
        count = min(int(num_shards), len(self._entries))
        shards = []
        for shard_index in range(count):
            low = (len(self._entries) * shard_index) // count
            high = (len(self._entries) * (shard_index + 1)) // count
            shards.append(
                GraphDatabaseShard(self, self._entries[low:high], shard_index, count)
            )
        return shards

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


class GraphDatabaseShard(GraphDatabase):
    """A read-only, id-preserving view over a contiguous slice of a database.

    Produced by :meth:`GraphDatabase.shard`.  The view shares the parent's
    :class:`StoredGraph` entries (no graph copies) and keeps their global
    ids, so anything computed against a shard — GBDs, posterior scores,
    accepted sets — speaks the same id space as the full database and can be
    merged with the other shards' results by plain union.

    ``__getitem__`` therefore indexes by *global* graph id (restricted to
    the ids present in this shard), and mutation is rejected: a shard is a
    snapshot taken at :meth:`~GraphDatabase.shard` time.
    """

    def __init__(
        self,
        parent: GraphDatabase,
        entries: Sequence[StoredGraph],
        shard_index: int,
        num_shards: int,
    ) -> None:
        self.name = f"{parent.name}#{shard_index}/{num_shards}"
        self._entries = list(entries)
        # Share the parent's label alphabets: the probabilistic model's D
        # depends on the *database* alphabets, not the shard's subset.
        self._vertex_labels = set(parent._vertex_labels)
        self._edge_labels = set(parent._edge_labels)
        self._subscribers: List = []
        self._revision = parent.revision
        self.shard_index = int(shard_index)
        self.num_shards = int(num_shards)
        self._entries_by_id: Dict[int, StoredGraph] = {
            entry.graph_id: entry for entry in self._entries
        }

    def add(self, graph: Graph, *, branches: Optional[Counter] = None) -> int:
        raise DatasetError(
            "shard views are read-only snapshots; add graphs to the parent "
            "database and re-shard"
        )

    def add_many(self, graphs: Iterable[Graph]) -> List[int]:
        raise DatasetError(
            "shard views are read-only snapshots; add graphs to the parent "
            "database and re-shard"
        )

    def __getitem__(self, graph_id: int) -> StoredGraph:
        try:
            return self._entries_by_id[graph_id]
        except KeyError as exc:
            raise DatasetError(
                f"graph id {graph_id} is not part of shard "
                f"{self.shard_index}/{self.num_shards}"
            ) from exc

    def graph_ids(self) -> List[int]:
        """The global graph ids covered by this shard (in id order)."""
        return [entry.graph_id for entry in self._entries]

    def __repr__(self) -> str:
        return f"<GraphDatabaseShard {self.name!r} |D|={len(self)}>"
