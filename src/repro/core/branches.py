"""Branch structures (Definition 2) and branch isomorphism (Definition 3).

A *branch* rooted at vertex ``v`` is the pair ``B(v) = (L(v), N(v))`` where
``L(v)`` is the vertex label and ``N(v)`` is the sorted multiset of labels of
the edges incident to ``v``.  The sorted multiset of all branches of a graph
``G`` is denoted ``B_G``.

Two branches are isomorphic iff both their root labels and their sorted edge
label multisets coincide — for our canonical tuple representation this is
plain equality, which is what makes the multiset-intersection computation of
GBD a linear merge of two sorted lists.

In practice (per the paper, Section III) each branch is stored as a list of
strings whose first element is the vertex label and whose remaining elements
are the sorted edge labels; we store an immutable, hashable tuple with the
same layout so branches can live in ``Counter`` multisets and be compared
lexicographically.

Every stored graph and every query pays for extraction, and a database repeats
a few thousand neighbourhoods over and over, so both extractors sort each
*distinct* one once.  :func:`branch_multiset` is the read path's: one query
graph's ``Counter``.  :func:`branch_keys` is the write path's: a whole batch's
keys, one per vertex, graph after graph, and no ``Counter`` at all — the
columnar store counts the batch in one NumPy pass.  They share one probe
builder, the type rule below and one process-wide table, which maps a vertex's
neighbourhood as stored (``L(v)`` plus its incident edge labels in adjacency
order) to the canonical ``(L(v), N(v))`` key object.  A hit is one tuple build and one dict probe, a miss the scalar sort,
and equal branches of different graphs are one shared tuple.  The table holds
at most ``_SORT_KEY_MEMO_LIMIT`` entries and, once full, stops learning: it
keeps what it holds, and a neighbourhood it does not hold pays the scalar sort
on every sight.  Emptying it would cost more: edge order multiplies the entries
far beyond the distinct branches, and those learnt first are the ones most
graphs share.  Type rule:
:func:`_sort_key` puts the type name first, so ``1``, ``True`` and ``1.0`` (or
``"A"`` and ``numpy.str_("A")``) sort differently although tuples holding them
compare and hash equal; an entry is therefore keyed on the exact types of its
labels too — the one type of all the graph's labels where there is only one,
the neighbourhood's own tuple of types otherwise (a batch whose labels all share
one type decides this once for the batch).  (Labels *inside* a container
label, ``(1,)`` and ``(True,)``, are told apart by value only, as the sort-key
memo always has.)  :func:`branch_of` / :func:`branches_of` stay the scalar
Definition 2, one sort per vertex: the oracle the tests hold the table against.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from itertools import chain
from typing import Hashable, List, Sequence, Tuple

from repro.graphs.graph import Graph

Label = Hashable


@dataclasses.dataclass(frozen=True, order=True)
class Branch:
    """The branch rooted at a single vertex.

    Attributes
    ----------
    vertex_label:
        ``L(v)`` — the label of the root vertex.
    edge_labels:
        ``N(v)`` — the sorted tuple of labels of edges incident to the root.
    """

    vertex_label: Label
    edge_labels: Tuple[Label, ...]

    @property
    def degree(self) -> int:
        """Degree of the root vertex (size of the incident-edge multiset)."""
        return len(self.edge_labels)

    def canonical_key(self) -> Tuple:
        """Return a hashable key that identifies the branch up to isomorphism."""
        return (self.vertex_label, self.edge_labels)

    def is_isomorphic_to(self, other: "Branch") -> bool:
        """Branch isomorphism of Definition 3 (equality of label and multiset)."""
        return self.canonical_key() == other.canonical_key()

    def __str__(self) -> str:
        edge_part = ", ".join(str(label) for label in self.edge_labels)
        return f"{{{self.vertex_label}; {edge_part}}}"


def branch_of(graph: Graph, vertex) -> Branch:
    """Extract the branch ``B(v)`` rooted at ``vertex``."""
    labels = sorted(graph.incident_edge_labels(vertex), key=_sort_key)
    return Branch(vertex_label=graph.vertex_label(vertex), edge_labels=tuple(labels))


def branches_of(graph: Graph) -> List[Branch]:
    """Return the sorted list of all branches of ``graph`` (``B_G``).

    The list is sorted by the branches' natural (lexicographic) order so the
    multiset-intersection of two branch collections can be computed with a
    single linear merge, keeping GBD at the paper's ``O(nd)`` bound.
    """
    return sorted(
        (branch_of(graph, vertex) for vertex in graph.vertices()),
        key=_branch_sort_key,
    )


def branch_multiset(graph: Graph) -> Counter:
    """Return ``B_G`` as a ``Counter`` keyed by canonical branch keys.

    The ``Counter`` view is what the GBD computation and a query's read of
    the branch store use; the sorted-list view of :func:`branches_of` is
    kept for faithfulness to the paper's storage description and for
    human-readable output.

    Every query pays this, so a neighbourhood the table in the module
    docstring holds costs one tuple build and one probe; only the others are
    sorted.  Each vertex is probed once and the graph counted once, misses or
    not.  Keys, counts and iteration order are those of
    ``Counter(branch_of(graph, v).canonical_key() for v in graph)``.
    """
    return Counter(map(_BRANCH_KEYS.__getitem__, _probes(graph, graph.label_types())))


def branch_keys(graphs: Sequence[Graph]) -> List[Tuple]:
    """The canonical branch key of every vertex, graph after graph, in vertex order.

    The write path's extractor: ``graphs[i]`` contributes its
    ``num_vertices`` keys, each the object :func:`branch_multiset` would
    count for that vertex, and nothing is counted here — the store counts
    the whole batch at once.  The type rule is decided once for the batch
    when all its labels share one type, graph by graph otherwise; probes are
    built graph by graph, so no per-vertex probe outlives its graph.
    """
    kinds = set(chain.from_iterable(map(Graph.label_types, graphs)))
    one_kind = len(kinds) == 1
    probe = _BRANCH_KEYS.__getitem__
    keys: List[Tuple] = []
    for graph in graphs:
        keys += map(probe, _probes(graph, kinds if one_kind else graph.label_types()))
    return keys


def _probes(graph: Graph, kinds: set) -> List[Tuple]:
    """The table probes of ``graph``'s vertices: its labels' type(s), then ``L(v)`` and the
    incident edge labels as stored.  ``kinds`` holds the exact types of the labels in use:
    one type is one leading item, several a per-vertex tuple of types (module docstring)."""
    if len(kinds) == 1:
        (kind,) = kinds
        return [(kind, label, *incident) for label, incident in graph.neighbourhoods()]
    hoods = [(label, *incident) for label, incident in graph.neighbourhoods()]
    return [(tuple(map(type, hood)), *hood) for hood in hoods]


#: Memo of label -> sort key: labels come from small fixed alphabets and the
#: (type name, str) tuples are expensive to rebuild per comparison.  Bounded so
#: a long-lived server answering arbitrary queries cannot grow it without limit:
#: like the neighbourhood table, once full it answers and remembers nothing new.
_SORT_KEY_MEMO: dict = {}
_SORT_KEY_MEMO_LIMIT = 8192


def _sort_key(label: Label) -> Tuple[str, str]:
    """Total order over labels of arbitrary hashable types.

    Mirrors the lexicographic ordering the paper borrows from
    ``std::lexicographical_compare`` while staying robust to mixed label
    types (ints vs strings) that Python 3 refuses to compare directly.
    """
    # Memoise per (type, value): equal-but-distinct labels such as 1 and
    # True must not share an entry or their type names would be conflated.
    memo_key = (type(label), label)
    key = _SORT_KEY_MEMO.get(memo_key)
    if key is None:
        key = (type(label).__name__, str(label))
        if len(_SORT_KEY_MEMO) < _SORT_KEY_MEMO_LIMIT:
            _SORT_KEY_MEMO[memo_key] = key
    return key


class _BranchTable(dict):
    """(exact label types, neighbourhood as stored) -> canonical key.

    A probe is ``table[probe]``: a neighbourhood the table does not hold is
    sorted by :func:`_learn_branch_key` right there, so an extraction probes
    each vertex once and counts the graph once, misses or not.  Plain
    ``setdefault`` under the memo's bound: threads can lose an entry, never
    read a wrong one.
    """

    def __missing__(self, probe: Tuple) -> Tuple:
        return _learn_branch_key(probe)


_BRANCH_KEYS = _BranchTable()
#: (canonical key, its labels' exact types) -> the one object standing for it,
#: however the branch's edges were stored; grows only with the table.
_SHARED_KEYS: dict = {}


def _learn_branch_key(probe: Tuple) -> Tuple:
    """Sort one neighbourhood the table does not hold; remember it while there is room."""
    _kind, label, *incident = probe
    key = (label, tuple(sorted(incident, key=_sort_key)))
    shared = (key, type(label), *map(type, key[1]))
    if len(_BRANCH_KEYS) >= _SORT_KEY_MEMO_LIMIT:
        return _SHARED_KEYS.get(shared, key)
    key = _SHARED_KEYS.setdefault(shared, key)
    return _BRANCH_KEYS.setdefault(probe, key)


def _branch_sort_key(branch: Branch) -> Tuple:
    """Sort key for whole branches: root label first, then edge labels."""
    return (_sort_key(branch.vertex_label), tuple(_sort_key(label) for label in branch.edge_labels))
