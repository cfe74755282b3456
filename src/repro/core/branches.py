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
a few thousand neighbourhoods over and over, so :func:`branch_multiset` — the
one extractor of the write and the read path — sorts each *distinct* one once:
a process-wide table maps a vertex's neighbourhood as stored (``L(v)`` plus its
incident edge labels in adjacency order) to the canonical ``(L(v), N(v))`` key
object.  A hit is one tuple build and one dict probe, a miss the scalar sort,
and equal branches of different graphs are one shared tuple.  The table holds
at most ``_SORT_KEY_MEMO_LIMIT`` entries and is cleared when full.  Type rule:
:func:`_sort_key` puts the type name first, so ``1``, ``True`` and ``1.0`` (or
``"A"`` and ``numpy.str_("A")``) sort differently although tuples holding them
compare and hash equal; an entry is therefore keyed on the exact types of its
labels too — the one type of all the graph's labels where there is only one,
the neighbourhood's own tuple of types otherwise.  (Labels *inside* a container
label, ``(1,)`` and ``(True,)``, are told apart by value only, as the sort-key
memo always has.)  :func:`branch_of` / :func:`branches_of` stay the scalar
Definition 2, one sort per vertex: the oracle the tests hold the table against.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Hashable, Iterator, List, Tuple

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

    def as_strings(self) -> List[str]:
        """Return the list-of-strings encoding described in Section III."""
        return [str(self.vertex_label)] + [str(label) for label in self.edge_labels]

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

    The ``Counter`` view is what the GBD computation and the branch index of
    the graph database use; the sorted-list view of :func:`branches_of` is
    kept for faithfulness to the paper's storage description and for
    human-readable output.

    Every write and every query pays this, so a neighbourhood the process has
    seen costs one tuple build and one probe of the table in the module
    docstring; only a new one is sorted.  Keys, counts and iteration order are
    those of ``Counter(branch_of(graph, v).canonical_key() for v in graph)``.
    """
    kinds = graph.label_types()
    if len(kinds) == 1:
        (kind,) = kinds
        probes = [(kind, label, *incident) for label, incident in graph.neighbourhoods()]
    else:
        hoods = [(label, *incident) for label, incident in graph.neighbourhoods()]
        probes = [(tuple(map(type, hood)), *hood) for hood in hoods]
    counts = Counter(map(_BRANCH_KEYS.get, probes))
    if None in counts:  # some neighbourhood is new to the table: count again, learning it
        counts = Counter(_BRANCH_KEYS.get(probe) or _learn_branch_key(probe) for probe in probes)
    return counts


def iter_branches(graph: Graph) -> Iterator[Tuple[object, Branch]]:
    """Yield ``(vertex, branch)`` pairs for every vertex of the graph."""
    for vertex in graph.vertices():
        yield vertex, branch_of(graph, vertex)


#: Memo of label -> sort key: labels come from small fixed alphabets and the
#: (type name, str) tuples are expensive to rebuild per comparison.  Bounded so
#: a long-lived server answering arbitrary queries cannot grow it without limit.
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
        if len(_SORT_KEY_MEMO) >= _SORT_KEY_MEMO_LIMIT:
            _SORT_KEY_MEMO.clear()  # alphabet churn beyond any real dataset
        key = (type(label).__name__, str(label))
        _SORT_KEY_MEMO[memo_key] = key
    return key


#: (exact label types, neighbourhood as stored) -> canonical key.  Plain ``get`` /
#: ``setdefault`` under the memo's bound: threads can lose an entry, never read a wrong one.
_BRANCH_KEYS: dict = {}
#: (canonical key, its labels' exact types) -> the one object standing for it,
#: however the branch's edges were stored; emptied with the table.
_SHARED_KEYS: dict = {}


def _learn_branch_key(probe: Tuple) -> Tuple:
    """Sort one neighbourhood the table has not seen and remember its key."""
    _kind, label, *incident = probe
    if len(_BRANCH_KEYS) >= _SORT_KEY_MEMO_LIMIT:
        _BRANCH_KEYS.clear()
        _SHARED_KEYS.clear()
    key = (label, tuple(sorted(incident, key=_sort_key)))
    key = _SHARED_KEYS.setdefault((key, type(label), *map(type, key[1])), key)
    return _BRANCH_KEYS.setdefault(probe, key)


def _branch_sort_key(branch: Branch) -> Tuple:
    """Sort key for whole branches: root label first, then edge labels."""
    return (_sort_key(branch.vertex_label), tuple(_sort_key(label) for label in branch.edge_labels))
