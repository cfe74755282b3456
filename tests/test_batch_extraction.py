"""A write batch is one pass from vertices to postings, and it stores Definition 2's rows.

``GraphDatabase.add_many`` hands the store one branch key per vertex
(``branch_keys``), and the store counts the whole batch at once.  These tests
hold that path to the rows of Definition 2: a store fed row by row with each
graph's ``branch_multiset`` (through ``tests/store_rows.py``), compacted at the
same points, must be the same store — the CSR triple byte for byte, the
position vectors, the vocabulary in order, the caps — and both must hold each
graph's multiset in its row and each key's largest multiplicity as its cap.
The database must report the label alphabets of the graphs and their pair
GBDs, on both kernel backends.
Labels that compare equal but sort apart (``1`` / ``True`` / ``1.0``,
``"A"`` / ``numpy.str_("A")``), container labels, isolated vertices, empty
graphs and empty batches are all drawn.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.branches import branch_keys, branch_multiset
from repro.core.gbd import graph_branch_distance
from repro.db.columnar import ColumnarBranchStore
from repro.db.database import GraphDatabase
from repro.db.kernels import available_backends
from repro.graphs.graph import Graph, union_label_alphabets
from store_rows import vertex_stream
from test_columnar_carry import _entry, assert_layout_invariant

BACKENDS = available_backends()

backend_params = [
    pytest.param(
        name,
        marks=()
        if name in BACKENDS
        else pytest.mark.skip(reason="native kernel backend unavailable here"),
    )
    for name in ("numpy", "native")
]

#: Equal-but-differently-typed labels, a container label and plain ones.
MIXED = [1, True, 1.0, 0, False, "A", np.str_("A"), ("t", 1), ("t", True)]
PLAIN = ["A", "B", "C"]


@st.composite
def graphs(draw, labels=st.sampled_from(MIXED + PLAIN)):
    """A graph of 0-6 vertices; some stay isolated, one label type or many."""
    if draw(st.booleans()):
        labels = st.sampled_from(PLAIN)
    order = draw(st.integers(0, 6))
    graph = Graph()
    for vertex in range(order):
        graph.add_vertex(vertex, draw(labels))
    if order > 1:
        pairs = st.tuples(st.integers(0, order - 1), st.integers(0, order - 1))
        for u, v in draw(st.lists(pairs, max_size=2 * order)):
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v, draw(labels))
    return graph


#: One to four add_many batches (possibly empty), each followed by a read or not.
writes = st.lists(st.tuples(st.lists(graphs(), max_size=5), st.booleans()), min_size=1, max_size=4)


def store_state(store: ColumnarBranchStore):
    """Everything a read sees of the store, comparable with ``==``."""
    snapshot = store.view()
    offsets, positions, counts, rows = snapshot.csr
    return {
        "csr": [(part.dtype.str, part.tobytes()) for part in (offsets, positions, counts)],
        "rows": rows,
        "orders": snapshot.orders.tobytes(),
        "global_ids": snapshot.global_ids.tobytes(),
        # repr tells 1 / True / 1.0 and "A" / numpy.str_("A") apart
        "vocabulary": [(repr(key), key_id) for key, key_id in store._key_ids.items()],
        "caps": list(store._key_ids.caps),
    }


@pytest.mark.parametrize("backend", backend_params)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batches=writes)
def test_the_batch_path_stores_the_rows_of_definition_2(backend, batches):
    database = GraphDatabase(kernel_backend=backend)
    reference = ColumnarBranchStore(backend=backend)
    stored = []
    for batch, read in batches:
        database.add_many(batch)
        for graph in batch:
            reference.extend(*vertex_stream([branch_multiset(graph)]))
        stored += batch
        if read:
            assert store_state(database.store) == store_state(reference)
    assert store_state(database.store) == store_state(reference)
    # And both are Definition 2's rows, whatever the one write path does.
    multisets = list(map(branch_multiset, stored))
    assert_layout_invariant(database.store, [_entry(i, b) for i, b in enumerate(multisets)])
    caps = {}
    for multiset in multisets:
        for key, count in multiset.items():
            caps[key] = max(caps.get(key, 0), count)
    assert database.store._key_ids.caps == [caps[key] for key in database.store._key_ids]

    vertex_labels, edge_labels = union_label_alphabets(stored)
    assert database.num_vertex_labels == max(len(vertex_labels), 1)
    assert database.num_edge_labels == max(len(edge_labels), 1)
    pairs = [(i, j) for i in range(len(stored)) for j in range(len(stored))]
    distances = database.store.branch_distances(pairs)
    assert distances == reference.branch_distances(pairs)
    assert distances == [graph_branch_distance(stored[i], stored[j]) for i, j in pairs]


@settings(max_examples=100, deadline=None)
@given(batch=st.lists(graphs(), max_size=6))
def test_branch_keys_are_each_graphs_multiset_vertex_by_vertex(batch):
    """Graph ``i``'s slice of the stream counts to its ``branch_multiset``, in the same
    first-sight order and with keys of the same label types."""
    keys = branch_keys(batch)
    ends = list(accumulate(graph.num_vertices for graph in batch))
    assert len(keys) == (ends[-1] if ends else 0)
    for graph, end in zip(batch, ends):
        mine, theirs = Counter(keys[end - graph.num_vertices : end]), branch_multiset(graph)
        assert [(repr(key), count) for key, count in mine.items()] == [
            (repr(key), count) for key, count in theirs.items()
        ]


def test_extend_refuses_sizes_that_do_not_cover_the_keys():
    store = ColumnarBranchStore(backend="numpy")
    with pytest.raises(ValueError, match="sizes"):
        store.extend([("A", ())] * 3, [1, 1])
    assert store.num_graphs == store.num_keys == 0
