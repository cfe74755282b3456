"""Tests for branch structures and branch isomorphism (Definitions 2 & 3)."""

import random
import sys
import threading
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import branches
from repro.core.branches import Branch, branch_keys, branch_multiset, branch_of, branches_of
from repro.db.database import GraphDatabase
from repro.db.query import SimilarityQuery
from repro.graphs.generators import random_labeled_graph
from repro.graphs.graph import Graph


class TestBranchExtraction:
    def test_paper_example2_branches_of_g1(self, paper_g1):
        """Example 2: B(v1)={A; y,y}, B(v2)={C; y,z}, B(v3)={B; y,z}."""
        assert branch_of(paper_g1, "v1") == Branch("A", ("y", "y"))
        assert branch_of(paper_g1, "v2") == Branch("C", ("y", "z"))
        assert branch_of(paper_g1, "v3") == Branch("B", ("y", "z"))

    def test_paper_example2_branches_of_g2(self, paper_g2):
        """Example 2: B(u1)={B; x,z}, B(u2)={A; y}, B(u3)={A; x}, B(u4)={C; y,z}."""
        assert branch_of(paper_g2, "u1") == Branch("B", ("x", "z"))
        assert branch_of(paper_g2, "u2") == Branch("A", ("y",))
        assert branch_of(paper_g2, "u3") == Branch("A", ("x",))
        assert branch_of(paper_g2, "u4") == Branch("C", ("y", "z"))

    def test_isolated_vertex_branch(self):
        graph = Graph.from_dicts({0: "Z"}, {})
        assert branch_of(graph, 0) == Branch("Z", ())

    def test_edge_labels_are_sorted(self):
        graph = Graph.from_dicts(
            {0: "A", 1: "B", 2: "C", 3: "D"},
            {(0, 1): "z", (0, 2): "a", (0, 3): "m"},
        )
        assert branch_of(graph, 0).edge_labels == ("a", "m", "z")

    def test_branches_of_returns_sorted_list(self, paper_g2):
        branches = branches_of(paper_g2)
        assert len(branches) == 4
        keys = [(b.vertex_label, b.edge_labels) for b in branches]
        assert keys == sorted(keys, key=lambda item: (str(item[0]), [str(x) for x in item[1]]))

    def test_branch_of_covers_every_vertex(self, paper_g1):
        pairs = {vertex: branch_of(paper_g1, vertex) for vertex in paper_g1.vertices()}
        assert set(pairs) == {"v1", "v2", "v3"}


class TestBranchProperties:
    def test_degree_property(self, paper_g1):
        assert branch_of(paper_g1, "v1").degree == 2

    def test_canonical_key_layout(self, paper_g1):
        """Section III's layout: the vertex label, then the sorted edge labels."""
        assert branch_of(paper_g1, "v1").canonical_key() == ("A", ("y", "y"))

    def test_str_rendering(self, paper_g1):
        assert str(branch_of(paper_g1, "v2")) == "{C; y, z}"

    def test_isomorphism_is_equality_of_canonical_keys(self, paper_g1, paper_g2):
        assert branch_of(paper_g1, "v2").is_isomorphic_to(branch_of(paper_g2, "u4"))
        assert not branch_of(paper_g1, "v1").is_isomorphic_to(branch_of(paper_g2, "u2"))

    def test_branches_are_hashable_and_orderable(self):
        a = Branch("A", ("x",))
        b = Branch("A", ("y",))
        assert len({a, b, Branch("A", ("x",))}) == 2
        assert sorted([b, a]) == [a, b]


class TestBranchMultiset:
    def test_multiset_counts_duplicates(self):
        graph = Graph.from_dicts({0: "A", 1: "A"}, {})
        counts = branch_multiset(graph)
        assert counts == Counter({("A", ()): 2})

    def test_paper_example2_intersection_size(self, paper_g1, paper_g2):
        counts1 = branch_multiset(paper_g1)
        counts2 = branch_multiset(paper_g2)
        intersection = sum((counts1 & counts2).values())
        assert intersection == 1, "only B(v2) ≃ B(u4) is shared (Example 2)"

    def test_multiset_size_equals_vertex_count(self, paper_g1, paper_g2):
        assert sum(branch_multiset(paper_g1).values()) == 3
        assert sum(branch_multiset(paper_g2).values()) == 4

    def test_mixed_label_types_do_not_crash_sorting(self):
        graph = Graph.from_dicts({0: "A", 1: 7}, {(0, 1): 3})
        branches = branches_of(graph)
        assert len(branches) == 2


# --------------------------------------------------------------------------- #
# The memoised extractor against the scalar Definition 2
# --------------------------------------------------------------------------- #
def _scalar_multiset(graph):
    """``B_G`` by the scalar path: one ``branch_of`` (one sort) per vertex."""
    return Counter(branch_of(graph, vertex).canonical_key() for vertex in graph)


def _agrees_with_scalar(graph):
    expected = _scalar_multiset(graph)
    extracted = branch_multiset(graph)
    return extracted == expected and list(extracted) == list(expected)


def _star(centre, edge_labels, first_id=0):
    """``{id: label}``, ``{(u, v): label}`` of a star whose edges are stored in the given order."""
    leaves = range(first_id + 1, first_id + 1 + len(edge_labels))
    vertices = {first_id: centre, **{leaf: "leaf" for leaf in leaves}}
    return vertices, {(first_id, leaf): label for leaf, label in zip(leaves, edge_labels)}


@pytest.fixture
def fresh_table(monkeypatch):
    """An empty neighbourhood table, so a test decides what it has seen."""
    monkeypatch.setattr(branches, "_BRANCH_KEYS", branches._BranchTable())
    monkeypatch.setattr(branches, "_SHARED_KEYS", {})


class TestEqualAcrossTypes:
    """``1 == True == 1.0`` and ``"A" == np.str_("A")``, but they do not sort alike.

    ``_sort_key`` puts the type name first, so neighbourhoods that compare (and
    hash) equal as stored can have different canonical keys.  The table must
    hand each the key its own scalar sort gives, whichever it saw first.
    """

    #: (edge labels as stored, N(v) by the scalar rule); the stored tuples of
    #: the first three rows are equal, and so are those of the last two.
    STARS = [
        ([1, 1.5], (1.5, 1)),  # ("float", "1.5") < ("int", "1")
        ([True, 1.5], (True, 1.5)),  # ("bool", "True") < ("float", "1.5")
        ([1.0, 1.5], (1.0, 1.5)),
        (["A", "B"], ("A", "B")),
        ([np.str_("A"), "B"], ("B", np.str_("A"))),  # ("str", "B") < ("str_", "A")
    ]

    @pytest.mark.parametrize("order", [list(range(5)), list(range(4, -1, -1)), [1, 4, 0, 3, 2]])
    def test_across_graphs_in_any_order(self, fresh_table, order):
        for index in order:
            edge_labels, expected = self.STARS[index]
            graph = Graph.from_dicts(*_star("c", edge_labels))
            extracted = branch_multiset(graph)
            assert _agrees_with_scalar(graph)
            (centre,) = [key for key in extracted if key[0] == "c"]
            assert centre[1] == expected
            assert [type(label) for label in centre[1]] == [type(label) for label in expected]

    @pytest.mark.parametrize("order", [list(range(5)), list(range(4, -1, -1))])
    def test_within_one_graph_in_either_order(self, fresh_table, order):
        vertices, edges = {}, {}
        for index in order:
            star_vertices, star_edges = _star("c", self.STARS[index][0], first_id=len(vertices))
            vertices.update(star_vertices)
            edges.update(star_edges)
        graph = Graph.from_dicts(vertices, edges)
        assert _agrees_with_scalar(graph)
        centres = [key[1] for key in branch_multiset(graph).elements() if key[0] == "c"]
        assert centres == [self.STARS[index][1] for index in order]

    @pytest.mark.parametrize("first", [int, float])
    def test_graphs_of_one_type_each_keep_their_own_order(self, fresh_table, first):
        """All-int and all-float graphs: equal as stored, ordered by different strings."""
        big = 10**21  # "1000…" < "12" as ints, "12.0" < "1e+21" as floats
        expected = {int: (big, 12), float: (12.0, 1e21)}
        for kind in (first, float if first is int else int):
            vertices, edges = _star(kind(7), [kind(12), kind(big)])
            graph = Graph.from_dicts({v: kind(7) for v in vertices}, edges)
            assert _agrees_with_scalar(graph)
            assert (kind(7), expected[kind]) in branch_multiset(graph)

    def test_equal_vertex_labels_of_different_types(self, fresh_table):
        for centre in (1, True, 1.0, True, 1):
            graph = Graph.from_dicts(*_star(centre, ["x", "y"]))
            assert _agrees_with_scalar(graph)


# Labels a property test mixes freely.  Containers hold only str / int: labels
# *inside* a container are told apart by value alone (module docstring).
_LABELS = st.sampled_from(
    ["A", "B", "x", 0, 1, 2, True, False, 1.0, 2.5, ("t", 1), ("t", 2), (("n", "m"), 3)]
)


@st.composite
def _mixed_graphs(draw):
    count = draw(st.integers(1, 7))
    graph = Graph()
    for vertex in range(count):
        graph.add_vertex(vertex, draw(_LABELS))
    pairs = [(u, v) for u in range(count) for v in range(u + 1, count)]
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []:
        graph.add_edge(u, v, draw(_LABELS))
    return graph


def _mutate(graph, data):
    """One of relabel_vertex / relabel_edge / remove_edge / add_edge, where possible."""
    vertices = sorted(graph.vertices())
    present = sorted((min(u, v), max(u, v)) for u, v, _label in graph.edges())
    absent = [(u, v) for u in vertices for v in vertices if u < v and not graph.has_edge(u, v)]
    choices = ["relabel_vertex"] + ["relabel_edge", "remove_edge"] * bool(present)
    choices += ["add_edge"] * bool(absent)
    choice = data.draw(st.sampled_from(choices))
    if choice == "relabel_vertex":
        graph.relabel_vertex(data.draw(st.sampled_from(vertices)), data.draw(_LABELS))
    elif choice == "add_edge":
        graph.add_edge(*data.draw(st.sampled_from(absent)), data.draw(_LABELS))
    elif choice == "remove_edge":
        graph.remove_edge(*data.draw(st.sampled_from(present)))
    else:
        graph.relabel_edge(*data.draw(st.sampled_from(present)), data.draw(_LABELS))


class TestMemoisedExtractionProperties:
    @given(_mixed_graphs())
    @settings(max_examples=150, deadline=None)
    def test_same_keys_counts_and_order_as_the_scalar_loop(self, graph):
        assert _agrees_with_scalar(graph)

    @given(_mixed_graphs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_still_true_after_edits_with_a_table_of_four(self, graph, data):
        """Bound 4: the table (and the sort-key memo) fills in the middle of a graph."""
        with mock.patch.object(branches, "_SORT_KEY_MEMO_LIMIT", 4):
            branches._BRANCH_KEYS.clear()  # what earlier tests left is not bounded by 4
            branches._SHARED_KEYS.clear()
            assert _agrees_with_scalar(graph)
            for _ in range(data.draw(st.integers(1, 4))):
                _mutate(graph, data)
                assert _agrees_with_scalar(graph)
            assert len(branches._BRANCH_KEYS) <= 4 and len(branches._SHARED_KEYS) <= 4

    def test_four_threads_share_a_table_of_four(self):
        rng = random.Random(5)
        pool = ["A", "B", 0, 1, True, 1.0, 2.5, ("t", 1)]
        graphs = []
        for _ in range(12):
            graph = Graph()
            for vertex in range(6):
                graph.add_vertex(vertex, rng.choice(pool))
            for u, v in rng.sample([(u, v) for u in range(6) for v in range(u + 1, 6)], 8):
                graph.add_edge(u, v, rng.choice(pool))
            graphs.append(graph)
        expected = [_scalar_multiset(graph) for graph in graphs]
        wrong = []

        def extract(offset):
            for turn in range(150):
                index = (offset + turn) % len(graphs)
                extracted = branch_multiset(graphs[index])
                if extracted != expected[index] or list(extracted) != list(expected[index]):
                    wrong.append((offset, turn))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(branches, "_SORT_KEY_MEMO_LIMIT", 4):
                threads = [threading.Thread(target=extract, args=(3 * n,)) for n in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []


class CountingTable(branches._BranchTable):
    """A neighbourhood table that counts its probes and the times it was emptied."""

    probes = 0
    clears = 0

    def __getitem__(self, probe):
        CountingTable.probes += 1
        return super().__getitem__(probe)

    def clear(self):
        CountingTable.clears += 1
        super().clear()


@pytest.fixture
def counting_table(monkeypatch):
    """An empty :class:`CountingTable` with its counts at zero."""
    monkeypatch.setattr(CountingTable, "probes", 0)
    monkeypatch.setattr(CountingTable, "clears", 0)
    monkeypatch.setattr(branches, "_BRANCH_KEYS", CountingTable())
    monkeypatch.setattr(branches, "_SHARED_KEYS", {})


@pytest.fixture
def counted_sorts(monkeypatch):
    """The neighbourhoods sorted since the test began: ``_learn_branch_key`` calls."""
    sorted_probes = []
    learn = branches._learn_branch_key
    monkeypatch.setattr(
        branches, "_learn_branch_key", lambda probe: sorted_probes.append(probe) or learn(probe)
    )
    return sorted_probes


class TestExtractionCountGuards:
    """What the memo saves, as counts: sorts avoided, tuples shared, table never emptied."""

    @staticmethod
    def _graphs(count=20, seed=9):
        rng = random.Random(seed)
        return [
            random_labeled_graph(rng.randint(4, 9), rng.randint(3, 12), seed=rng)
            for _ in range(count)
        ]

    def test_seen_neighbourhoods_are_never_sorted_again(self, fresh_table, monkeypatch):
        graphs = self._graphs()
        database = GraphDatabase(graphs)
        calls = []
        real = branches._sort_key
        monkeypatch.setattr(branches, "_sort_key", lambda label: calls.append(label) or real(label))
        database.add_many([graph.copy() for graph in graphs])  # the write path
        for graph in graphs:
            SimilarityQuery(graph.copy(), 1).branches()  # the read path
        assert calls == []
        # Each copy's row equals its original's: GBD 0, pair by pair.
        assert database.store.branch_distances([(i, i + 20) for i in range(20)]) == [0] * 20
        unseen = Graph.from_dicts(*_star("never seen", ["q", "p"]))
        assert database.add(unseen) == 40 and calls  # a new neighbourhood is sorted, once
        del calls[:]
        database.add(unseen.copy())
        assert calls == []

    def test_equal_branches_of_two_graphs_are_one_object(self, fresh_table):
        one = Graph.from_dicts(*_star("A", ["x", "y", "x"]))
        other = Graph.from_dicts(*_star("A", ["y", "x", "x"]))  # same branch, stored differently
        database = GraphDatabase([one, other])
        held = [{key: key for key in branch_multiset(database[i].graph)} for i in (0, 1)]
        for key in (("A", ("x", "x", "y")), ("leaf", ("x",)), ("leaf", ("y",))):
            assert held[0][key] is held[1][key]

    def test_the_benchmark_smoke_databases_never_empty_the_table(self, monkeypatch):
        inputs = pytest.importorskip("bench.inputs")
        monkeypatch.setattr(CountingTable, "clears", 0)
        for workload in inputs.WORKLOADS:
            monkeypatch.setattr(branches, "_BRANCH_KEYS", CountingTable())
            sizes = inputs.sizes_for(workload, smoke=True)
            if workload == "ingest_mixed":
                count = sizes.base_graphs + sizes.rounds * sizes.add_per_round
            else:
                sizes = getattr(sizes, "engine", sizes)
                count = sizes.graphs
            graphs = inputs.make_graphs(
                inputs.rng_for(7, workload), inputs.cycled_sizes(count, sizes.vertices)
            )
            assert len(GraphDatabase(graphs)) == count
            assert 0 < len(branches._BRANCH_KEYS) < branches._SORT_KEY_MEMO_LIMIT
        assert CountingTable.clears == 0

    def test_a_full_table_keeps_what_it_holds_and_probes_each_vertex_once(
        self, counting_table, counted_sorts, monkeypatch
    ):
        """A stream with more distinct neighbourhoods than the table holds."""
        monkeypatch.setattr(branches, "_SORT_KEY_MEMO_LIMIT", 16)
        graphs = self._graphs(count=40, seed=11)
        stored = {
            (label, *incident) for graph in graphs for label, incident in graph.neighbourhoods()
        }
        assert len(stored) > 4 * 16
        held = {}
        for graph in graphs:
            probes_before, sorts_before = CountingTable.probes, len(counted_sorts)
            extracted = branch_multiset(graph)
            assert CountingTable.probes - probes_before == graph.num_vertices
            assert len(counted_sorts) - sorts_before <= graph.num_vertices
            expected = _scalar_multiset(graph)
            assert extracted == expected and list(extracted) == list(expected)
            assert held.items() <= branches._BRANCH_KEYS.items()  # nothing once held is lost
            held = dict(branches._BRANCH_KEYS)
        assert len(held) == 16 and len(branches._SHARED_KEYS) <= 16
        assert CountingTable.clears == 0
        # A full table still sorts what it does not hold, and stores none of it.
        assert len(counted_sorts) > 16

    def test_a_bulk_load_builds_no_counter_and_buffers_arrays(self, counting_table, monkeypatch):
        """``GraphDatabase(graphs)``: no ``Counter`` per graph, one probe per vertex, and the
        append buffer holds int64 arrays, never a Python int per posting, until a compaction."""
        inputs = pytest.importorskip("bench.inputs")
        sizes = inputs.sizes_for("scan_dense", smoke=True)
        graphs = inputs.make_graphs(
            inputs.rng_for(7, "scan_dense"), inputs.cycled_sizes(sizes.graphs, sizes.vertices)
        )
        built = []
        monkeypatch.setattr(
            branches, "Counter", lambda *args, **kwargs: built.append(args) or Counter(*args)
        )
        database = GraphDatabase(graphs)
        database.add_many(graphs[:7])
        assert built == []
        assert CountingTable.probes == sum(g.num_vertices for g in graphs + graphs[:7])
        store = database.store
        buffers = (store._pending_keys, store._pending_positions, store._pending_counts)
        for chunks in buffers:
            assert len(chunks) == 2  # one chunk per add_many
            for chunk in chunks:
                assert isinstance(chunk, np.ndarray) and chunk.dtype == np.int64
        assert store.num_postings == sum(map(len, store._pending_keys))
        assert store.compact()
        assert store._pending_keys == store._pending_positions == store._pending_counts == []
        assert store.num_postings == len(store.view().csr[1])

    def test_a_full_sort_key_memo_answers_and_remembers_nothing_new(self, monkeypatch):
        monkeypatch.setattr(branches, "_SORT_KEY_MEMO", {})
        monkeypatch.setattr(branches, "_SORT_KEY_MEMO_LIMIT", 3)
        labels = ["b", 1, True, 1.0, "a", ("t", 1)]
        for _ in range(2):
            assert [branches._sort_key(label) for label in labels] == [
                ("str", "b"), ("int", "1"), ("bool", "True"),
                ("float", "1.0"), ("str", "a"), ("tuple", "('t', 1)"),
            ]
            assert list(branches._SORT_KEY_MEMO) == [(str, "b"), (int, 1), (bool, True)]

    def test_the_full_filter_selective_store_sorts_each_miss_once(
        self, counting_table, counted_sorts
    ):
        """At the size where the table fills: 16 000 graphs whose 21 527 distinct
        neighbourhoods as stored (1 417 distinct branches) overflow it."""
        inputs = pytest.importorskip("bench.inputs")
        sizes = inputs.sizes_for("filter_selective")
        graphs = inputs.make_graphs(
            inputs.rng_for(5, "filter_selective:graphs"),
            inputs.cycled_sizes(sizes.graphs, sizes.vertices),
        )
        # Independent of the table: vertex by vertex, a neighbourhood not
        # learnt yet is sorted, and the first _SORT_KEY_MEMO_LIMIT distinct
        # neighbourhoods are learnt.
        learnt, expected_sorts, vertices = set(), 0, 0
        for graph in graphs:
            for label, incident in graph.neighbourhoods():
                hood = (label, *incident)
                vertices += 1
                if hood not in learnt:
                    expected_sorts += 1
                    if len(learnt) < branches._SORT_KEY_MEMO_LIMIT:
                        learnt.add(hood)
        assert len(learnt) == branches._SORT_KEY_MEMO_LIMIT  # the stream overflows the table
        branch_keys(graphs)  # the write path's extraction
        del graphs
        assert len(counted_sorts) == expected_sorts
        assert CountingTable.probes == vertices and CountingTable.clears == 0
        assert len(branches._BRANCH_KEYS) == branches._SORT_KEY_MEMO_LIMIT
