"""Unit tests for the labeled simple undirected graph data structure."""

import os
import pickle
import random
import subprocess
import sys
import textwrap
import tracemalloc

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro
from repro.exceptions import (
    DuplicateEdgeError,
    DuplicateVertexError,
    InvalidLabelError,
    MissingEdgeError,
    MissingVertexError,
    SelfLoopError,
)
from repro.graphs.generators import random_labeled_graph
from repro.graphs.graph import Graph, VIRTUAL_LABEL, union_label_alphabets


class TestVertexOperations:
    def test_add_and_query_vertex(self):
        graph = Graph()
        graph.add_vertex("v1", "A")
        assert graph.has_vertex("v1")
        assert graph.vertex_label("v1") == "A"
        assert graph.num_vertices == 1

    def test_add_duplicate_vertex_raises(self):
        graph = Graph()
        graph.add_vertex("v1", "A")
        with pytest.raises(DuplicateVertexError):
            graph.add_vertex("v1", "B")

    def test_virtual_label_rejected_on_ordinary_vertices(self):
        graph = Graph()
        with pytest.raises(InvalidLabelError):
            graph.add_vertex("v1", VIRTUAL_LABEL)

    def test_virtual_label_allowed_when_requested(self):
        graph = Graph()
        graph.add_vertex("v1", VIRTUAL_LABEL, allow_virtual=True)
        assert graph.vertex_label("v1") == VIRTUAL_LABEL

    def test_missing_vertex_label_raises(self):
        graph = Graph()
        with pytest.raises(MissingVertexError):
            graph.vertex_label("nope")

    def test_relabel_vertex(self):
        graph = Graph()
        graph.add_vertex("v1", "A")
        graph.relabel_vertex("v1", "B")
        assert graph.vertex_label("v1") == "B"

    def test_relabel_missing_vertex_raises(self):
        graph = Graph()
        with pytest.raises(MissingVertexError):
            graph.relabel_vertex("v1", "B")

    def test_remove_isolated_vertex(self):
        graph = Graph()
        graph.add_vertex("v1", "A")
        graph.remove_vertex("v1")
        assert not graph.has_vertex("v1")

    def test_remove_non_isolated_vertex_rejected(self, triangle):
        with pytest.raises(SelfLoopError):
            triangle.remove_vertex(0)

    def test_remove_missing_vertex_raises(self):
        graph = Graph()
        with pytest.raises(MissingVertexError):
            graph.remove_vertex("v1")

    def test_vertex_iteration(self, triangle):
        assert sorted(triangle.vertices()) == [0, 1, 2]
        assert dict(triangle.vertex_items()) == {0: "A", 1: "B", 2: "C"}


class TestEdgeOperations:
    def test_add_and_query_edge(self, triangle):
        assert triangle.has_edge(0, 1)
        assert triangle.has_edge(1, 0), "edges are undirected"
        assert triangle.edge_label(0, 1) == "x"
        assert triangle.edge_label(1, 0) == "x"
        assert triangle.num_edges == 3

    def test_add_edge_missing_endpoint_raises(self):
        graph = Graph()
        graph.add_vertex(0, "A")
        with pytest.raises(MissingVertexError):
            graph.add_edge(0, 1, "x")

    def test_self_loop_rejected(self):
        graph = Graph()
        graph.add_vertex(0, "A")
        with pytest.raises(SelfLoopError):
            graph.add_edge(0, 0, "x")

    def test_duplicate_edge_rejected(self, triangle):
        with pytest.raises(DuplicateEdgeError):
            triangle.add_edge(1, 0, "w")

    def test_virtual_edge_label_rejected(self):
        graph = Graph()
        graph.add_vertex(0, "A")
        graph.add_vertex(1, "B")
        with pytest.raises(InvalidLabelError):
            graph.add_edge(0, 1, VIRTUAL_LABEL)

    def test_remove_edge(self, triangle):
        triangle.remove_edge(0, 1)
        assert not triangle.has_edge(0, 1)
        assert triangle.num_edges == 2

    def test_remove_missing_edge_raises(self, triangle):
        with pytest.raises(MissingEdgeError):
            triangle.remove_edge(0, 99)

    def test_relabel_edge_updates_adjacency(self, triangle):
        triangle.relabel_edge(0, 1, "w")
        assert triangle.edge_label(0, 1) == "w"
        assert list(triangle.incident_edge_labels(0)).count("w") == 1

    def test_relabel_missing_edge_raises(self, triangle):
        with pytest.raises(MissingEdgeError):
            triangle.relabel_edge(0, 99, "w")


class TestStructureQueries:
    def test_degree_and_average_degree(self, triangle, path_graph):
        assert triangle.degree(0) == 2
        assert triangle.average_degree() == pytest.approx(2.0)
        assert path_graph.degree(0) == 1
        assert path_graph.degree(1) == 2
        assert path_graph.average_degree() == pytest.approx(1.5)

    def test_max_degree(self, path_graph):
        assert path_graph.max_degree() == 2
        assert Graph().max_degree() == 0

    def test_incident_edge_labels(self, triangle):
        assert sorted(triangle.incident_edge_labels(0)) == ["x", "z"]

    def test_neighbors(self, path_graph):
        assert sorted(path_graph.neighbors(1)) == [0, 2]

    def test_connected_components(self):
        graph = Graph()
        for v in range(4):
            graph.add_vertex(v, "A")
        graph.add_edge(0, 1, "x")
        components = graph.connected_components()
        assert len(components) == 3
        assert not graph.is_connected()

    def test_empty_graph_is_connected(self):
        assert Graph().is_connected()

    def test_label_sets(self, triangle):
        assert triangle.vertex_label_set() == frozenset({"A", "B", "C"})
        assert triangle.edge_label_set() == frozenset({"x", "y", "z"})

    def test_union_label_alphabets(self, triangle, path_graph):
        vertex_labels, edge_labels = union_label_alphabets([triangle, path_graph])
        assert vertex_labels == frozenset({"A", "B", "C"})
        assert edge_labels == frozenset({"x", "y", "z"})


class TestCopyAndEquality:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.relabel_vertex(0, "Z")
        assert triangle.vertex_label(0) == "A"
        assert clone.vertex_label(0) == "Z"

    def test_identical_graphs_compare_equal(self, triangle):
        assert triangle == triangle.copy()

    def test_different_labels_compare_unequal(self, triangle):
        other = triangle.copy()
        other.relabel_edge(0, 1, "w")
        assert triangle != other

    def test_equality_with_non_graph(self, triangle):
        assert triangle != 42

    def test_dunder_protocols(self, triangle):
        assert len(triangle) == 3
        assert 0 in triangle
        assert sorted(iter(triangle)) == [0, 1, 2]
        assert "Graph" in repr(triangle)

    def test_from_dicts_round_trip(self):
        graph = Graph.from_dicts({0: "A", 1: "B"}, {(0, 1): "x"}, name="g")
        assert graph.num_vertices == 2
        assert graph.edge_label(0, 1) == "x"
        assert graph.name == "g"


def _typed(label):
    """A label with its exact type: ``1``, ``True`` and ``1.0`` stay apart."""
    return type(label), label


_IDS = st.sampled_from([0, 1, 2, 3, 4, "a", "b", "c"])
_LABELS = st.sampled_from([1, True, 1.0, 0, False, "x", "y", VIRTUAL_LABEL])


class GraphMachine(RuleBasedStateMachine):
    """Every mutation of :class:`Graph`, held to a frozenset-keyed edge dict.

    The model keeps each edge once, under ``frozenset((u, v))``, next to an
    insertion-ordered vertex dict; the graph must agree with it on every
    edge query after every step, and raise exactly where the model says.
    """

    def __init__(self):
        super().__init__()
        self.graph = Graph(name="machine")
        self.vertices = {}
        self.edges = {}

    @rule(vertex=_IDS, label=_LABELS)
    def add_vertex(self, vertex, label):
        if vertex in self.vertices:
            with pytest.raises(DuplicateVertexError):
                self.graph.add_vertex(vertex, label)
        elif label == VIRTUAL_LABEL:
            with pytest.raises(InvalidLabelError):
                self.graph.add_vertex(vertex, label)
        else:
            self.graph.add_vertex(vertex, label)
            self.vertices[vertex] = label

    @rule(vertex=_IDS)
    def remove_vertex(self, vertex):
        if vertex not in self.vertices:
            with pytest.raises(MissingVertexError):
                self.graph.remove_vertex(vertex)
        elif any(vertex in key for key in self.edges):
            with pytest.raises(SelfLoopError):
                self.graph.remove_vertex(vertex)
        else:
            self.graph.remove_vertex(vertex)
            del self.vertices[vertex]

    @rule(vertex=_IDS, label=_LABELS)
    def relabel_vertex(self, vertex, label):
        if vertex not in self.vertices:
            with pytest.raises(MissingVertexError):
                self.graph.relabel_vertex(vertex, label)
        elif label == VIRTUAL_LABEL:
            with pytest.raises(InvalidLabelError):
                self.graph.relabel_vertex(vertex, label)
        else:
            self.graph.relabel_vertex(vertex, label)
            self.vertices[vertex] = label

    @rule(u=_IDS, v=_IDS, label=_LABELS)
    def add_edge(self, u, v, label):
        key = frozenset((u, v))
        if u == v:
            expected = SelfLoopError
        elif u not in self.vertices or v not in self.vertices:
            expected = MissingVertexError
        elif label == VIRTUAL_LABEL:
            expected = InvalidLabelError
        elif key in self.edges:
            expected = DuplicateEdgeError
        else:
            self.graph.add_edge(u, v, label)
            self.edges[key] = label
            return
        with pytest.raises(expected):
            self.graph.add_edge(u, v, label)

    @rule(u=_IDS, v=_IDS)
    def remove_edge(self, u, v):
        key = frozenset((u, v))
        if u == v or key not in self.edges:
            with pytest.raises(MissingEdgeError):
                self.graph.remove_edge(u, v)
        else:
            self.graph.remove_edge(u, v)
            del self.edges[key]

    @rule(u=_IDS, v=_IDS, label=_LABELS)
    def relabel_edge(self, u, v, label):
        key = frozenset((u, v))
        if u == v or key not in self.edges:
            with pytest.raises(MissingEdgeError):
                self.graph.relabel_edge(u, v, label)
        elif label == VIRTUAL_LABEL:
            with pytest.raises(InvalidLabelError):
                self.graph.relabel_edge(u, v, label)
        else:
            self.graph.relabel_edge(u, v, label)
            self.edges[key] = label

    @invariant()
    def edges_agree_with_the_model(self):
        graph = self.graph
        assert graph.num_edges == len(self.edges)
        order = {vertex: at for at, vertex in enumerate(self.vertices)}
        assert list(graph.vertices()) == list(self.vertices)
        seen = {}
        for u, v, label in graph.edges():
            key = frozenset((u, v))
            assert key not in seen, "each edge is yielded once"
            seen[key] = _typed(label)
            assert order[u] < order[v], "oriented from the endpoint first in vertex order"
            assert graph.has_edge(u, v) and graph.has_edge(v, u)
            assert _typed(graph.edge_label(u, v)) == _typed(graph.edge_label(v, u)) == _typed(label)
        assert seen == {key: _typed(label) for key, label in self.edges.items()}
        for u in self.vertices:
            for v in self.vertices:
                assert graph.has_edge(u, v) == (frozenset((u, v)) in self.edges and u != v)

    @invariant()
    def alphabets_agree_with_the_model(self):
        graph = self.graph
        assert graph.edge_label_set() == frozenset(self.edges.values())
        assert graph.vertex_label_set() == frozenset(self.vertices.values())
        assert graph.label_types() == {*map(type, self.vertices.values()), *map(type, self.edges.values())}

    @invariant()
    def copies_and_pickles_are_equal(self):
        graph = self.graph
        for other in (graph.copy(), pickle.loads(pickle.dumps(graph))):
            assert other == graph and not other != graph
            assert other.num_edges == graph.num_edges
            assert other.label_types() == graph.label_types()
            assert list(other.edges()) == list(graph.edges())


GraphMachine.TestCase.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)
TestGraphStateMachine = GraphMachine.TestCase


class TestEdgeOrder:
    def test_edges_are_oriented_by_vertex_order(self):
        graph = Graph.from_dicts({"c": "A", "a": "B", "b": "C"}, {})
        graph.add_edge("b", "c", "x")
        graph.add_edge("a", "b", "y")
        graph.add_edge("c", "a", "z")
        assert list(graph.edges()) == [("c", "b", "x"), ("c", "a", "z"), ("a", "b", "y")]

    def test_edge_order_does_not_follow_the_hash_seed(self):
        script = textwrap.dedent("""
            import random
            from repro.graphs.graph import Graph
            rng = random.Random(3)
            graph = Graph()
            ids = [f"v{index}" for index in range(30)]
            for vertex in ids:
                graph.add_vertex(vertex, "A")
            pairs = [(u, v) for at, u in enumerate(ids) for v in ids[at + 1:]]
            for u, v in rng.sample(pairs, 60):
                graph.add_edge(*rng.sample((u, v), 2), "x")
            print(list(graph.edges()))
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        runs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            runs.append(done.stdout)
        assert runs[0] == runs[1]


class TestMemory:
    def test_graphs_cost_at_most_300_bytes_an_edge(self):
        """Bench-shaped graphs (8-120 vertices, 1.3 |V| edges, few labels) stay compact.

        With the frozenset-keyed edge dict beside the adjacency this read ≈ 500.
        """
        rng = random.Random(5)
        sizes = [rng.randint(8, 120) for _ in range(100)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graphs = [random_labeled_graph(n, int(1.3 * n), seed=index) for index, n in enumerate(sizes)]
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert used / sum(graph.num_edges for graph in graphs) <= 300
