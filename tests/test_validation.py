"""Tests for graph validation and collection statistics helpers."""

import math
from collections import Counter

import pytest

from repro.exceptions import GraphError
from repro.graphs.generators import random_labeled_graph, scale_free_labeled_graph
from repro.graphs.graph import Graph, VIRTUAL_LABEL
from repro.graphs.validation import (
    collection_statistics,
    looks_scale_free,
    powerlaw_exponent_estimate,
    validate_graph,
)


class TestValidateGraph:
    def test_valid_graph_passes(self, triangle):
        validate_graph(triangle, require_connected=True)

    def test_virtual_vertex_label_rejected(self):
        graph = Graph()
        graph.add_vertex(0, VIRTUAL_LABEL, allow_virtual=True)
        with pytest.raises(GraphError):
            validate_graph(graph)

    def test_virtual_edge_label_rejected(self):
        graph = Graph()
        graph.add_vertex(0, "A")
        graph.add_vertex(1, "B")
        graph.add_edge(0, 1, VIRTUAL_LABEL, allow_virtual=True)
        with pytest.raises(GraphError):
            validate_graph(graph)

    @pytest.mark.parametrize("at", [0, 1])
    def test_endpoints_that_disagree_are_rejected(self, triangle, at):
        # The adjacency is the only edge store: each endpoint's entry must match the other's.
        triangle._adjacency[at][1 - at] = "w"
        with pytest.raises(GraphError, match="different labels"):
            validate_graph(triangle)

    @pytest.mark.parametrize("at", [0, 1])
    def test_a_one_sided_adjacency_entry_is_rejected(self, triangle, at):
        del triangle._adjacency[at][1 - at]
        with pytest.raises(GraphError):
            validate_graph(triangle)

    def test_disconnected_graph_rejected_when_required(self):
        graph = Graph.from_dicts({0: "A", 1: "B"}, {})
        validate_graph(graph)  # fine without the connectivity requirement
        with pytest.raises(GraphError):
            validate_graph(graph, require_connected=True)


class TestDegreeHelpers:
    def test_degree_histogram(self, path_graph):
        histogram = Counter(path_graph.degree(v) for v in path_graph.vertices())
        assert histogram[1] == 2
        assert histogram[2] == 2

    def test_degree_sequence_sorted_descending(self, path_graph):
        degrees = sorted((path_graph.degree(v) for v in path_graph.vertices()), reverse=True)
        assert degrees == [2, 2, 1, 1]

    def test_powerlaw_estimate_needs_enough_data(self, triangle):
        assert math.isnan(powerlaw_exponent_estimate([triangle]))

    def test_powerlaw_estimate_on_scale_free_graphs(self):
        graphs = [scale_free_labeled_graph(300, edges_per_vertex=3, seed=s) for s in range(3)]
        exponent = powerlaw_exponent_estimate(graphs)
        assert 1.2 < exponent < 4.5

    def test_looks_scale_free_flags(self):
        scale_free = [scale_free_labeled_graph(400, edges_per_vertex=3, seed=s) for s in range(2)]
        assert looks_scale_free(scale_free)


class TestCollectionStatistics:
    def test_empty_collection(self):
        stats = collection_statistics([])
        assert stats.num_graphs == 0
        assert stats.average_degree == 0.0

    def test_basic_statistics(self, triangle, path_graph):
        stats = collection_statistics([triangle, path_graph])
        assert stats.num_graphs == 2
        assert stats.max_vertices == 4
        assert stats.max_edges == 3
        assert stats.average_vertices == pytest.approx(3.5)
        assert stats.num_vertex_labels == 3
        assert stats.num_edge_labels == 3

    def test_average_degree_matches_hand_computation(self, triangle, path_graph):
        stats = collection_statistics([triangle, path_graph])
        expected = 2.0 * (3 + 3) / (3 + 4)
        assert stats.average_degree == pytest.approx(expected)

    def test_as_row_is_serialisable(self, triangle):
        row = collection_statistics([triangle]).as_row()
        assert row["num_graphs"] == 1

    def test_generated_collections_match_requested_regime(self):
        graphs = [random_labeled_graph(20, 21, seed=s) for s in range(10)]
        stats = collection_statistics(graphs)
        assert 1.5 <= stats.average_degree <= 2.5
