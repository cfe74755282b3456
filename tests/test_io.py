"""Tests for graph serialisation (JSON documents, JSON-lines, edge lists)."""

import json

import pytest

from repro.exceptions import DatasetError
from repro.graphs import io as graph_io
from repro.graphs.generators import random_labeled_graph
from repro.graphs.graph import Graph


class TestJsonDocuments:
    def test_round_trip_single_graph(self, triangle):
        text = graph_io.dumps(triangle)
        restored = graph_io.loads(text)
        assert restored == triangle
        assert restored.name == "triangle"

    def test_integer_vertex_ids_survive(self):
        graph = Graph.from_dicts({0: "A", 1: "B"}, {(0, 1): "x"})
        restored = graph_io.loads(graph_io.dumps(graph))
        assert restored.has_vertex(0)
        assert restored.has_edge(0, 1)

    def test_string_vertex_ids_survive(self, paper_g1):
        restored = graph_io.loads(graph_io.dumps(paper_g1))
        assert restored == paper_g1

    def test_dumps_is_valid_json(self, triangle):
        document = json.loads(graph_io.dumps(triangle))
        assert set(document) == {"name", "vertices", "edges"}

    def test_missing_keys_raise(self):
        with pytest.raises(DatasetError):
            graph_io.graph_from_dict({"vertices": {}})

    def test_malformed_edge_entry_raises(self):
        with pytest.raises(DatasetError):
            graph_io.graph_from_dict({"vertices": {"0": "A"}, "edges": [["0", "1"]]})

    def test_save_and_load_file(self, tmp_path, triangle):
        path = tmp_path / "graph.json"
        graph_io.save_graph(triangle, path)
        assert graph_io.load_graph(path) == triangle


class TestCollections:
    def test_round_trip_collection(self, tmp_path):
        graphs = [random_labeled_graph(8, 10, seed=i, name=f"g{i}") for i in range(5)]
        path = tmp_path / "graphs.jsonl"
        graph_io.save_collection(graphs, path)
        restored = graph_io.load_collection(path)
        assert restored == graphs

    def test_blank_lines_are_skipped(self, tmp_path, triangle):
        path = tmp_path / "graphs.jsonl"
        path.write_text(graph_io.dumps(triangle) + "\n\n\n", encoding="utf-8")
        assert len(graph_io.load_collection(path)) == 1

    def test_corrupt_line_reports_line_number(self, tmp_path):
        path = tmp_path / "graphs.jsonl"
        path.write_text("{not json}\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="1"):
            graph_io.load_collection(path)


class TestEdgeListFormat:
    def test_round_trip(self, triangle):
        text = graph_io.to_edge_list(triangle)
        restored = graph_io.from_edge_list(text, name="triangle")
        assert restored == triangle

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_round_trip(self, seed):
        graph = random_labeled_graph(12, 20, seed=seed, name="g")
        assert graph_io.from_edge_list(graph_io.to_edge_list(graph), name="g") == graph

    def test_comments_and_blank_lines_ignored(self):
        text = "# comment\n\nv 0 A\nv 1 B\ne 0 1 x\n"
        graph = graph_io.from_edge_list(text)
        assert graph.num_vertices == 2
        assert graph.edge_label(0, 1) == "x"

    def test_malformed_line_raises(self):
        with pytest.raises(DatasetError):
            graph_io.from_edge_list("q 1 2\n")

    def test_labels_with_spaces(self):
        text = "v 0 ring carbon\nv 1 ring carbon\ne 0 1 double bond\n"
        graph = graph_io.from_edge_list(text)
        assert graph.vertex_label(0) == "ring carbon"
        assert graph.edge_label(0, 1) == "double bond"
