"""Unit tests for graph edit operations and edit paths (Definition 1)."""

import pytest

from repro.exceptions import EditOperationError
from repro.graphs.edit_ops import (
    AddEdge,
    AddVertex,
    DeleteEdge,
    DeleteVertex,
    EditPath,
    RelabelEdge,
    RelabelVertex,
)
from repro.graphs.graph import Graph, VIRTUAL_LABEL


class TestSingleOperations:
    def test_add_vertex(self, triangle):
        AddVertex(3, "D").apply(triangle)
        assert triangle.vertex_label(3) == "D"

    def test_add_vertex_virtual_label_rejected(self, triangle):
        with pytest.raises(EditOperationError):
            AddVertex(3, VIRTUAL_LABEL).apply(triangle)

    def test_delete_vertex_requires_isolation(self, triangle):
        with pytest.raises(EditOperationError):
            DeleteVertex(0).apply(triangle)

    def test_delete_isolated_vertex(self):
        graph = Graph()
        graph.add_vertex(0, "A")
        DeleteVertex(0).apply(graph)
        assert graph.num_vertices == 0

    def test_relabel_vertex(self, triangle):
        RelabelVertex(0, "Z").apply(triangle)
        assert triangle.vertex_label(0) == "Z"

    def test_relabel_vertex_to_same_label_rejected(self, triangle):
        with pytest.raises(EditOperationError):
            RelabelVertex(0, "A").apply(triangle)

    def test_add_edge(self, path_graph):
        AddEdge(0, 3, "z").apply(path_graph)
        assert path_graph.edge_label(0, 3) == "z"

    def test_add_edge_virtual_label_rejected(self, path_graph):
        with pytest.raises(EditOperationError):
            AddEdge(0, 3, VIRTUAL_LABEL).apply(path_graph)

    def test_delete_edge(self, triangle):
        DeleteEdge(0, 1).apply(triangle)
        assert not triangle.has_edge(0, 1)

    def test_relabel_edge(self, triangle):
        RelabelEdge(0, 1, "q").apply(triangle)
        assert triangle.edge_label(0, 1) == "q"

    def test_relabel_edge_to_same_label_rejected(self, triangle):
        with pytest.raises(EditOperationError):
            RelabelEdge(0, 1, "x").apply(triangle)

    def test_operation_codes(self):
        assert AddVertex(0, "A").code == "AV"
        assert DeleteVertex(0).code == "DV"
        assert RelabelVertex(0, "A").code == "RV"
        assert AddEdge(0, 1, "x").code == "AE"
        assert DeleteEdge(0, 1).code == "DE"
        assert RelabelEdge(0, 1, "x").code == "RE"

    def test_vertex_vs_edge_classification(self):
        assert AddVertex(0, "A").code[1] == "V"
        assert DeleteEdge(0, 1).code[1] == "E"


class TestEditPath:
    def test_paper_example1_path_transforms_g1_into_g2_shape(self, paper_g1):
        """The three operations of Example 1 applied to G1 (modulo vertex ids)."""
        path = EditPath(
            [
                DeleteEdge("v1", "v3"),
                AddVertex("v4", "A"),
                AddEdge("v3", "v4", "x"),
            ]
        )
        result = path.apply_to(paper_g1)
        assert len(path) == 3
        assert result.num_vertices == 4
        assert result.num_edges == 3
        assert result.edge_label("v3", "v4") == "x"
        assert not result.has_edge("v1", "v3")
        # the original graph is untouched (apply_to copies by default)
        assert paper_g1.num_vertices == 3

    def test_apply_in_place(self, triangle):
        path = EditPath([RelabelVertex(0, "Z")])
        result = path.apply_to(triangle, in_place=True)
        assert result is triangle
        assert triangle.vertex_label(0) == "Z"

    def test_verify_accepts_correct_target(self, triangle):
        target = triangle.copy()
        target.relabel_vertex(0, "Z")
        path = EditPath([RelabelVertex(0, "Z")])
        assert path.verify(triangle, target)

    def test_verify_rejects_wrong_target(self, triangle):
        target = triangle.copy()
        target.relabel_vertex(0, "Q")
        path = EditPath([RelabelVertex(0, "Z")])
        assert not path.verify(triangle, target)

    def test_verify_rejects_inapplicable_path(self, triangle):
        path = EditPath([DeleteEdge(0, 99)])
        assert not path.verify(triangle, triangle)

    def test_count_and_iteration(self):
        path = EditPath([RelabelVertex(0, "Z"), RelabelEdge(0, 1, "w"), RelabelVertex(1, "Y")])
        assert path.count("RV") == 2
        assert path.count("RE") == 1
        assert [op.code for op in path] == ["RV", "RE", "RV"]
        assert path[0].code == "RV"
        assert "len=3" in repr(path)

    def test_append_and_extend(self):
        path = EditPath()
        path.append(RelabelVertex(0, "Z"))
        path.extend([RelabelVertex(1, "Y")])
        assert len(path) == 2

    def test_apply_to_copies(self, triangle):
        result = EditPath([RelabelVertex(0, "Z")]).apply_to(triangle)
        assert result.vertex_label(0) == "Z"
        assert triangle.vertex_label(0) == "A"
