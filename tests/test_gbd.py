"""Tests for the Graph Branch Distance (Definition 4) and its variant."""

import pytest

from repro.core.branches import branch_multiset
from repro.core.gbd import (
    branch_intersection_size,
    ged_lower_bound,
    graph_branch_distance,
    variant_graph_branch_distance,
)
from repro.graphs.graph import Graph


class TestGraphBranchDistance:
    def test_paper_example2_value(self, paper_g1, paper_g2):
        """Example 2: GBD(G1, G2) = max(3, 4) - 1 = 3."""
        assert graph_branch_distance(paper_g1, paper_g2) == 3

    def test_symmetry(self, paper_g1, paper_g2):
        assert graph_branch_distance(paper_g1, paper_g2) == graph_branch_distance(
            paper_g2, paper_g1
        )

    def test_identity(self, paper_g1):
        assert graph_branch_distance(paper_g1, paper_g1.copy()) == 0

    def test_precomputed_branches_give_same_answer(self, paper_g1, paper_g2):
        b1, b2 = branch_multiset(paper_g1), branch_multiset(paper_g2)
        assert (
            graph_branch_distance(paper_g1, paper_g2, branches1=b1, branches2=b2)
            == graph_branch_distance(paper_g1, paper_g2)
        )

    def test_single_relabel_changes_gbd_by_at_most_two(self, triangle):
        other = triangle.copy()
        other.relabel_edge(0, 1, "w")
        assert 1 <= graph_branch_distance(triangle, other) <= 2

    def test_disjoint_label_sets_give_maximal_distance(self):
        g1 = Graph.from_dicts({0: "A", 1: "A"}, {(0, 1): "x"})
        g2 = Graph.from_dicts({0: "B", 1: "B", 2: "B"}, {(0, 1): "y"})
        assert graph_branch_distance(g1, g2) == 3

    def test_empty_graphs(self):
        assert graph_branch_distance(Graph(), Graph()) == 0

    def test_empty_versus_nonempty(self, triangle):
        assert graph_branch_distance(Graph(), triangle) == 3

    def test_value_bounded_by_larger_vertex_count(self, paper_g1, paper_g2):
        assert 0 <= graph_branch_distance(paper_g1, paper_g2) <= 4

    def test_example4_pair(self, example4_g1, example4_g2):
        """Example 4: swapping the two edge labels changes both end branches."""
        assert graph_branch_distance(example4_g1, example4_g2) == 2


class TestBranchIntersectionSize:
    def test_matches_counter_intersection(self, paper_g1, paper_g2):
        counts1, counts2 = branch_multiset(paper_g1), branch_multiset(paper_g2)
        assert branch_intersection_size(counts1, counts2) == sum((counts1 & counts2).values())

    def test_order_independent(self, paper_g1, paper_g2):
        counts1, counts2 = branch_multiset(paper_g1), branch_multiset(paper_g2)
        assert branch_intersection_size(counts1, counts2) == branch_intersection_size(
            counts2, counts1
        )

    def test_self_intersection_is_vertex_count(self, paper_g2):
        counts = branch_multiset(paper_g2)
        assert branch_intersection_size(counts, counts) == 4


class TestVariantGBD:
    def test_weight_one_equals_gbd(self, paper_g1, paper_g2):
        assert variant_graph_branch_distance(paper_g1, paper_g2, 1.0) == pytest.approx(
            graph_branch_distance(paper_g1, paper_g2)
        )

    def test_weight_zero_ignores_intersection(self, paper_g1, paper_g2):
        assert variant_graph_branch_distance(paper_g1, paper_g2, 0.0) == pytest.approx(4.0)

    def test_paper_equation26_with_half_weight(self, paper_g1, paper_g2):
        assert variant_graph_branch_distance(paper_g1, paper_g2, 0.5) == pytest.approx(3.5)

    def test_negative_weight_rejected(self, paper_g1, paper_g2):
        with pytest.raises(ValueError):
            variant_graph_branch_distance(paper_g1, paper_g2, -0.1)


class TestGbdGedRelation:
    def test_gbd_at_most_twice_exact_ged_on_paper_example(self, paper_g1, paper_g2):
        from repro.baselines.ged_exact import exact_ged

        gbd = graph_branch_distance(paper_g1, paper_g2)
        ged = exact_ged(paper_g1, paper_g2)
        assert gbd <= 2 * ged

    def test_lower_bound_helper(self):
        assert ged_lower_bound(0) == 0
        assert ged_lower_bound(3) == 2
        assert ged_lower_bound(4) == 2
