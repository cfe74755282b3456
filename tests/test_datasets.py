"""Tests for the dataset generators: known-GED families, Syn-1/Syn-2, look-alikes."""

import pytest

from repro.baselines.ged_exact import exact_ged
from repro.datasets import (
    find_modification_center,
    make_aasd_like,
    make_aids_like,
    make_fingerprint_like,
    make_grec_like,
    make_known_ged_family,
    make_syn1,
    make_syn2,
)
from repro.datasets.registry import DATASET_BUILDERS, Dataset, GroundTruth
from repro.exceptions import DatasetError
from repro.graphs.generators import random_labeled_graph, scale_free_labeled_graph
from repro.graphs.graph import Graph
from repro.graphs.validation import collection_statistics, validate_graph


class TestModificationCenter:
    def test_star_with_distinct_neighbors_is_a_center(self):
        graph = Graph.from_dicts(
            {0: "hub", 1: "A", 2: "B", 3: "C"},
            {(0, 1): "x", (0, 2): "x", (0, 3): "x"},
        )
        assert find_modification_center(graph, min_degree=3) == 0

    def test_star_with_identical_neighbors_is_not_a_center(self):
        graph = Graph.from_dicts(
            {0: "hub", 1: "A", 2: "A", 3: "A"},
            {(0, 1): "x", (0, 2): "x", (0, 3): "x"},
        )
        assert find_modification_center(graph, min_degree=3) is None

    def test_degree_threshold_respected(self):
        graph = Graph.from_dicts({0: "hub", 1: "A"}, {(0, 1): "x"})
        assert find_modification_center(graph, min_degree=3) is None


class TestKnownGEDFamily:
    def test_family_size_and_template_identity(self):
        template = scale_free_labeled_graph(30, seed=1, name="t")
        family = make_known_ged_family(template, family_size=6, max_distance=4, seed=2)
        assert len(family) == 6
        assert family.members[0] is template
        assert family.edits_from_template[0] == {}

    def test_pairwise_ged_is_symmetric_and_bounded(self):
        template = scale_free_labeled_graph(25, seed=3, name="t")
        family = make_known_ged_family(template, family_size=8, max_distance=5, seed=4)
        for i in range(len(family)):
            assert family.ged(i, i) == 0
            for j in range(len(family)):
                assert family.ged(i, j) == family.ged(j, i)
                assert 0 <= family.ged(i, j) <= 2 * 5

    def test_recorded_ged_matches_exact_ged_on_small_templates(self):
        """The Appendix-I claim, verified against A* on graphs small enough for it."""
        template = random_labeled_graph(7, 9, seed=5, name="t")
        family = make_known_ged_family(template, family_size=5, max_distance=3, seed=6)
        for i in range(len(family)):
            for j in range(i + 1, len(family)):
                expected = family.ged(i, j)
                actual = exact_ged(family.members[i], family.members[j])
                assert actual == expected, f"pair ({i}, {j})"

    def test_members_are_valid_graphs(self):
        template = scale_free_labeled_graph(20, seed=7, name="t")
        family = make_known_ged_family(template, family_size=5, max_distance=4, seed=8)
        for member in family.members:
            validate_graph(member, require_connected=True)

    def test_vertex_slots_used_when_center_degree_is_small(self):
        # A path graph has maximum degree 2; requesting distance 5 forces
        # vertex-relabel slots to be added.
        template = Graph(name="path")
        for v in range(12):
            template.add_vertex(v, f"L{v}")
        for v in range(1, 12):
            template.add_edge(v - 1, v, "e")
        family = make_known_ged_family(template, family_size=4, max_distance=5, seed=9)
        assert len(family.slots) >= 5
        assert any(kind == "vertex" for kind, _ in family.slots)

    def test_tiny_template_rejected(self):
        template = Graph.from_dicts({0: "A"}, {})
        with pytest.raises(DatasetError):
            make_known_ged_family(template, family_size=3, max_distance=2, seed=0)

    def test_invalid_family_size(self):
        template = scale_free_labeled_graph(10, seed=0)
        with pytest.raises(DatasetError):
            make_known_ged_family(template, family_size=0, max_distance=2)


class TestSyntheticDatasets:
    def test_syn1_structure(self):
        dataset = make_syn1(sizes=(30, 60), families_per_size=1, family_size=6, seed=1)
        assert dataset.name == "Syn-1"
        assert dataset.scale_free
        assert dataset.num_database_graphs > 0
        assert dataset.num_query_graphs > 0
        assert dataset.ground_truth.known_pairs() > 0

    def test_syn2_is_not_scale_free(self):
        dataset = make_syn2(sizes=(30,), families_per_size=1, family_size=5, seed=2)
        assert not dataset.scale_free

    def test_ground_truth_answer_sets_grow_with_threshold(self):
        dataset = make_syn1(sizes=(40,), families_per_size=1, family_size=8, seed=3)
        key = dataset.query_key(0)
        small = dataset.ground_truth.answer_set(key, 1)
        large = dataset.ground_truth.answer_set(key, 10)
        assert small <= large

    def test_queries_not_in_database(self):
        dataset = make_syn1(sizes=(30,), families_per_size=1, family_size=6, seed=4)
        database_names = {graph.name for graph in dataset.database_graphs}
        for query in dataset.query_graphs:
            assert query.name not in database_names


class TestLookAlikeDatasets:
    @pytest.mark.parametrize(
        "builder,name,max_vertices,degree_range",
        [
            (make_aids_like, "AIDS", 95, (1.5, 2.8)),
            (make_fingerprint_like, "Fingerprint", 26, (1.2, 2.3)),
            (make_grec_like, "GREC", 24, (1.5, 3.0)),
        ],
    )
    def test_statistics_match_table3_regime(self, builder, name, max_vertices, degree_range):
        dataset = builder(num_templates=8, family_size=6, seed=1)
        assert dataset.name == name
        stats = collection_statistics(dataset.database_graphs)
        assert stats.max_vertices <= max_vertices
        low, high = degree_range
        assert low <= stats.average_degree <= high

    def test_aasd_is_larger_than_aids_by_default(self):
        aids = make_aids_like(num_templates=4, family_size=4, seed=1)
        aasd = make_aasd_like(num_templates=8, family_size=4, seed=1)
        assert aasd.num_database_graphs > aids.num_database_graphs

    def test_every_dataset_has_complete_ground_truth_for_its_queries(self):
        dataset = make_grec_like(num_templates=4, family_size=5, seed=2)
        for index in range(dataset.num_query_graphs):
            key = dataset.query_key(index)
            assert len(dataset.ground_truth.answer_set(key, 10)) >= 1

    def test_database_graphs_are_valid(self):
        dataset = make_aids_like(num_templates=4, family_size=4, seed=3)
        for graph in dataset.database_graphs[:10]:
            validate_graph(graph)


class TestRegistry:
    def test_known_names_registered(self):
        for name in ("aids", "fingerprint", "grec", "aasd", "syn-1", "syn-2"):
            assert name in DATASET_BUILDERS

    def test_build_dataset_by_name(self):
        dataset = DATASET_BUILDERS["fingerprint"](num_templates=3, family_size=4, seed=5)
        assert isinstance(dataset, Dataset)
        assert dataset.name == "Fingerprint"

    def test_ground_truth_record_validation(self):
        truth = GroundTruth()
        with pytest.raises(DatasetError):
            truth.record("q", 0, -1)
        truth.record("q", 0, 2)
        assert truth.ged("q", 0) == 2
        assert truth.ged("q", 1) is None
        assert truth.answer_set("q", 2) == frozenset({0})
        assert truth.known_pairs() == 1
