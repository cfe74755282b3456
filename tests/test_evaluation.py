"""Tests for the evaluation layer: metrics, ground-truth oracle, runner, reporting."""

import pytest

from repro.baselines.branch_filter import BranchFilterGED
from repro.baselines.lsap import LSAPGED
from repro.datasets import make_fingerprint_like
from repro.evaluation.ground_truth import GroundTruthOracle, true_answer_set
from repro.evaluation.metrics import (
    ConfusionCounts,
    aggregate_counts,
    evaluate_answer,
)
from repro.evaluation.reporting import Table, format_series, format_table
from repro.evaluation.runner import ExperimentRunner


class TestMetrics:
    def test_perfect_answer(self):
        counts = evaluate_answer({1, 2, 3}, {1, 2, 3})
        assert counts.precision == counts.recall == counts.f1 == 1.0

    def test_partial_overlap(self):
        counts = evaluate_answer({1, 2, 3, 4}, {3, 4, 5})
        assert counts.true_positives == 2
        assert counts.false_positives == 2
        assert counts.false_negatives == 1
        assert counts.precision == pytest.approx(0.5)
        assert counts.recall == pytest.approx(2 / 3)
        assert counts.f1 == pytest.approx(2 * 0.5 * (2 / 3) / (0.5 + 2 / 3))

    def test_empty_retrieved_and_empty_relevant(self):
        counts = evaluate_answer(set(), set())
        assert counts.precision == counts.recall == counts.f1 == 1.0

    def test_empty_retrieved_nonempty_relevant(self):
        counts = evaluate_answer(set(), {1})
        assert counts.precision == 1.0
        assert counts.recall == 0.0
        assert counts.f1 == 0.0

    def test_nonempty_retrieved_empty_relevant(self):
        counts = evaluate_answer({1}, set())
        assert counts.precision == 0.0
        assert counts.recall == 1.0

    def test_aggregation_pools_counts(self):
        pooled = aggregate_counts(
            [ConfusionCounts(1, 1, 0), ConfusionCounts(2, 0, 2)]
        )
        assert pooled.true_positives == 3
        assert pooled.false_positives == 1
        assert pooled.false_negatives == 2
        assert pooled.precision == pytest.approx(0.75)
        assert pooled.recall == pytest.approx(0.6)

    def test_f1_zero_when_both_zero(self):
        assert ConfusionCounts(0, 5, 5).f1 == 0.0


class TestGroundTruthOracle:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_fingerprint_like(num_templates=4, family_size=5, seed=2)

    def test_true_answer_set_helper(self, dataset):
        answers = true_answer_set(dataset, 0, tau_hat=10)
        assert len(answers) >= 1

    def test_oracle_matches_recorded_truth(self, dataset):
        oracle = GroundTruthOracle(dataset)
        key = dataset.query_key(0)
        for tau_hat in (0, 2, 5, 10):
            recorded = {
                graph_id
                for graph_id in range(len(dataset.database_graphs))
                if (ged := dataset.ground_truth.ged(key, graph_id)) is not None and ged <= tau_hat
            }
            assert oracle.answer_set(0, tau_hat) == recorded

    def test_answer_sets_monotone_in_threshold(self, dataset):
        oracle = GroundTruthOracle(dataset)
        assert oracle.answer_set(0, 1) <= oracle.answer_set(0, 5) <= oracle.answer_set(0, 10)

    def test_build_database_covers_all_graphs(self, dataset):
        database = GroundTruthOracle(dataset).build_database()
        assert len(database) == dataset.num_database_graphs


class TestExperimentRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        dataset = make_fingerprint_like(num_templates=4, family_size=5, seed=3)
        return ExperimentRunner(dataset, max_queries=2)

    def test_gbda_run_produces_metrics(self, runner):
        search = runner.gbda(max_tau=4, num_prior_pairs=100, seed=0)
        result = runner.run_gbda(search, tau_hat=3, gamma=0.8)
        assert result.method == "GBDA"
        assert result.num_queries == 2
        assert 0.0 <= result.precision <= 1.0
        assert 0.0 <= result.recall <= 1.0
        assert result.average_query_seconds > 0.0
        assert result.offline_seconds > 0.0
        assert len(result.answers) == 2

    def test_gbda_cache_reuses_fitted_search(self, runner):
        first = runner.gbda(max_tau=4, num_prior_pairs=100, seed=0)
        second = runner.gbda(max_tau=4, num_prior_pairs=100, seed=0)
        assert first is second

    def test_baseline_run(self, runner):
        result = runner.run_baseline(BranchFilterGED(), tau_hat=3)
        assert result.method == "Branch-LB"
        assert result.gamma is None
        assert result.recall == 1.0, "a GED lower bound never misses a true answer"

    def test_lsap_recall_is_one(self, runner):
        result = runner.run_baseline(LSAPGED(), tau_hat=3)
        assert result.recall == 1.0

    def test_effectiveness_sweep_shapes(self, runner):
        results = runner.effectiveness_sweep(
            tau_values=[2, 4],
            gamma_values=[0.7, 0.9],
            baselines=[BranchFilterGED()],
            num_prior_pairs=100,
        )
        # 2 thresholds * (2 gamma settings + 1 baseline) = 6 results
        assert len(results) == 6
        labels = {result.method for result in results}
        assert "GBDA(γ=0.70)" in labels
        assert "Branch-LB" in labels

    def test_max_queries_cap(self, runner):
        assert len(runner.query_indices) == 2


class TestReporting:
    def test_format_table_alignment_and_values(self):
        text = format_table("Demo", ["name", "value"], [["alpha", 1.5], ["b", 20000.0]])
        assert "== Demo ==" in text
        assert "alpha" in text
        assert "2.000e+04" in text

    def test_table_object_add_row_validation(self):
        table = Table("T", ["a", "b"])
        table.add_row(1, 2)
        with pytest.raises(ValueError):
            table.add_row(1)
        assert "T" in table.render()

    def test_table_add_mapping(self):
        table = Table("T", ["a", "b"])
        table.add_mapping({"a": 1, "b": 2, "ignored": 3})
        assert table.rows == [[1, 2]]

    def test_format_series_layout(self):
        text = format_series(
            "Figure X", "tau", [1, 2, 3], {"GBDA": [0.9, 0.8, 0.7], "LSAP": [0.5, 0.4, 0.3]}
        )
        lines = text.splitlines()
        assert lines[1].split()[:3] == ["tau", "GBDA", "LSAP"]
        assert len(lines) == 3 + 3

    def test_format_cell_conventions(self):
        text = format_table("T", ["x"], [[True], [0.000001], [0.0]])
        assert "yes" in text
        assert "1.000e-06" in text
