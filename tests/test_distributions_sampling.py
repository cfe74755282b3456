"""Tests for normal-distribution helpers, continuity correction, and pair sampling."""

import math
import random

import numpy as np
import pytest

from repro.stats.distributions import (
    continuity_corrected_pmf,
    normal_cdf,
    normal_interval_probability,
    normal_pdf,
)
from repro.stats.sampling import _unrank_pair, sample_items, sample_pairs


class TestNormalHelpers:
    def test_pdf_peak_at_mean(self):
        assert normal_pdf(0.0, 0.0, 1.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))
        assert normal_pdf(0.0, 0.0, 1.0) > normal_pdf(1.0, 0.0, 1.0)

    def test_pdf_requires_positive_std(self):
        with pytest.raises(ValueError):
            normal_pdf(0.0, 0.0, 0.0)

    def test_cdf_known_values(self):
        assert normal_cdf(0.0, 0.0, 1.0) == pytest.approx(0.5)
        assert normal_cdf(1.96, 0.0, 1.0) == pytest.approx(0.975, abs=1e-3)

    def test_cdf_requires_positive_std(self):
        with pytest.raises(ValueError):
            normal_cdf(0.0, 0.0, -1.0)

    def test_interval_probability_symmetric(self):
        assert normal_interval_probability(-1.0, 1.0, 0.0, 1.0) == pytest.approx(0.6827, abs=1e-3)

    def test_interval_probability_handles_reversed_bounds(self):
        forward = normal_interval_probability(-1.0, 1.0, 0.0, 1.0)
        reverse = normal_interval_probability(1.0, -1.0, 0.0, 1.0)
        assert forward == pytest.approx(reverse)


class TestContinuityCorrection:
    def test_single_component_matches_interval(self):
        value = continuity_corrected_pmf(3, [1.0], [3.0], [1.0])
        assert value == pytest.approx(normal_interval_probability(2.5, 3.5, 3.0, 1.0))

    def test_mixture_weights_respected(self):
        value = continuity_corrected_pmf(0, [0.5, 0.5], [0.0, 10.0], [1.0, 1.0])
        assert value == pytest.approx(0.5 * normal_interval_probability(-0.5, 0.5, 0.0, 1.0), abs=1e-6)

    def test_mismatched_parameter_lengths_rejected(self):
        with pytest.raises(ValueError):
            continuity_corrected_pmf(0, [1.0], [0.0, 1.0], [1.0])

    def test_equation14_sums_to_one_over_integers(self):
        weights, means, stds = [0.4, 0.6], [2.0, 7.0], [1.0, 1.5]
        total = sum(continuity_corrected_pmf(v, weights, means, stds) for v in range(-10, 30))
        assert total == pytest.approx(1.0, abs=1e-6)


class TestSampling:
    def test_sample_items_without_replacement(self):
        items = list(range(100))
        sample = sample_items(items, 10, seed=1)
        assert len(sample) == len(set(sample)) == 10

    def test_sample_items_returns_all_when_count_exceeds(self):
        assert sorted(sample_items([1, 2, 3], 10)) == [1, 2, 3]

    def test_sample_pairs_distinct(self):
        pairs = sample_pairs(list(range(20)), 30, seed=2)
        assert len(pairs) == 30
        assert len(set(pairs)) == 30, "distinct pairs are never repeated"
        assert all(a != b for a, b in pairs)

    def test_sample_pairs_all_when_requesting_more_than_exist(self):
        pairs = sample_pairs([1, 2, 3], 100)
        assert len(pairs) == 3

    def test_sample_pairs_with_replacement_mode(self):
        pairs = sample_pairs(list(range(5)), 50, seed=3, distinct=False)
        assert len(pairs) == 50
        assert all(a != b for a, b in pairs)

    def test_sample_pairs_tiny_population(self):
        assert sample_pairs([1], 5) == []
        assert sample_pairs([], 5) == []

    def test_sample_pairs_reproducible(self):
        a = sample_pairs(list(range(50)), 20, seed=7)
        b = sample_pairs(list(range(50)), 20, seed=7)
        assert a == b

    def test_sample_pairs_accepts_rng_instance(self):
        rng = random.Random(11)
        pairs = sample_pairs(list(range(10)), 5, seed=rng)
        assert len(pairs) == 5


def _scan_unrank(flat_indices, n):
    """Oracle: walk the rows' lengths (one cumulative scan), then place each index."""
    starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64))))
    indices = np.asarray(flat_indices, dtype=np.int64)
    rows = np.searchsorted(starts, indices, side="right") - 1
    return [(int(i), int(f - starts[i] + i + 1)) for i, f in zip(rows, indices)]


class TestUnrankPair:
    def test_every_index_matches_lexicographic_enumeration(self):
        for n in range(2, 81):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            assert [_unrank_pair(f, n) for f in range(len(pairs))] == pairs

    @pytest.mark.parametrize("n", [4000, 40_000, 1_000_000])
    def test_endpoints_and_random_indices_match_the_scan(self, n):
        total = n * (n - 1) // 2
        rng = random.Random(n)
        indices = [0, 1, total - 2, total - 1] + [rng.randrange(total) for _ in range(200)]
        assert [_unrank_pair(f, n) for f in indices] == _scan_unrank(indices, n)
        assert _unrank_pair(total - 1, n) == (n - 2, n - 1)

    @pytest.mark.parametrize("n", [2, 3, 80, 40_000])
    def test_out_of_range_indices_are_rejected(self, n):
        with pytest.raises(ValueError):
            _unrank_pair(-1, n)
        with pytest.raises(ValueError):
            _unrank_pair(n * (n - 1) // 2, n)

    @pytest.mark.parametrize("n", [40_000, 16_000, 4000])
    def test_sample_pairs_matches_the_scan_at_bench_sizes(self, n):
        chosen = random.Random(0).sample(range(n * (n - 1) // 2), 2000)
        assert sample_pairs(range(n), 2000, seed=random.Random(0)) == _scan_unrank(chosen, n)
