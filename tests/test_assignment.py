"""Tests for the Hungarian and greedy assignment solvers."""

import itertools
import random

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.assignment.greedy import sorted_greedy_assignment
from repro.assignment.hungarian import assignment_cost, hungarian
from repro.exceptions import AssignmentError


def _random_matrix(rows, cols, seed):
    rng = random.Random(seed)
    return [[rng.uniform(0, 10) for _ in range(cols)] for _ in range(rows)]


def _brute_force_optimum(matrix):
    rows, cols = len(matrix), len(matrix[0])
    best = float("inf")
    for permutation in itertools.permutations(range(cols), rows):
        best = min(best, sum(matrix[r][c] for r, c in enumerate(permutation)))
    return best


class TestHungarian:
    def test_identity_matrix(self):
        matrix = [[0.0 if i == j else 1.0 for j in range(4)] for i in range(4)]
        assignment = hungarian(matrix)
        assert assignment == [0, 1, 2, 3]
        assert assignment_cost(matrix, assignment) == 0.0

    def test_matches_scipy_on_random_square_matrices(self):
        for seed in range(8):
            matrix = _random_matrix(6, 6, seed)
            ours = assignment_cost(matrix, hungarian(matrix))
            rows, cols = linear_sum_assignment(np.array(matrix))
            theirs = float(np.array(matrix)[rows, cols].sum())
            assert ours == pytest.approx(theirs, abs=1e-9)

    def test_matches_brute_force_on_small_matrices(self):
        for seed in range(5):
            matrix = _random_matrix(4, 4, 100 + seed)
            assert assignment_cost(matrix, hungarian(matrix)) == pytest.approx(
                _brute_force_optimum(matrix), abs=1e-9
            )

    def test_rectangular_matrices_more_columns(self):
        matrix = _random_matrix(3, 6, 7)
        assignment = hungarian(matrix)
        assert len(assignment) == 3
        assert len(set(assignment)) == 3
        rows, cols = linear_sum_assignment(np.array(matrix))
        assert assignment_cost(matrix, assignment) == pytest.approx(
            float(np.array(matrix)[rows, cols].sum()), abs=1e-9
        )

    def test_assignment_is_a_valid_matching(self):
        matrix = _random_matrix(5, 5, 3)
        assignment = hungarian(matrix)
        assert sorted(set(assignment)) == sorted(assignment)

    def test_more_rows_than_columns_rejected(self):
        with pytest.raises(AssignmentError):
            hungarian([[1.0], [2.0]])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(AssignmentError):
            hungarian([[1.0, 2.0], [1.0]])

    def test_empty_matrix(self):
        assert hungarian([]) == []

    def test_negative_costs_supported(self):
        matrix = [[-5.0, 0.0], [0.0, -5.0]]
        assignment = hungarian(matrix)
        assert assignment_cost(matrix, assignment) == pytest.approx(-10.0)


class TestGreedy:
    def test_sorted_greedy_takes_the_global_cheapest_pairs_first(self):
        # Row by row, row 0 would take column 0 (cost 2) and force row 1 into
        # 100; the globally sorted order assigns (1, 0) and then (0, 1).
        matrix = [[2.0, 3.0], [1.0, 100.0]]
        assert sorted_greedy_assignment(matrix) == [1, 0]
        assert assignment_cost(matrix, sorted_greedy_assignment(matrix)) == 4.0

    def test_greedy_never_beats_hungarian(self):
        for seed in range(6):
            matrix = _random_matrix(6, 6, 200 + seed)
            optimal = assignment_cost(matrix, hungarian(matrix))
            assert assignment_cost(matrix, sorted_greedy_assignment(matrix)) >= optimal - 1e-9

    def test_greedy_is_a_valid_matching(self):
        matrix = _random_matrix(5, 8, 9)
        assignment = sorted_greedy_assignment(matrix)
        assert len(assignment) == 5
        assert len(set(assignment)) == 5

    def test_empty_matrix(self):
        assert sorted_greedy_assignment([]) == []

    def test_invalid_shapes_rejected(self):
        with pytest.raises(AssignmentError):
            sorted_greedy_assignment([[1.0], [2.0]])
        with pytest.raises(AssignmentError):
            sorted_greedy_assignment([[1.0, 2.0], [3.0]])
