"""Greedy approximation of the linear sum assignment problem.

Greedy-Sort-GED (Riesen, Ferrer & Bunke, 2015) replaces the exact Hungarian
solution with a quadratic-time greedy assignment: take the (row, column)
pairs in globally cost-sorted order and commit each whose row and column are
both still free.  The resulting assignment cost is not a bound on GED but
is empirically a good estimate, which is exactly how the paper uses it as a
competitor.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.exceptions import AssignmentError

__all__ = ["sorted_greedy_assignment"]


def _validate(cost_matrix: Sequence[Sequence[float]]) -> int:
    num_rows = len(cost_matrix)
    if num_rows == 0:
        return 0
    num_cols = len(cost_matrix[0])
    for row in cost_matrix:
        if len(row) != num_cols:
            raise AssignmentError("cost matrix rows must all have the same length")
    if num_cols < num_rows:
        raise AssignmentError("cost matrix must have at least as many columns as rows")
    return num_rows


def sorted_greedy_assignment(cost_matrix: Sequence[Sequence[float]]) -> List[int]:
    """Globally sorted greedy assignment (the "sort" in Greedy-Sort-GED).

    All (row, column) pairs are sorted by cost and committed greedily as long
    as both endpoints are still free; runs in ``O(n·m·log(n·m))`` time, the
    ``O(n² log n²)`` the paper quotes for square matrices.
    """
    num_rows = _validate(cost_matrix)
    if num_rows == 0:
        return []
    num_cols = len(cost_matrix[0])
    pairs = sorted(
        ((cost_matrix[row][column], row, column) for row in range(num_rows) for column in range(num_cols)),
        key=lambda item: item[0],
    )
    assignment = [-1] * num_rows
    used_columns = set()
    assigned_rows = 0
    for _, row, column in pairs:
        if assignment[row] != -1 or column in used_columns:
            continue
        assignment[row] = column
        used_columns.add(column)
        assigned_rows += 1
        if assigned_rows == num_rows:
            break
    if any(column < 0 for column in assignment):
        raise AssignmentError("sorted greedy assignment failed to cover every row")
    return assignment
