"""The ragged posterior table and the γ inversion read off its suffix maximum.

:class:`~repro.db.columnar.PosteriorTable` keeps, beside each row Φ(0..e),
its suffix maximum ``M(ϕ) = max_{ϕ' >= ϕ} Φ(ϕ')``.  Both reducers read ``M``:
a γ range is verified exactly when ``M`` reaches γ at its GBD lower bound,
and the largest accepting GBD — the threshold ``max{ϕ : Φ(ϕ) >= γ}`` — is a
binary search on ``M`` (non-increasing), in
:meth:`~repro.db.columnar.PosteriorTable.accepting` and in the compiled
``reduce_range`` alike.  Rows here are drawn to break the easy cases: not
monotone, ties, all zero, runs of exact 1.0; γ is 0, 1 or a value of the row.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import ExecutionCore
from repro.db import columnar
from repro.db.columnar import ColumnarBranchStore, PosteriorTable
from repro.db.database import GraphDatabase
from repro.db.kernels import available_backends

values = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
#: Posterior rows Φ(0..e): anything in [0, 1], all zero, or runs of exact 1.0.
phi_rows = st.one_of(
    st.lists(values, min_size=1, max_size=40),
    st.integers(1, 40).map(lambda size: [0.0] * size),
    st.tuples(
        st.lists(values, max_size=12), st.integers(1, 12), st.lists(values, max_size=12)
    ).map(lambda parts: parts[0] + [1.0] * parts[1] + parts[2]),
)


def _gamma(data, row):
    return data.draw(st.one_of(st.sampled_from([0.0, 1.0]), st.sampled_from(row)), label="γ")


def _largest_accepting(row, gamma):
    """``max{ϕ : Φ(ϕ) >= γ}`` by a scan down from the top, or -1."""
    for phi in range(len(row) - 1, -1, -1):
        if row[phi] >= gamma:
            return phi
    return -1


class _RowPosterior:
    """An estimator whose posterior rows are given: row ``e`` is ``rows[e]``."""

    def __init__(self, rows):
        self.rows = rows

    def posterior_row(self, tau_hat, extended_order):
        return self.rows[extended_order]


@settings(max_examples=300, deadline=None)
@given(row=phi_rows, data=st.data())
def test_the_suffix_maximum_inverts_gamma_like_a_scan(row, data):
    gamma = _gamma(data, row)
    order = len(row) - 1
    table = PosteriorTable.from_rows({order: row})
    best = table.best[table.offsets[order] :]
    assert best.tolist() == [max(row[phi:]) for phi in range(len(row))]
    threshold = _largest_accepting(row, gamma)
    assert table.accepting(order, gamma) == threshold
    core = ExecutionCore(GraphDatabase([]), _RowPosterior({order: row}), max_tau=0)
    assert core.acceptance_threshold(0, gamma, order) == threshold
    for phi in range(len(row)):
        assert (best[phi] >= gamma) == (phi <= threshold)


@settings(max_examples=150, deadline=None)
@given(
    published=st.dictionaries(st.integers(0, 30), st.integers(0, 10_000), max_size=6),
    added=st.dictionaries(st.integers(0, 40), st.integers(0, 10_000), max_size=6),
)
def test_copy_on_write_growth_never_changes_a_published_row(published, added):
    def row(order, seed):
        return np.random.default_rng(seed).choice([0.0, 0.5, 1.0, 0.3], size=order + 1)

    table = PosteriorTable.from_rows({order: row(order, seed) for order, seed in published.items()})
    before = [array.copy() for array in table]
    rows = {order: table.row(order).copy() for order in published}
    grown = table.grown({order: row(order, seed) for order, seed in added.items()})
    for mine, theirs in zip(table, before):  # the published arrays, untouched
        assert np.array_equal(mine, theirs) and not mine.flags.writeable
    for order, values_before in rows.items():  # a row held keeps its values
        assert grown.row(order).tolist() == values_before.tolist()
    for order, seed in added.items():
        if order not in published:
            assert grown.row(order).tolist() == row(order, seed).tolist()
    filled = np.flatnonzero(grown.offsets >= 0)
    assert set(filled.tolist()) == set(published) | set(added)
    assert len(grown.phi) == len(grown.best) == int((filled + 1).sum())
    if set(added) <= set(published):
        assert grown is table


def test_a_row_is_refused_without_its_cells():
    with pytest.raises(ValueError, match="row 3 needs 4 values"):
        PosteriorTable.from_rows({3: [1.0, 0.5]})
    with pytest.raises(ValueError, match="non-negative"):
        PosteriorTable.from_rows({-1: [1.0]})


@pytest.mark.parametrize("backend", available_backends())
@settings(max_examples=80, deadline=None)
@given(row=phi_rows, data=st.data(), dense=st.booleans())
def test_the_compiled_search_finds_the_hits_a_scan_does(backend, row, data, dense):
    """One stored row at every GBD 0..e of a query of order e: the hits are the scan's.

    The query holds e copies of one key; stored row j holds j of them and
    e - j of a key of its own, so its GBD is e - j and its lower bound 0.
    """
    gamma = _gamma(data, row)
    order = len(row) - 1
    multisets = [
        Counter({("q", 0): shared, ("own", shared): order - shared}) + Counter()
        for shared in range(order + 1)
    ]
    store = ColumnarBranchStore(multisets, backend=backend)
    table = PosteriorTable.from_rows({order: row})
    saved = columnar.sparse_row_budget
    columnar.sparse_row_budget = (lambda postings, rows: 0) if dense else (lambda p, rows: rows)
    try:
        positions, gbds, eligible, _verified, _sparse = store.filter_verify_rows(
            [(order, Counter({("q", 0): order}), table, gamma)]
        )[0]
    finally:
        columnar.sparse_row_budget = saved
    assert eligible.tolist() == [max(row) >= gamma]
    assert sorted(gbds.tolist()) == [phi for phi in range(order + 1) if row[phi] >= gamma]
