"""The pivot partitions committed on ``REGULAR`` and ``GENERAL``: each is a
valid elimination of its template, and together they are what
``derive_partitions.py`` derives."""

import pytest

import derive_partitions
from reference_templates import pivot_hints
from relpose.gbsolver import GENERAL, REGULAR, quotient_basis_from_pivots

PROBLEMS = pytest.mark.parametrize("problem", [REGULAR, GENERAL], ids=["REGULAR", "GENERAL"])


@PROBLEMS
def test_one_distinct_template_column_per_row(problem):
    n_rows, n_cols = problem.template_shape
    assert len(set(problem.partitions)) == len(problem.partitions)
    for pivots in problem.partitions:
        assert len(pivots) == n_rows == len(set(pivots))
        assert all(0 <= j < n_cols for j in pivots)


@PROBLEMS
def test_respects_the_pivot_hints(problem):
    hints = pivot_hints(problem)
    for pivots in problem.partitions:
        assert set(hints["eliminate_first"]) <= set(pivots)
        assert hints["protected_cols"].isdisjoint(pivots)


@PROBLEMS
def test_multiplication_by_gamma_stays_in_the_template(problem):
    for pivots in problem.partitions:
        qb = quotient_basis_from_pivots(problem, pivots)
        # gamma times every standard monomial is a template column, and so
        # either standard or the leading monomial of a pivot row.
        reaches = qb.successor >= 0
        reaches[qb.pivot_rows[qb.pivot_polys >= 0]] = True
        assert reaches.all() and qb.unreachable is None


@PROBLEMS
def test_equals_the_derivation(problem):
    assert derive_partitions.derive(problem) == problem.partitions
