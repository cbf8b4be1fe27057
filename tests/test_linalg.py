"""Exact row reduction, kernels, and the streaming rank tracker."""

import random
from fractions import Fraction

import pytest

from smeared.linalg import IncrementalRank, kernel_basis, rank, rref

F = Fraction


def test_rref_identity():
    mat, pivots = rref([[F(2), F(0)], [F(0), F(3)]])
    assert mat == [[F(1), F(0)], [F(0), F(1)]]
    assert pivots == [0, 1]


def test_rref_dependent_rows():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    mat, pivots = rref(rows)
    assert pivots == [0, 1]
    assert rank(rows) == 2


def test_kernel_basis_annihilates():
    rows = [[F(1), F(2), F(3)], [F(0), F(1), F(1)]]
    basis = kernel_basis(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0
    # canonical form: free column carries 1
    assert v == [F(-1), F(-1), F(1)]


def test_kernel_of_empty_matrix():
    basis = kernel_basis([], 2)
    assert basis == [[F(1), F(0)], [F(0), F(1)]]


def test_incremental_rank():
    tracker = IncrementalRank()
    assert tracker.add([F(1), F(0), F(1)])
    assert tracker.add([F(0), F(1), F(1)])
    assert not tracker.add([F(2), F(3), F(5)])
    assert tracker.add([F(0), F(0), F(1)])
    assert not tracker.add([F(0), F(0), F(0)])
    assert tracker.rank == 3


def test_rref_keeps_trailing_zero_rows():
    mat, pivots = rref([[F(1), F(1)], [F(2), F(2)], [F(0), F(0)]])
    assert mat == [[F(1), F(1)], [F(0), F(0)], [F(0), F(0)]]
    assert pivots == [0]


# -- ragged input


def test_rref_rejects_ragged_rows():
    with pytest.raises(ValueError, match="row 1 has length 1"):
        rref([[F(1), F(2)], [F(3)]])


def test_incremental_rank_rejects_wrong_length():
    tracker = IncrementalRank()
    tracker.add([F(1), F(0)])
    with pytest.raises(ValueError, match="length 3, expected 2"):
        tracker.add([F(0), F(1), F(0)])


def test_kernel_basis_rejects_wrong_ncols():
    with pytest.raises(ValueError, match="row 0 has length 2, expected 3"):
        kernel_basis([[F(1), F(2)]], 3)


# -- against a dense Gauss-Jordan reference


def reference_rref(rows):
    """Textbook dense Gauss-Jordan: first nonzero row wins each column."""
    mat = [[F(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return mat, pivots


def reference_kernel(rows, ncols):
    mat, pivots = reference_rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [F(0)] * ncols
        v[free] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -mat[r][free]
        basis.append(v)
    return basis


def random_matrix(rng, nrows, ncols):
    """Sparse-ish rows of small fractions of both signs, with zero rows and
    duplicated (rescaled) rows mixed in."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([F(0)] * ncols)
        elif kind < 0.25 and rows:
            scale = F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 5]))
            rows.append([x * scale for x in rng.choice(rows)])
        else:
            rows.append(
                [
                    F(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.4 else F(0)
                    for _ in range(ncols)
                ]
            )
    return rows


SHAPES = [(0, 3), (1, 1), (3, 0), (4, 4), (12, 5), (20, 3), (5, 12), (3, 20), (9, 9)]


@pytest.mark.parametrize("nrows,ncols", SHAPES)
def test_rref_matches_reference(nrows, ncols):
    rng = random.Random(7001 + 31 * nrows + ncols)
    for _ in range(20):
        rows = random_matrix(rng, nrows, ncols)
        mat, pivots = rref(rows)
        assert (mat, pivots) == reference_rref(rows)
        assert len(mat) == nrows
        assert all(not any(row) for row in mat[len(pivots):])
        assert rank(rows) == len(pivots)


@pytest.mark.parametrize("nrows,ncols", SHAPES)
def test_kernel_basis_matches_reference(nrows, ncols):
    rng = random.Random(8101 + 31 * nrows + ncols)
    for _ in range(20):
        rows = random_matrix(rng, nrows, ncols)
        basis = kernel_basis(rows, ncols)
        assert basis == reference_kernel(rows, ncols)
        for v in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0


@pytest.mark.parametrize("nrows,ncols", SHAPES)
def test_incremental_rank_matches_reference(nrows, ncols):
    rng = random.Random(9203 + 31 * nrows + ncols)
    for _ in range(20):
        rows = random_matrix(rng, nrows, ncols)
        tracker = IncrementalRank()
        for k, row in enumerate(rows):
            grew = len(reference_rref(rows[: k + 1])[1]) > len(reference_rref(rows[:k])[1])
            assert tracker.add(row) == grew
        assert tracker.rank == len(reference_rref(rows)[1])
