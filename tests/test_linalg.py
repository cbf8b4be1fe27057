"""Exact row reduction, kernels, and the streaming rank tracker, on sparse
integer rows."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smeared.linalg import IncrementalRank, kernel_basis, rref

F = Fraction


def sparse(row):
    """The nonzero entries of a dense rational row, scaled to integers by the
    lcm of their denominators; the scaling changes no row space."""
    den = lcm(*(x.denominator for x in row))
    return {c: int(x * den) for c, x in enumerate(row) if x}


def sparse_fractions(row):
    """The nonzero entries of a dense rational row, unscaled."""
    return {c: x for c, x in enumerate(row) if x}


def assert_primitive(ints):
    """A nonempty map of ints, not bools and not Fractions, of gcd 1."""
    assert ints and all(type(v) is int for v in ints.values())
    assert gcd(*ints.values()) == 1


def assert_reduced_rows(reduced, pivots):
    """Each row primitive, its pivot entry positive, zero at other pivots."""
    for row, p in zip(reduced, pivots):
        assert_primitive(row)
        assert row[p] > 0
        assert not any(q in row for q in pivots if q != p)


def assert_kernel_pairs(basis):
    """Each vector an (ints, content) pair: ints primitive with a positive
    free entry first, then pivots in ascending order; content positive."""
    for ints, content in basis:
        assert_primitive(ints)
        assert type(content) is Fraction and content > 0
        free, *rest = ints
        assert ints[free] > 0 and rest == sorted(rest)


def scaled(ints, content):
    """The rational vector content * ints."""
    return {c: content * v for c, v in ints.items()}


def test_rref_identity():
    reduced, pivots = rref([{0: 2}, {1: 3}])
    assert reduced == [{0: 1}, {1: 1}]
    assert pivots == [0, 1]
    assert_reduced_rows(reduced, pivots)


def test_rref_dependent_rows():
    rows = [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {1: 1, 2: 1}]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    assert reduced == [{0: 1, 2: 1}, {1: 1, 2: 1}]
    assert_reduced_rows(reduced, pivots)


def test_rref_back_substitution_stays_integral():
    # the Fraction RREF is [[1, 0, -1/2], [0, 1, 3/2]]
    reduced, pivots = rref([{0: 2, 1: 2, 2: 2}, {1: -2, 2: -3}])
    assert pivots == [0, 1]
    assert reduced == [{0: 2, 2: -1}, {1: 2, 2: 3}]
    assert_reduced_rows(reduced, pivots)


def test_kernel_basis_annihilates():
    rows = [{0: 1, 1: 2, 2: 3}, {1: 1, 2: 1}]
    basis = kernel_basis(rows, 3)
    assert len(basis) == 1
    ints, content = basis[0]
    for row in rows:
        assert sum(a * ints.get(c, 0) for c, a in row.items()) == 0
    # canonical form: free column first, carrying 1 once scaled
    assert list(ints.items()) == [(2, 1), (0, -1), (1, -1)]
    assert content == 1
    assert_kernel_pairs(basis)


def test_kernel_basis_content_is_the_denominator():
    # the Fraction vector is {2: 1, 0: 1/2, 1: -3/2}
    basis = kernel_basis([{0: 2, 1: 2, 2: 2}, {1: -2, 2: -3}], 3)
    assert [(list(ints.items()), c) for ints, c in basis] == [([(2, 2), (0, 1), (1, -3)], F(1, 2))]


def test_kernel_of_empty_matrix():
    basis = kernel_basis([], 2)
    assert basis == [({0: 1}, F(1)), ({1: 1}, F(1))]
    assert_kernel_pairs(basis)


def test_incremental_rank():
    tracker = IncrementalRank()
    assert tracker.add({0: 1, 2: 1})
    assert tracker.add({1: 1, 2: 1})
    assert not tracker.add({0: 2, 1: 3, 2: 5})
    assert tracker.add({2: 1})
    assert not tracker.add({})
    assert tracker.rank == 3


def test_incremental_rank_on_monomial_columns():
    # columns may be exponent tuples, the keys of polynomials' integer maps
    tracker = IncrementalRank()
    assert tracker.add({(0, 0): 1})
    assert tracker.add({(1, 0): 1, (0, 0): -2})
    assert tracker.add({(2, 0): 1, (0, 1): 3})
    assert not tracker.add({(2, 0): -2, (0, 1): -6, (1, 0): 5, (0, 0): -10})
    assert tracker.add({(0, 1): 1})
    assert tracker.rank == 4


def test_kernel_basis_rejects_wrong_ncols():
    with pytest.raises(ValueError, match=r"row 0 has a column outside 0\.\.2"):
        kernel_basis([{0: 1, 3: 2}], 3)


def test_kernel_basis_rejects_column_out_of_range():
    with pytest.raises(ValueError, match=r"row 1 has a column outside 0\.\.1"):
        kernel_basis([{0: 1}, {-1: 3, 1: 1}], 2)


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
        reduced, pivots = rref([sparse(row) for row in rows])
        mat, ref_pivots = reference_rref(rows)
        assert pivots == ref_pivots
        assert_reduced_rows(reduced, pivots)
        # the reference row has pivot entry 1, so it scales back exactly
        assert [scaled(row, F(1, row[p])) for row, p in zip(reduced, pivots)] == [
            sparse_fractions(row) for row in mat[: len(pivots)]
        ]
        assert all(not any(row) for row in mat[len(pivots):])


@pytest.mark.parametrize("nrows,ncols", SHAPES)
def test_kernel_basis_matches_reference(nrows, ncols):
    rng = random.Random(8101 + 31 * nrows + ncols)
    for _ in range(20):
        rows = random_matrix(rng, nrows, ncols)
        basis = kernel_basis([sparse(row) for row in rows], ncols)
        assert_kernel_pairs(basis)
        assert [scaled(*v) for v in basis] == [
            sparse_fractions(v) for v in reference_kernel(rows, ncols)
        ]
        for ints, _ in basis:
            for row in rows:
                assert sum(a * ints.get(c, 0) for c, a in enumerate(row)) == 0


@pytest.mark.parametrize("nrows,ncols", SHAPES)
def test_incremental_rank_matches_reference(nrows, ncols):
    rng = random.Random(9203 + 31 * nrows + ncols)
    for _ in range(20):
        rows = random_matrix(rng, nrows, ncols)
        tracker = IncrementalRank()
        for k, row in enumerate(rows):
            grew = len(reference_rref(rows[: k + 1])[1]) > len(reference_rref(rows[:k])[1])
            assert tracker.add(sparse(row)) == grew
        assert tracker.rank == len(reference_rref(rows)[1])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 5), st.integers(-9, 9).filter(bool), max_size=4),
        max_size=6,
    ),
    st.randoms(use_true_random=False),
    st.lists(st.integers(-5, 5).filter(bool), min_size=6, max_size=6),
)
def test_rref_is_canonical_under_row_operations(rows, rng, scales):
    # the promise of the module docstring: shuffling, scaling by nonzero
    # integers of either sign and duplicating rows change no integer row
    # and no pivot
    expected = rref(rows)
    moved = [{c: v * k for c, v in row.items()} for row, k in zip(rows, scales)]
    moved += [dict(row) for row in rows if rng.random() < 0.5]
    rng.shuffle(moved)
    assert rref(moved) == expected
