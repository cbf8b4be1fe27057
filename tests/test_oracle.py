"""The brute-force cross-check harness itself, and its agreement with the
division engine."""

import random
from fractions import Fraction

import pytest

from smeared import Ideal, Polynomial, groebner_basis
from oracle import (
    _monomial_index,
    _rank,
    _slice_rows,
    _vector,
    oracle_member,
    oracle_r_slice_dim,
    oracle_span_rank,
)
from smeared.poly import monomials_up_to_degree


def rand_poly(rng, ring, deg=3, nterms=3):
    monos = monomials_up_to_degree(ring.nvars, deg)
    return Polynomial(
        ring,
        {m: Fraction(rng.randint(-4, 4)) for m in rng.sample(monos, nterms)},
    )


def test_oracle_member_examples(R2):
    x, y = R2.var("x"), R2.var("y")
    assert oracle_member(x * y, [x], 2)
    assert oracle_member(R2.one(), [x, x - 1], 1)
    assert not oracle_member(R2.one(), [x], 6)
    assert oracle_member(R2.zero(), [x], 2)
    with pytest.raises(ValueError):
        oracle_member(x**3, [x], 2)


def test_oracle_agrees_with_engine(R2):
    # a light pass; the full 200-instance agreement sweep lives in the
    # acceptance tests
    rng = random.Random(79)
    for _ in range(25):
        gens = [rand_poly(rng, R2, deg=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        f = rand_poly(rng, R2, deg=3)
        d = f.degree() + max(g.degree() for g in gens) + 4
        engine = Ideal(R2, tuple(gens)).contains(f)
        assert oracle_member(f, gens, max(d, 0)) == engine


def test_span_rank_examples(R2):
    x, y = R2.var("x"), R2.var("y")
    gb = groebner_basis([x])
    assert oracle_span_rank([R2.one(), y, y**2], gb) == 3
    gb2 = groebner_basis([x**2 - x])
    assert oracle_span_rank([R2.one(), x, x**2], gb2) == 2
    rng = random.Random(83)
    polys = [rand_poly(rng, R2) for _ in range(5)]
    base = oracle_span_rank(polys, gb)
    for _ in range(5):
        rng.shuffle(polys)
        assert oracle_span_rank(polys, gb) == base


def test_r_slice_dims_three_lines(R2):
    x = R2.var("x")
    gens = [[x], [x - 1], [x - 2]]
    assert oracle_r_slice_dim(gens, R2, 0) == 1
    assert oracle_r_slice_dim(gens, R2, 3) == 4
    assert oracle_r_slice_dim(gens, R2, 4) == 6
    # stabilization at two consecutive multiplier bounds
    assert oracle_r_slice_dim(gens, R2, 3, multiplier_bound=8) == 4
    assert oracle_r_slice_dim(gens, R2, 3, multiplier_bound=9) == 4


def test_r_slice_single_zero_ideal_gives_constants(R2):
    assert oracle_r_slice_dim([[]], R2, 2) == 1


def test_quotient_dimension_stabilizes(R2):
    # staircase of (x^2 - x, y) holds 2 monomials; the slice count agrees at
    # consecutive bounds
    x, y = R2.var("x"), R2.var("y")
    gens = [x**2 - x, y]
    for bound in (4, 5):
        index, ncols = _monomial_index(2, bound)
        rows = _slice_rows(gens, bound, index, ncols)
        monos_le = len(monomials_up_to_degree(2, bound))
        assert monos_le - _rank(rows) == 2


def test_hyperbola_has_no_univariate_member(R2):
    # nothing in QQ[x] of degree <= 6 lies in (xy - 1): the rowspace of the
    # slice meets the span of {1, x, ..., x^6} only in 0
    x, y = R2.var("x"), R2.var("y")
    bound = 8
    index, ncols = _monomial_index(2, bound)
    rows = _slice_rows([x * y - 1], bound, index, ncols)
    base = _rank(rows)
    univariate = [_vector(x**k, index, ncols) for k in range(7)]
    assert _rank(rows + univariate) == base + len(univariate)


def dense_rank(rows):
    """The dense `Fraction` forward elimination the sparse `_rank` replaced."""
    pivots = {}
    for row in rows:
        row = list(row)
        lead = 0
        while lead < len(row):
            if not row[lead]:
                lead += 1
            elif lead in pivots:
                f = row[lead]
                row = [a - f * b for a, b in zip(row, pivots[lead])]
                lead += 1
            else:
                inv = 1 / row[lead]
                pivots[lead] = [x * inv for x in row]
                break
    return len(pivots)


def test_sparse_rank_matches_dense_elimination():
    rng = random.Random(83)
    for _ in range(60):
        ncols = rng.randint(1, 8)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * (rng.random() < 0.5) for _ in range(ncols)]
            for _ in range(rng.randint(1, 8))
        ]
        if rng.random() < 0.4:
            rows.append([2 * a - b for a, b in zip(rows[0], rows[-1])])
        assert _rank(rows) == dense_rank(rows)
