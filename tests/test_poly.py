"""Polynomial arithmetic, monomial orders, and the parser."""

import random
from fractions import Fraction

import pytest

from smeared import ParseError, PolyRing, Polynomial, RingMismatchError
from smeared.poly import (
    EliminationOrder,
    GREVLEX,
    LEX,
    compare_monomials,
    mono_divides,
    mono_lcm,
    monomial_key,
    monomials_up_to_degree,
)


def test_construction_drops_zero_coefficients(R2):
    p = Polynomial(R2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert p.terms == {(0, 1): Fraction(2)}


def test_construction_rejects_bad_exponents(R2):
    with pytest.raises(ValueError):
        Polynomial(R2, {(1,): Fraction(1)})
    with pytest.raises(ValueError):
        Polynomial(R2, {(-1, 0): Fraction(1)})


def test_ring_accessors(R2):
    x, y = R2.var("x"), R2.var("y")
    assert R2.one() + R2.zero() == R2.const(1)
    assert (x + y).degree() == 1
    assert R2.zero().degree() == -1
    assert R2.const(Fraction(3, 2)).constant_value() == Fraction(3, 2)
    with pytest.raises(ValueError):
        R2.var("z")
    with pytest.raises(ValueError):
        (x + y).constant_value()


def test_arithmetic_identities(R2):
    rng = random.Random(11)
    monos = monomials_up_to_degree(2, 3)

    def rand_poly():
        return Polynomial(
            R2,
            {m: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for m in rng.sample(monos, 4)},
        )

    for _ in range(25):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert f + g == g + f
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f - f == R2.zero()
        assert f * R2.one() == f
        assert (f * g).degree() <= f.degree() + g.degree() or (f * g).is_zero()


def test_scalar_mixing(R2):
    x = R2.var("x")
    assert 2 * x - x == x
    assert x + 1 == R2.parse("x + 1")
    assert (x + 1) * Fraction(1, 2) == R2.parse("1/2*x + 1/2")
    assert 1 - x == R2.parse("1 - x")


def test_power(R2):
    x, y = R2.var("x"), R2.var("y")
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
    assert (x + y) ** 0 == R2.one()
    with pytest.raises(ValueError):
        x ** (-1)


def test_ring_mismatch(R2):
    other = PolyRing(("x", "y", "z"))
    with pytest.raises(RingMismatchError):
        R2.var("x") + other.var("x")


def test_evaluate(R2):
    f = R2.parse("x^2*y - 3*x + 1/2")
    assert f.evaluate([2, Fraction(1, 2)]) == Fraction(-7, 2)
    with pytest.raises(ValueError):
        f.evaluate([1])


def test_grevlex_order():
    key = monomial_key("grevlex")
    # x^2 > xy > y^2 > x > y > 1 in two variables
    ordered = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
    assert sorted(ordered, key=key, reverse=True) == ordered
    assert compare_monomials((1, 1), (0, 2)) == 1
    assert compare_monomials((1, 0), (1, 0)) == 0


def test_lex_vs_grevlex():
    # x > y^5 under lex, x < y^5 under grevlex
    assert compare_monomials((1, 0), (0, 5), "lex") == 1
    assert compare_monomials((1, 0), (0, 5), "grevlex") == -1


def test_elimination_order_blocks():
    order = EliminationOrder((0,), 2)
    key = monomial_key(order)
    # anything containing x beats anything without it
    assert key((1, 0)) > key((0, 7))
    assert key((2, 0)) > key((1, 3))
    with pytest.raises(ValueError):
        monomial_key("mystery")


@pytest.mark.parametrize("order", [GREVLEX, LEX, EliminationOrder((0,), 3)], ids=str)
def test_descending_key_reverses_monomial_key(order):
    key = monomial_key(order)
    monos = monomials_up_to_degree(3, 4)
    assert sorted(monos, key=key.descending) == sorted(monos, key=key, reverse=True)


def test_monomial_key_cached_per_order():
    assert monomial_key(EliminationOrder((0,), 3)) is monomial_key(EliminationOrder((0,), 3))
    assert monomial_key(EliminationOrder((0,), 3)) is not monomial_key(EliminationOrder((1,), 3))
    assert monomial_key(GREVLEX) is monomial_key("grevlex")


@pytest.mark.parametrize("reverse", [False, True])
def test_leading_term_memo_is_per_order(reverse):
    ring = PolyRing(("x", "y", "z"))
    f = ring.parse("x + 2*y^2 + 3*z^3")
    expected = [
        (GREVLEX, ((0, 0, 3), 3)),
        (LEX, ((1, 0, 0), 1)),
        (EliminationOrder((1,), 3), ((0, 2, 0), 2)),
    ]
    if reverse:
        expected.reverse()
    for _ in range(2):
        for order, lt in expected:
            assert f.leading_term(monomial_key(order)) == lt
        assert f.leading_term() == ((0, 0, 3), 3)


def test_mono_helpers():
    assert mono_divides((1, 0), (2, 1))
    assert not mono_divides((1, 2), (2, 1))
    assert mono_lcm((1, 2), (2, 1)) == (2, 2)
    assert len(monomials_up_to_degree(2, 3)) == 10
    assert len(monomials_up_to_degree(3, 2)) == 10


def test_leading_term(R2):
    f = R2.parse("x*y + y^2 + x")
    # grevlex ties on degree 2 resolved toward x*y
    assert f.leading_monomial() == (1, 1)
    with pytest.raises(ValueError):
        R2.zero().leading_term()


def test_primitive_part(R2):
    f = R2.parse("4/3*x^2 - 2*y")
    prim, c = f.primitive_part()
    assert prim == R2.parse("2*x^2 - 3*y") and c == Fraction(2, 3)
    assert prim.content() == 1
    assert prim.leading_coefficient() > 0
    assert prim.scale(c) == f


def test_str_is_canonical_and_round_trips(R2):
    rng = random.Random(7)
    monos = monomials_up_to_degree(2, 4)
    for _ in range(50):
        terms = {
            m: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for m in rng.sample(monos, rng.randint(1, 6))
        }
        f = Polynomial(R2, terms)
        assert R2.parse(str(f)) == f
    assert str(R2.zero()) == "0"
    assert str(R2.parse("y - x")) == "-x + y"
    assert str(R2.parse("x^2 - 2*x*y + 1")) == "x^2 - 2*x*y + 1"


def test_parse_grammar(R2):
    assert R2.parse("2*x^3*y") == R2.var("x") ** 3 * R2.var("y") * 2
    assert R2.parse("(x + 1)*(x - 1)") == R2.parse("x^2 - 1")
    assert R2.parse("5/2") == R2.const(Fraction(5, 2))
    assert R2.parse("-x") == -R2.var("x")
    assert R2.parse("x - (-1)") == R2.parse("x + 1")
    assert R2.parse("x^0") == R2.one()


@pytest.mark.parametrize(
    "text",
    ["2x", "x y", "x*(y", "x +", "", "x^", "x^1/2", "x^-1", "w", "3.5", "x**2"],
)
def test_parse_rejects(R2, text):
    with pytest.raises(ParseError):
        R2.parse(text)


def test_parse_error_reports_position(R2):
    with pytest.raises(ParseError) as info:
        R2.parse("x + 3.5")
    assert info.value.position == 5
    with pytest.raises(ParseError) as info:
        R2.parse("x + z")
    assert info.value.position == 4


def test_polynomials_hash_and_compare(R2):
    f = R2.parse("x + y")
    g = R2.parse("y + x")
    assert f == g and hash(f) == hash(g)
    assert f != R2.parse("x - y")
    assert R2.const(3) == 3
    assert {f: 1}[g] == 1
