"""Ideal arithmetic: sums, products, intersections, elimination, dimensions,
coprimality, radical membership."""

import itertools
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smeared.ideals as ideals
from smeared import LEX, Ideal, PolyRing, Polynomial, RingMismatchError
from oracle import oracle_member
from smeared.groebner import divide_each
from smeared.poly import EliminationOrder, monomials_up_to_degree


def rand_poly(rng, ring, deg=2, nterms=3):
    monos = monomials_up_to_degree(ring.nvars, deg)
    return Polynomial(
        ring,
        {m: Fraction(rng.randint(-4, 4)) for m in rng.sample(monos, nterms)},
    )


def rand_proper_ideal(rng, ring, ngens=2, deg=2):
    while True:
        gens = [rand_poly(rng, ring, deg) for _ in range(ngens)]
        gens = [g for g in gens if not g.is_zero()]
        ideal = Ideal(ring, tuple(gens))
        if gens and not ideal.contains_one():
            return ideal


def test_sum_and_product(R2):
    x, y = R2.var("x"), R2.var("y")
    assert (Ideal(R2, (x,)) + Ideal(R2, (x - 1,))).contains_one()
    prod = Ideal(R2, (x,)) * Ideal(R2, (y,))
    assert [str(g) for g in prod.generators] == ["x*y"]
    ideal = Ideal(R2, (x * y - 1,))
    with_zero = ideal + Ideal(R2, ())
    assert with_zero.groebner().elements == ideal.groebner().elements


def test_zero_ideal_is_representable(R2):
    zero = Ideal(R2, ())
    assert zero.is_zero()
    assert not zero.contains_one()
    assert zero.krull_dim() == 2
    f = R2.parse("x + y")
    assert zero.normal_form(f) == f


def test_intersection_of_coprime_lines(R2):
    x = R2.var("x")
    meet = Ideal(R2, (x - 1,)).intersect(Ideal(R2, (x - 2,)))
    product = (x - 1) * (x - 2)
    # both inclusions via normal forms
    assert meet.contains(product)
    gb = Ideal(R2, (product,)).groebner()
    for g in meet.generators:
        assert gb.contains(g)


def test_intersection_with_self(R2):
    ideal = Ideal(R2, (R2.parse("x^2 - y"), R2.parse("x*y")))
    again = ideal.intersect(ideal)
    assert again.groebner().elements == ideal.groebner().elements


def test_intersection_of_axes_matches_oracle(R2):
    x, y = R2.var("x"), R2.var("y")
    meet = Ideal(R2, (x,)).intersect(Ideal(R2, (y,)))
    assert [str(g) for g in meet.generators] == ["x*y"]
    rng = random.Random(41)
    for _ in range(20):
        f = rand_poly(rng, R2, deg=2)
        if f.degree() < 0:
            continue
        both = oracle_member(f, [x], 4 + 2) and oracle_member(f, [y], 4 + 2)
        assert meet.contains(f) == both


def test_intersection_membership_equivalence(R2):
    rng = random.Random(43)
    for _ in range(8):
        I = rand_proper_ideal(rng, R2)
        J = rand_proper_ideal(rng, R2)
        meet = I.intersect(J)
        for _ in range(6):
            f = rand_poly(rng, R2, deg=4, nterms=4)
            assert meet.contains(f) == (I.contains(f) and J.contains(f))
        f = I.generators[0] * J.generators[0]
        assert meet.contains(f)


def test_eliminate_examples(R2):
    x, y = R2.var("x"), R2.var("y")
    assert Ideal(R2, (x - y,)).eliminate({1}).is_zero()
    kept = Ideal(R2, (x, y)).eliminate({1})
    assert [str(g) for g in kept.generators] == ["y"]
    assert Ideal(R2, (x * y - 1,)).eliminate({0}).is_zero()
    with pytest.raises(ValueError):
        Ideal(R2, (x,)).eliminate(set())
    with pytest.raises(ValueError):
        Ideal(R2, (x,)).eliminate({5})


def test_eliminate_keeping_everything(R2):
    ideal = Ideal(R2, (R2.parse("x*y - 1"),))
    assert ideal.eliminate({0, 1}) is ideal


_GENERATORS = st.lists(
    st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * 3), st.fractions(min_value=-6, max_value=6, max_denominator=4), max_size=3
    ),
    min_size=1,
    max_size=3,
)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.sampled_from(["grevlex", "lex"]), _GENERATORS)
def test_eliminate_matches_sympy(order, maps):
    # for every proper kept set, the contraction and the elements of sympy's
    # lex basis, the eliminated symbols first, that are free of them have one
    # reduced basis in the ring
    sympy = pytest.importorskip("sympy")
    ring = PolyRing(("x", "y", "z"), order)
    gens = [Polynomial(ring, m) for m in maps if m]
    syms = sympy.symbols(ring.variables)
    exprs = [
        sum(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**e for s, e in zip(syms, m))) for m, c in g.terms.items())
        for g in gens
    ]
    ideal = Ideal(ring, gens)
    for keep in itertools.chain.from_iterable(itertools.combinations(range(3), k) for k in (1, 2)):
        elim = [i for i in range(3) if i not in keep]
        at = elim + list(keep)  # sympy's generator k is the ring's variable at[k]
        theirs = []
        for p in sympy.groebner(exprs or [0], *(syms[i] for i in at), order="lex", domain="QQ").polys:
            terms = {}
            for m, c in p.terms():
                expo = [0] * 3
                for k, e in zip(at, m):
                    expo[k] = e
                terms[tuple(expo)] = Fraction(int(c.p), int(c.q))
            theirs.append(Polynomial(ring, terms))
        free = [g for g in theirs if not g.is_zero() and g.support().isdisjoint(elim)]
        ours = ideal.eliminate(keep).generators
        assert Ideal(ring, ours).groebner().elements == Ideal(ring, free).groebner().elements


def test_intersect_computes_one_basis(R2, monkeypatch):
    # intersect eliminates t from t*I + (1-t)*J: one basis, of the block ring
    # `eliminate` builds, and none of I or J
    calls, real = [], ideals.groebner_basis
    monkeypatch.setattr(ideals, "groebner_basis", lambda *a, **k: calls.append(a) or real(*a, **k))
    x, y = R2.var("x"), R2.var("y")
    I, J = Ideal(R2, (x,)), Ideal(R2, (y, x - 1))
    meet = I.intersect(J)
    assert len(calls) == 1 and I._basis is None and J._basis is None
    assert calls[0][1] == PolyRing(("t", "x", "y"), EliminationOrder((0,), 3))
    assert [str(g) for g in meet.generators] == ["x^2 - x", "x*y"]


def test_krull_dim(R2):
    x, y = R2.var("x"), R2.var("y")
    assert Ideal(R2, (x,)).krull_dim() == 1
    assert Ideal(R2, (x**2 - x, y)).krull_dim() == 0
    assert Ideal(R2, ()).krull_dim() == 2
    with pytest.raises(ValueError):
        Ideal(R2, (x, x - 1)).krull_dim()
    ring = PolyRing(tuple(f"x{i}" for i in range(1, 7)))
    xs = [ring.var(v) for v in ring.variables]
    assert Ideal(ring, ()).krull_dim() == 6
    assert Ideal(ring, tuple(x**2 - x for x in xs)).krull_dim() == 0
    with pytest.raises(ValueError):
        Ideal(ring, (xs[0], xs[0] - 1)).krull_dim()


def _scan_dim(ideal):
    """The reference: the subset scan `krull_dim` replaced, the size of the
    largest variable set, trying all 2^n largest first, that holds no lead's
    support."""
    n = ideal.ring.nvars
    supports = [{i for i, e in enumerate(m) if e} for m in ideal.groebner().leading_monomials()]
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            if not any(s <= set(subset) for s in supports):
                return size


def _maps(nvars, degree, terms, gens):
    return st.lists(
        st.dictionaries(st.tuples(*[st.integers(0, degree)] * nvars), st.integers(-3, 3).filter(bool), min_size=1, max_size=terms),
        max_size=gens,
    )


# random ideals in at most 6 variables, and monomial ideals in at most 10,
# whose leads are their minimal generators: random sets of lead supports
_dim_cases = st.one_of(
    st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), _maps(n, 2, 3, 3))),
    st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n), _maps(n, 3, 1, 8))),
)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(_dim_cases)
def test_krull_dim_matches_the_subset_scan(case):
    nvars, maps = case
    ring = PolyRing(tuple(f"x{i}" for i in range(1, nvars + 1)))
    ideal = Ideal(ring, tuple(Polynomial(ring, terms) for terms in maps))
    if ideal.contains_one():
        with pytest.raises(ValueError):
            ideal.krull_dim()
        return
    assert ideal.krull_dim() == _scan_dim(ideal)
    assert (ideal.krull_dim() == 0) == (None not in ideal.groebner().pure_powers())


def test_krull_dim_of_a_line_in_40_variables():
    # a scan of variable subsets would try 2^40 - 41 sets before the answer;
    # in a child process, so that a search that hangs fails the test instead
    code = (
        "from smeared import Ideal, PolyRing\n"
        "ring = PolyRing(tuple(f'x{i}' for i in range(1, 41)))\n"
        "print(Ideal(ring, tuple(ring.var(v) for v in ring.variables[:39])).krull_dim())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ideals.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert (done.returncode, done.stdout) == (0, "1\n"), done.stderr


def test_quotient_vdim(R2):
    x, y = R2.var("x"), R2.var("y")
    assert Ideal(R2, (x, y)).quotient_vdim() == 1
    assert Ideal(R2, (x**2 - x, y)).quotient_vdim() == 2
    assert Ideal(R2, (x,)).quotient_vdim() is None
    with pytest.raises(ValueError):
        Ideal(R2, (x, x - 1)).quotient_vdim()


def test_vdim_finite_iff_dim_zero(R2):
    rng = random.Random(47)
    for _ in range(15):
        ideal = rand_proper_ideal(rng, R2)
        infinite = ideal.quotient_vdim() is None
        assert infinite == (None in ideal.groebner().pure_powers()) == (ideal.krull_dim() > 0)


def test_is_coprime(R2):
    x, y = R2.var("x"), R2.var("y")
    assert Ideal(R2, (x,)).is_coprime(Ideal(R2, (x - 1,)))
    assert not Ideal(R2, (x,)).is_coprime(Ideal(R2, (y,)))
    rng = random.Random(53)
    for _ in range(10):
        I = rand_proper_ideal(rng, R2)
        J = rand_proper_ideal(rng, R2)
        assert I.is_coprime(J) == J.is_coprime(I)


def test_coprime_implies_intersection_equals_product(R2):
    x = R2.var("x")
    pairs = [
        (Ideal(R2, (x,)), Ideal(R2, (x - 1,))),
        (Ideal(R2, (x - 1,)), Ideal(R2, (x - 2,))),
        (Ideal(R2, (x, R2.var("y"))), Ideal(R2, (x - 1,))),
    ]
    for I, J in pairs:
        assert I.is_coprime(J)
        assert I.intersect(J).groebner().elements == (I * J).groebner().elements


def test_monotonicity_of_dimension(R2):
    rng = random.Random(59)
    for _ in range(10):
        I = rand_proper_ideal(rng, R2, ngens=1)
        J = I + rand_proper_ideal(rng, R2, ngens=1)
        if J.contains_one():
            continue
        assert I.krull_dim() >= J.krull_dim()


def test_radical_member(R2):
    x, y = R2.var("x"), R2.var("y")
    assert Ideal(R2, (x**2,)).radical_member(x)
    assert not Ideal(R2, (x**2,)).radical_member(y)
    assert not Ideal(R2, (x * (x - 1),)).radical_member(x - 1)
    cube = Ideal(R2, (x**2 * (x - 1),))
    assert cube.radical_member(x * (x - 1))
    # the power that lands inside, by plain normal form
    assert cube.contains((x * (x - 1)) ** 2)
    assert not cube.contains(x * (x - 1))


def test_helper_rings_take_no_order_from_the_ring():
    # intersect's ring with a fresh t and radical_member's with a fresh z are
    # grevlex: a block order names one variable too few for them
    block = PolyRing(("x", "y"), EliminationOrder((0,), 2))
    x, y = block.var("x"), block.var("y")
    assert [str(g) for g in Ideal(block, (x,)).intersect(Ideal(block, (y,))).generators] == ["x*y"]
    assert Ideal(block, (x**2,)).radical_member(x)
    lex = PolyRing(("x", "y"), LEX)
    x, y = lex.var("x"), lex.var("y")
    assert [str(g) for g in Ideal(lex, (x,)).intersect(Ideal(lex, (y, x - 1))).generators] == ["x^2 - x", "x*y"]


def test_radical_member_zero_ideal(R2):
    zero = Ideal(R2, ())
    assert zero.radical_member(R2.zero())
    assert not zero.radical_member(R2.var("x"))


def test_membership_certificate(R2):
    x, y = R2.var("x"), R2.var("y")
    ideal = Ideal(R2, (x**2 - y, y**2 - 1))
    f = (x**2 - y) * x + (y**2 - 1) * (y + 2)
    gb = ideal.groebner()
    res = gb.divide(f)
    cof, rem = gb.lift_to_generators(res), res.remainder
    assert rem.is_zero()
    acc = R2.zero()
    for c, g in zip(cof, ideal.generators):
        acc = acc + c * g
    assert acc == f


def test_unit_certificate(R2):
    x = R2.var("x")
    ideal = Ideal(R2, (x, x - 1))
    cof = ideal.unit_certificate()
    acc = R2.zero()
    for c, g in zip(cof, ideal.generators):
        acc = acc + c * g
    assert acc == R2.one()
    with pytest.raises(ValueError):
        Ideal(R2, (x,)).unit_certificate()


# small ideals in 2 or 3 variables and the monomials to look up, in the
# order that fills the table
_tabled = st.integers(2, 3).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.dictionaries(
                st.tuples(*[st.integers(0, 2)] * n),
                st.integers(1, 3) | st.integers(-3, -1),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=2,
        ),
        st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=8),
    )
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_tabled)
def test_monomial_normal_forms_match_division(case):
    # r_basis and verify's slice check read NF(x^m) from the table, which is
    # filled in whatever order they ask
    maps, monomials = case
    ring = PolyRing(("x", "y", "z")[: len(monomials[0])])
    ideal = Ideal(ring, tuple(Polynomial(ring, terms) for terms in maps))
    for m in monomials + monomials[::-1]:
        assert ideal.monomial_normal_form(m) == ideal.normal_form(ring.monomial(m))


def test_ring_mismatch(R2):
    other = PolyRing(("a", "b"))
    with pytest.raises(RingMismatchError):
        Ideal(R2, (other.var("a"),))
    with pytest.raises(RingMismatchError):
        Ideal(R2, (R2.var("x"),)).intersect(Ideal(other, (other.var("a"),)))


@pytest.mark.parametrize("generators", [(), ("x^2 - y",)], ids=["zero-ideal", "principal"])
def test_division_rejects_a_foreign_polynomial(R2, generators):
    # the zero ideal's basis has no element to compare rings with, so the
    # division compares the polynomial's ring with the basis's
    ideal = Ideal(R2, tuple(map(R2.parse, generators)))
    foreign = PolyRing(("a",)).var("a")
    with pytest.raises(RingMismatchError):
        ideal.normal_form(foreign)
    with pytest.raises(RingMismatchError):
        next(divide_each(foreign, [ideal.groebner()]))


def test_concurrent_groebner_requests(R2):
    ideal = Ideal(R2, (R2.parse("x^2 - y"), R2.parse("x*y - 1")))
    results = []

    def hit():
        results.append(ideal.groebner())

    threads = [threading.Thread(target=hit) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len({id(gb) for gb in results}) == 1
