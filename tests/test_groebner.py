"""Division with cofactors and Buchberger's algorithm."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import smeared.groebner as groebner
from smeared import PolyRing, Polynomial, RingMismatchError, groebner_basis
from smeared.groebner import divide
from smeared.poly import (
    EliminationOrder,
    mono_div,
    mono_divides,
    mono_lcm,
    monomials_up_to_degree,
    sum_of_products,
)
from test_divide_reference import read_dividend


def rand_poly(rng, ring, deg=3, nterms=4):
    monos = monomials_up_to_degree(ring.nvars, deg)
    terms = {
        m: Fraction(rng.randint(-5, 5)) for m in rng.sample(monos, min(nterms, len(monos)))
    }
    return Polynomial(ring, terms)


def spoly(f, g):
    lmf, lcf = f.leading_term()
    lmg, lcg = g.leading_term()
    lcm = mono_lcm(lmf, lmg)
    return f.mul_term(mono_div(lcm, lmf), 1 / lcf) - g.mul_term(mono_div(lcm, lmg), 1 / lcg)


def test_division_verification_is_on():
    assert groebner.VERIFY_DIVISION


def test_divide_simple(R2):
    x = R2.var("x")
    res = divide(x, [x - 1])
    assert res.remainder == R2.one()
    assert list(res.quotients) == [R2.one()]
    res = divide(x * R2.var("y"), [x])
    assert res.remainder.is_zero()


def test_divide_identity_and_irreducibility(R2):
    rng = random.Random(3)
    for _ in range(30):
        f = rand_poly(rng, R2)
        divisors = [rand_poly(rng, R2, deg=2, nterms=3) for _ in range(2)]
        divisors = [d for d in divisors if not d.is_zero()]
        res = divide(f, divisors)
        total = res.remainder
        for q, d in zip(res.quotients, divisors):
            total = total + q * d
        assert total == f
        for m in res.remainder.terms:
            assert not any(
                mono_divides(d.leading_monomial(), m) for d in divisors
            )


def test_divide_takes_first_matching_divisor(R2):
    x, y = R2.var("x"), R2.var("y")
    # both divisors have leading monomial dividing x*y; the first wins
    res = divide(x * y, [x, y])
    assert list(res.quotients) == [y, R2.zero()]
    res = divide(x * y, [y, x])
    assert list(res.quotients) == [x, R2.zero()]


def test_divide_under_elimination_order():
    # x dominates: the lead of x - y^2 is x, not y^2 as under grevlex
    R3 = PolyRing(("x", "y", "z"), EliminationOrder((0,), 3))
    f = R3.parse("x^2 + x*z + y")
    res = divide(f, [R3.parse("x - y^2"), R3.parse("y*z - 1")])
    assert res.quotients == (R3.parse("x + y^2 + z"), R3.parse("y"))
    assert res.remainder == R3.parse("y^4 + 2*y")


def test_divide_degree_compatible_under_grevlex(R2):
    rng = random.Random(5)
    for _ in range(20):
        f = rand_poly(rng, R2, deg=4)
        divisors = [rand_poly(rng, R2, deg=2, nterms=3) for _ in range(2)]
        divisors = [d for d in divisors if not d.is_zero()]
        res = divide(f, divisors)
        for q, d in zip(res.quotients, divisors):
            if not q.is_zero():
                assert (q * d).degree() <= f.degree()


def test_basis_unit_ideal(R2):
    x = R2.var("x")
    gb = groebner_basis([x, x - 1])
    assert [str(g) for g in gb.elements] == ["1"]
    assert gb.contains_one()


def test_basis_principal_monic(R2):
    f = R2.parse("x^3 - 3*x^2 + 2*x")
    gb = groebner_basis([f.scale(Fraction(7, 3))])
    assert list(gb.elements) == [f]


def test_basis_zero_ideal(R2):
    gb = groebner_basis([R2.zero()], ring=R2)
    assert gb.elements == ()
    assert gb.is_zero_ideal()
    assert not gb.contains_one()
    f = R2.parse("x + y")
    assert gb.normal_form(f) == f
    with pytest.raises(ValueError):
        groebner_basis([])


def test_known_basis_and_spair_oracle(R2):
    x, y = R2.var("x"), R2.var("y")
    gb = groebner_basis([x * y - 1, y**2 - 1])
    assert [str(g) for g in gb.elements] == ["y^2 - 1", "x - y"]
    # every S-pair of the result reduces to zero
    for i in range(len(gb.elements)):
        for j in range(i + 1, len(gb.elements)):
            s = spoly(gb.elements[i], gb.elements[j])
            assert divide(s, gb.elements).remainder.is_zero()


def test_basis_is_reduced(R2):
    rng = random.Random(17)
    for _ in range(15):
        gens = [rand_poly(rng, R2, deg=2, nterms=3) for _ in range(2)]
        gb = groebner_basis(gens, ring=R2)
        leads = [g.leading_monomial() for g in gb.elements]
        for i, g in enumerate(gb.elements):
            assert g.leading_coefficient() == 1
            for m in g.terms:
                for j, lead in enumerate(leads):
                    if i != j:
                        assert not mono_divides(lead, m)
        # sorted largest lead first
        assert leads == sorted(leads, key=R2.key, reverse=True)


def test_uniqueness_under_shuffle_and_rescale(R2):
    rng = random.Random(23)
    gens = [R2.parse("x^2 + y"), R2.parse("x*y - 1"), R2.parse("y^3 - x")]
    reference = groebner_basis(gens).elements
    for _ in range(20):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [
            g.scale(Fraction(rng.randint(1, 9), rng.randint(1, 9))) for g in shuffled
        ]
        assert groebner_basis(scaled).elements == reference


def test_transform_reproduces_basis(R2):
    rng = random.Random(29)
    for _ in range(10):
        gens = [rand_poly(rng, R2, deg=2, nterms=3) for _ in range(3)]
        gb = groebner_basis(gens, ring=R2)
        assert gb.transform is not None
        for element, row in zip(gb.elements, gb.transform):
            acc = R2.zero()
            for c, g in zip(row, gens):
                acc = acc + c * g
            assert acc == element


def test_membership_certificate(R2):
    x, y = R2.var("x"), R2.var("y")
    gens = [x * y - 1, y**2 - 1]
    gb = groebner_basis(gens)
    f = (x - y) * (x + 3) + (y**2 - 1) * y
    res = gb.divide(f)
    cof, rem = gb.lift_to_generators(res), res.remainder
    assert rem.is_zero()
    acc = R2.zero()
    for c, g in zip(cof, gens):
        acc = acc + c * g
    assert acc == f
    g = x + 5
    res = gb.divide(g)
    cof, rem = gb.lift_to_generators(res), res.remainder
    acc = rem
    for c, gen in zip(cof, gens):
        acc = acc + c * gen
    assert acc == g
    assert not rem.is_zero()


def test_contains_one_with_certificate(R2):
    x = R2.var("x")
    gb = groebner_basis([x, x - 1])
    assert gb.contains_one()
    res = gb.divide(R2.one())
    cof, rem = gb.lift_to_generators(res), res.remainder
    assert rem.is_zero()
    assert list(cof) == [R2.one(), -R2.one()]
    assert not groebner_basis([x]).contains_one()


def test_contains_one_more_cases(R2):
    x, y = R2.var("x"), R2.var("y")
    # (x^2, x - y, y) is the maximal ideal (x, y): proper, so no unit
    gb = groebner_basis([x**2, x - y, y])
    assert not gb.contains_one()
    assert sorted(str(g) for g in gb.elements) == ["x", "y"]
    # shifting the last generator off the origin empties the zero set
    gb2 = groebner_basis([x**2, x - y, y - 1])
    assert gb2.contains_one()
    res = gb2.divide(R2.one())
    cof, rem = gb2.lift_to_generators(res), res.remainder
    assert rem.is_zero()
    acc = R2.zero()
    for c, g in zip(cof, gb2.generators):
        acc = acc + c * g
    assert acc == R2.one()
    # and the univariate pattern: 1 = 1*x^2 + (-x - 1)*(x - 1)
    gb3 = groebner_basis([x**2, x - 1])
    assert gb3.contains_one()
    res3 = gb3.divide(R2.one())
    cof3, rem3 = gb3.lift_to_generators(res3), res3.remainder
    assert rem3.is_zero()
    acc = R2.zero()
    for c, g in zip(cof3, gb3.generators):
        acc = acc + c * g
    assert acc == R2.one()


def test_normal_form_idempotent_and_congruent(R2):
    rng = random.Random(31)
    gb = groebner_basis([R2.parse("x^2 - y"), R2.parse("y^2 - 1")])
    for _ in range(20):
        f = rand_poly(rng, R2, deg=4)
        g = rand_poly(rng, R2, deg=4)
        nf = gb.normal_form(f)
        assert gb.normal_form(nf) == nf
        assert (gb.normal_form(f) == gb.normal_form(g)) == gb.contains(f - g)


def test_ring_mismatch_rejected(R2):
    other = PolyRing(("a", "b"))
    with pytest.raises(RingMismatchError):
        groebner_basis([R2.var("x"), other.var("a")])
    with pytest.raises(RingMismatchError):
        divide(R2.var("x"), [other.var("a")])


def test_lex_basis_differs():
    # under lex, y^2 - 1 and x - y still form the basis of (xy - 1, y^2 - 1),
    # but lex on (x^2 - y) eliminates differently than grevlex
    L2 = PolyRing(("x", "y"), "lex")
    gb_lex = groebner_basis([L2.parse("x^2 - y")])
    assert gb_lex.elements[0].leading_monomial() == (2, 0)
    gb_grev = groebner_basis([L2.parse("x - y^2")])
    assert gb_grev.elements[0].leading_monomial() == (1, 0)


# ---------------------------------------------------------------------------
# the integer reducer against textbook rational division


def textbook_divide(f, divisors):
    """Division as in Cox, Little and O'Shea, with Fraction arithmetic only."""
    ring, key = f.ring, f.ring.key
    quotients = [ring.zero() for _ in divisors]
    remainder = ring.zero()
    p = f
    while not p.is_zero():
        m = max(p.terms, key=key)
        c = p.terms[m]
        for i, d in enumerate(divisors):
            if d.is_zero():
                continue
            dm = max(d.terms, key=key)
            if mono_divides(dm, m):
                t = ring.monomial(mono_div(m, dm), c / d.terms[dm])
                quotients[i] = quotients[i] + t
                p = p - t * d
                break
        else:
            lt = ring.monomial(m, c)
            remainder = remainder + lt
            p = p - lt
    return quotients, remainder


def rational_poly(rng, ring, deg, nterms):
    monos = monomials_up_to_degree(ring.nvars, deg)
    terms = {
        m: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        for m in rng.sample(monos, min(nterms, len(monos)))
    }
    return Polynomial(ring, terms)


def awkward_divisor(rng, ring):
    """Non-monic, non-primitive, negative leading coefficient."""
    d = rational_poly(rng, ring, 2, 4)
    while d.is_zero():
        d = rational_poly(rng, ring, 2, 4)
    scale = Fraction(rng.choice((6, 10, 15, 21)), rng.randint(1, 5))
    if d.leading_coefficient() > 0:
        scale = -scale
    return d.scale(scale)


REDUCER_RINGS = {
    name: PolyRing(("x", "y", "z"), order)
    for name, order in (("lex", "lex"), ("grevlex", "grevlex"), ("elimination", EliminationOrder((0, 2), 3)))
}


def assert_same_division(f, divisors):
    res = divide(f, divisors)
    quotients, remainder = textbook_divide(f, divisors)
    assert list(res.quotients) == quotients
    assert res.remainder == remainder
    for p in (*res.quotients, res.remainder):
        assert all(type(c) is Fraction for c in p.terms.values())
    return res


@pytest.mark.parametrize("order", sorted(REDUCER_RINGS))
def test_integer_reducer_matches_textbook_division(order):
    R3 = REDUCER_RINGS[order]
    rng = random.Random(41)
    for trial in range(25):
        f = R3.zero() if trial == 0 else rational_poly(rng, R3, 4, 8)
        divisors = [awkward_divisor(rng, R3) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(0, 2)):
            divisors.insert(rng.randint(0, len(divisors)), R3.zero())
        assert_same_division(f, divisors)


def test_integer_reducer_removes_content_on_long_reductions(monkeypatch):
    # the content-removal step is the only gcd call with more than two
    # arguments (sigma and the working coefficients); count when it divides
    removed = []
    real_gcd = groebner.gcd

    def counting_gcd(*args):
        g = real_gcd(*args)
        if len(args) > 2 and g > 1:
            removed.append(g)
        return g

    monkeypatch.setattr(groebner, "gcd", counting_gcd)
    R3 = PolyRing(("x", "y", "z"))
    rng = random.Random(43)
    steps = 0
    for _ in range(6):
        f = rational_poly(rng, R3, 6, 25)
        divisors = [rational_poly(rng, R3, 2, 4) for _ in range(3)]
        divisors = [d for d in divisors if not d.is_zero()]
        res = assert_same_division(f, divisors)
        steps += sum(len(q.terms) for q in res.quotients)
    assert steps > 150
    assert removed


def test_integer_form_is_primitive_and_memoised():
    R3 = PolyRing(("x", "y", "z"))
    f = R3.parse("-6/5*x^2 + 9/10*y - 3")
    ints, scale = f.integer_form()
    assert ints == {(2, 0, 0): -4, (0, 1, 0): 3, (0, 0, 0): -10}
    assert scale == Fraction(3, 10)
    assert f.integer_form() is f.integer_form()
    assert f.integer_form()[1] == scale
    assert f.primitive_part() == (R3.parse("4*x^2 - 3*y + 10"), -scale)
    assert R3.zero().integer_form() == ({}, Fraction(1))


# ---------------------------------------------------------------------------
# Buchberger stops at the unit ideal

KATSURA3 = (
    "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0",
    "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1",
    "u1^2 + 2*u0*u2 + 2*u1*u3 - u2",
    "u0 + 2*u1 + 2*u2 + 2*u3 - 1",
)


@pytest.mark.parametrize("track", [False, True], ids=["plain", "tracked"])
def test_basis_stops_at_first_constant_remainder(track, monkeypatch):
    R4 = PolyRing(("u0", "u1", "u2", "u3"))
    gens = [R4.parse(t) for t in KATSURA3] + [R4.parse("2*u0 - 4")]
    remainders = []
    real_divide = groebner.divide

    def recording_divide(f, divisors, packed=None):
        res = real_divide(f, divisors, packed)
        remainders.append((len(divisors), res.remainder))
        return res

    monkeypatch.setattr(groebner, "divide", recording_divide)
    gb = groebner_basis(gens)
    assert gb.elements == (R4.one(),)
    assert gb.contains_one()

    # S-pair remainders, then one tail reduction of [1] against no others
    *spairs, (others, _) = remainders
    assert others == 0
    nonzero = [r for _, r in spairs if not r.is_zero()]
    assert len(nonzero) >= 3
    assert all(not r.is_constant() for r in nonzero[:-1])
    assert spairs[-1][1].is_constant() and not spairs[-1][1].is_zero()

    if track:
        (row,) = gb.transform
        acc = R4.zero()
        for t, g in zip(row, gens):
            acc = acc + t * g
        assert acc == R4.one()
    else:
        # the transform is built on first read, not by the basis run
        assert getattr(gb, "_transform", None) is None


# ---------------------------------------------------------------------------
# packed Buchberger state


def test_integer_spoly_matches_rational_reference():
    # negative and fractional leading coefficients, under each order: the
    # packed S-polynomial is a primitive map over a positive content
    rng = random.Random(47)

    def packed_spoly(p, q):
        (lp, _), (lq, _) = p.leading_term(), q.leading_term()
        lcm = mono_lcm(lp, lq)
        divisors = groebner._Divisors(p.ring, [p, q])
        f = divisors.spoly(0, 1, mono_div(lcm, lp), mono_div(lcm, lq))
        _, terms, num, den = f
        assert num > 0 and den > 0 and gcd(1, *terms.values()) == 1
        return read_dividend(f, divisors)

    for order, R3 in REDUCER_RINGS.items():
        for _ in range(40):
            p, q = awkward_divisor(rng, R3), rational_poly(rng, R3, 3, 5)
            if q.is_zero():
                continue
            if rng.random() < 0.5:
                p, q = q, p.scale(Fraction(-7, 3))
            s = packed_spoly(p, q)
            assert s == spoly(p, q), order
            assert s.integer_form() == spoly(p, q).integer_form()
    x = REDUCER_RINGS["lex"].var("x")
    assert packed_spoly(x, x.scale(-3)).is_zero()


def test_adopted_packed_form_is_checked_against_its_element():
    # a nonzero S-pair remainder's packed map becomes the new element's
    # divisor form; under VERIFY_DIVISION it must have the element's lead,
    # primitive integer coefficients and a positive content, and each way a
    # builder could get it wrong (a negated S-polynomial among them) fails
    R2 = PolyRing(("x", "y"))
    p, q = R2.parse("-3*x^2*y + 2*y - 1"), R2.parse("6*x*y^2 - 5/2*x")
    divisors = groebner._Divisors(R2, [p, q])
    res = divide(divisors.spoly(0, 1, (0, 1), (1, 0)), divisors)
    prim, c = divisors.adopt(res.remainder)
    assert res.remainder == prim.scale(c) and divisors[-1] is prim
    memo = prim._pack
    assert memo is divisors.packs[-1] and memo[4:] == (1, 1)
    width, lead, lc, tail, num, den = memo
    (m, v), *rest = tail
    negated = (width, lead, -lc, tuple((t, -w) for t, w in tail), num, den)
    for bad in (
        negated,
        (width, lead, lc, tail, -num, den),
        (width, lead, 2 * lc, tuple((t, 2 * w) for t, w in tail), num, den),
        (width, m, v, ((lead, lc), *rest), num, den),
    ):
        with pytest.raises(RuntimeError):
            groebner._check_packed(prim, bad)
    groebner._check_packed(prim, memo)


def test_adopt_reads_the_remainders_lead_from_its_packed_form(monkeypatch):
    # under the ring's order the packed remainder's largest monomial is its
    # lead: `adopt` stores it on r, so `primitive_part` signs r with no
    # key-function max over its terms
    import smeared.poly as poly

    R2 = PolyRing(("x", "y"))
    divisors = groebner._Divisors(R2, [R2.parse("-3*x^2*y + 2*y - 1"), R2.parse("6*x*y^2 - 5/2*x")])
    r = divide(divisors.spoly(0, 1, (0, 1), (1, 0)), divisors).remainder
    assert r._lead is None and len(r.terms) > 1
    scans = []
    monkeypatch.setattr(poly, "max", lambda *a, **k: scans.append(k) or max(*a, **k), raising=False)
    prim, c = divisors.adopt(r)
    monkeypatch.undo()
    assert not [k for k in scans if "key" in k]
    assert r._lead == Polynomial._new(R2, *r.integer_form()).leading_term()
    assert prim.scale(c) == r and prim.leading_coefficient() > 0


def test_basis_packs_its_lead_list_once_per_width(R2, monkeypatch):
    # a basis keeps the packed leads `_reduce` reads, per width, across divisions
    x, y = R2.var("x"), R2.var("y")
    gb = groebner_basis([x**2 - y, x * y - 1])
    calls, real = [], groebner._pack_all
    monkeypatch.setattr(groebner, "_pack_all", lambda *a: calls.append(a) or real(*a))
    for f in (x**3 + y, x * y**2 - 2, x + 1, x**3 + y, x**200 - y, x**201 * y):
        assert gb.divide(f) == divide(f, list(gb.elements))
    own = [a for a in calls if a[0] is gb.elements]
    assert [a[1] for a in own] == [8, 16] and sorted(gb._leads) == [8, 16]
    assert len(calls) == len(own) + 6  # the list divisions pack theirs each time


def test_constant_remainder_is_not_packed(monkeypatch):
    # the S-pair remainder of (x - 1, x - 2) is a constant: the loop stops at
    # it, so the set adopts it unpacked, and 1 = (x - 1) - (x - 2) still
    R2 = PolyRing(("x", "y"))
    x = R2.var("x")
    adopted, real_adopt = [], groebner._Divisors.adopt
    monkeypatch.setattr(groebner._Divisors, "adopt", lambda ds, r: adopted.append(real_adopt(ds, r)) or adopted[-1])
    gb = groebner_basis([x - 1, x - 2])
    ((prim, _),) = adopted
    assert prim.is_constant() and getattr(prim, "_pack", None) is None
    assert gb.elements == (R2.one(),) and gb.transform == ((R2.one(), -R2.one()),)


def katsura3_ring_gens():
    R4 = PolyRing(("u0", "u1", "u2", "u3"))
    return R4, [R4.parse(t) for t in KATSURA3]


def test_basis_decodes_no_quotient_until_transform_is_read(monkeypatch):
    # VERIFY_DIVISION reads every quotient, so it is off here
    monkeypatch.setattr(groebner, "VERIFY_DIVISION", False)
    R4, gens = katsura3_ring_gens()
    finished, results = [], []
    real_finish, real_divide = groebner._finish, groebner.divide
    monkeypatch.setattr(groebner, "_finish", lambda *a: finished.append(a) or real_finish(*a))

    def counting_divide(f, divisors, packed=None):
        results.append(real_divide(f, divisors, packed))
        return results[-1]

    monkeypatch.setattr(groebner, "divide", counting_divide)
    gb = groebner_basis(gens)
    # one `_finish` per nonzero remainder, none for a quotient
    nonzero = [not res.remainder.is_zero() for res in results]
    assert len(finished) == sum(nonzero) and not all(nonzero)
    # the record keeps of each division only its packed quotients
    sources, spairs, (kept_idx, tails, lcs) = gb.steps
    recorded = [step[-1] for step in spairs] + list(tails)
    packed = {id(res._packed): res for res in results}
    assert recorded and all(id(q) in packed for q in recorded)
    assert all(callable(res._quotients) for res in results)
    # the replay sums the packed quotients: reading `transform` decodes the
    # rows and no quotient
    rows = gb.transform
    assert len(finished) > sum(nonzero) and all(callable(res._quotients) for res in results)
    assert gb.steps is None  # the record is dropped with the transform memoised
    assert gb.transform is rows
    monkeypatch.setattr(groebner, "VERIFY_DIVISION", True)
    assert groebner_basis(gens).transform == rows


def test_division_result_reads_like_a_pair(monkeypatch):
    import copy
    import pickle

    monkeypatch.setattr(groebner, "VERIFY_DIVISION", False)
    R3 = PolyRing(("x", "y", "z"))
    f, divisors = R3.parse("x^2*y - 3/2*z + y"), [R3.parse("x*y - 1"), R3.parse("z^2 - y")]
    want = (divide(f, divisors).quotients, divide(f, divisors).remainder)

    def fresh():
        res = divide(f, divisors)
        assert callable(res._quotients)  # still packed
        return res

    for read in (False, True):
        for clone in (lambda r: r, copy.deepcopy, copy.copy, lambda r: pickle.loads(pickle.dumps(r))):
            res = fresh()
            if read:
                res.quotients
            q, r = clone(res)
            assert (q, r) == want
            assert clone(fresh()) == res == groebner.DivisionResult(*want)
        assert repr(fresh()) == f"DivisionResult(quotients={want[0]!r}, remainder={want[1]!r})"
    assert fresh() != groebner.DivisionResult(want[0], R3.zero())


# the leads of a reduced basis alone decide maximality, finiteness and chain
# directions, so the bases are checked against an independent implementation
@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_reduced_basis_matches_sympy(order):
    sympy = pytest.importorskip("sympy")
    ring = PolyRing(("x", "y", "z"), order)
    syms = sympy.symbols(ring.variables)
    rng = random.Random(41)
    for _ in range(25):
        gens = [rand_poly(rng, ring, deg=2, nterms=3) for _ in range(rng.randint(1, 3))]
        if all(g.is_zero() for g in gens):
            continue
        exprs = [
            sum(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(s**e for s, e in zip(syms, m)))
                for m, c in g.terms.items()
            )
            for g in gens
        ]
        theirs = sympy.groebner(exprs, *syms, order=order, domain="QQ").polys
        gb = groebner_basis(gens, ring=ring)
        assert {frozenset(g.terms.items()) for g in gb.elements} == {
            frozenset((m, Fraction(int(c.p), int(c.q))) for m, c in p.terms()) for p in theirs
        }
        assert set(gb.leading_monomials()) == {p.LM(order=order).exponents for p in theirs}


# ---------------------------------------------------------------------------
# the lift to the generators, on packed monomials, against the sum it computes


def reference_lift(gb, res):
    """sum(q[k] * T[k][t]) per generator t, over the decoded quotients and
    the transform rows, summed with `sum_of_products`."""
    rows = list(zip(res.quotients, gb.transform))
    return tuple(sum_of_products(gb.ring, [(1, q, row[t]) for q, row in rows]) for t in range(len(gb.generators)))


def assert_lift(gb, res, f):
    cof = gb.lift_to_generators(res)
    assert cof == reference_lift(gb, res)
    assert sum_of_products(gb.ring, [(1, c, g) for c, g in zip(cof, gb.generators)]) == f - res.remainder
    return cof


_SMALL_MAPS = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), st.fractions(min_value=-6, max_value=6, max_denominator=4), max_size=3
)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    st.sampled_from(["grevlex", "lex"]),
    st.lists(_SMALL_MAPS, min_size=1, max_size=3),
    st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * 3), st.fractions(min_value=-20, max_value=20, max_denominator=12), max_size=6
    ),
    st.booleans(),
)
def test_lift_matches_the_sum_over_the_transform(order, gens, f, checked):
    # unchecked, the quotients stay packed until the reference reads them
    ring = PolyRing(("x", "y", "z"), order)
    gens = [Polynomial(ring, terms) for terms in gens]
    assume(any(not g.is_zero() for g in gens))
    f = Polynomial(ring, f)
    saved, groebner.VERIFY_DIVISION = groebner.VERIFY_DIVISION, checked
    try:
        gb = groebner_basis(gens, ring=ring)
        res = gb.divide(f)
        assert callable(res._quotients) != checked
        assert_lift(gb, res, f)
    finally:
        groebner.VERIFY_DIVISION = saved


def test_lift_widens_to_rows_past_the_division_width(R2, monkeypatch):
    # the unit ideal (x^200 - 1, x^201) has basis [1] and a row of degree
    # 200, but 3 divided by [1] packs at width 8: the rows pack at 16, and
    # the quotient map is re-packed there
    monkeypatch.setattr(groebner, "VERIFY_DIVISION", False)
    x = R2.var("x")
    gb = groebner_basis([x**200 - 1, x**201])
    assert gb.contains_one() and max(p.degree() for p in gb.transform[0]) == 200
    three = R2.const(3)
    res = gb.divide(three)
    assert res._packed[0] == 8
    cof = assert_lift(gb, res, three)
    assert gb._rows[0] == 16 and list(gb._rows[1]) == [16]
    assert cof == tuple(3 * c for c in gb.transform[0])


def test_lift_widens_rows_to_a_wider_division(R2, monkeypatch):
    # the rows of (x*y - 1, y^2 - 1) pack at 8 bits, but f of degree 131
    # divides at 16: the rows are re-packed there once, and kept
    monkeypatch.setattr(groebner, "VERIFY_DIVISION", False)
    x, y = R2.var("x"), R2.var("y")
    gb = groebner_basis([x * y - 1, y**2 - 1])
    f = x**130 * y - 2 * x**129 + y
    res = gb.divide(f)
    assert res._packed[0] == 16
    cof = assert_lift(gb, res, f)
    assert gb._rows[0] == 8 and list(gb._rows[1]) == [8, 16]
    assert gb.lift_to_generators(gb.divide(f)) == cof and list(gb._rows[1]) == [8, 16]


def test_lift_reads_quotients_read_before_it(R2, monkeypatch):
    # a traced run reads the quotients before the lift: the packed maps stay
    monkeypatch.setattr(groebner, "VERIFY_DIVISION", False)
    x, y = R2.var("x"), R2.var("y")
    gb = groebner_basis([x * y - 1, y**2 - 1])
    f = (x - y) * (x + 3) + (y**2 - 1) * y + 5 * x**3
    unread = gb.lift_to_generators(gb.divide(f))
    res = gb.divide(f)
    res.quotients
    assert not callable(res._quotients) and res._packed is not None
    assert assert_lift(gb, res, f) == unread


@pytest.mark.parametrize(
    "powers, order",
    [((2, 3), "grevlex"), ((200, 201), "grevlex"), ((2, 3), EliminationOrder((0,), 2))],
    ids=["width8", "width16", "elimination"],
)
def test_lift_packs_unpickled_quotients(powers, order, monkeypatch):
    # an unpickled result keeps its packed maps, and the lift reads them; the
    # maps hold no order key, which under an elimination order is a closure
    import pickle

    monkeypatch.setattr(groebner, "VERIFY_DIVISION", False)
    ring = PolyRing(("x", "y"), order)
    x, y = ring.var("x"), ring.var("y")
    gb = groebner_basis([x ** powers[0] - y, x ** powers[1] + y**2 - 1])
    f = x**5 * y - 7 * y**3 + x
    res = gb.divide(f)
    clone = pickle.loads(pickle.dumps(res))
    assert clone._packed == res._packed and clone._packed is not res._packed
    assert assert_lift(gb, clone, f) == gb.lift_to_generators(res)


def test_lift_of_zero_quotients(R2):
    x, y = R2.var("x"), R2.var("y")
    gb = groebner_basis([x**2 - y, x * y - 1])
    for f in (R2.zero(), y + 3):
        res = gb.divide(f)
        assert all(q.is_zero() for q in res.quotients) and res.remainder == f
        assert assert_lift(gb, res, f) == (R2.zero(), R2.zero())


# ---------------------------------------------------------------------------
# the replayed transform rows against a replay over decoded quotients


def reference_rows(gb):
    """The transform from the record `gb.steps` (read before `gb.transform`),
    replayed over quotients decoded here and summed with `sum_of_products`:
    each S-pair's row is x^mi * row_i / (lc_i * c) - x^mj * row_j / (lc_j * c)
    less sum(q_k * row_k) / c, each kept element's row then loses its tail
    quotients' rows, and each row is divided by its leading coefficient."""
    ring, n = gb.ring, len(gb.generators)
    sources, spairs, (kept_idx, tails, lcs) = gb.steps

    def quotients(recorded):
        # the nonzero quotients (k, q_k), entry (k, [tau, map], num, den) for (num / den) * map / tau
        width, entries = recorded
        decode = groebner._layout(ring, width)[2]
        return [
            (k, Polynomial(ring, {m: Fraction(v * num, den * tau) for m, v in decode(terms, 1).items()}))
            for k, (tau, terms), num, den in entries
        ]

    def combine(products):
        return [sum_of_products(ring, [(s, q, row[t]) for s, q, row in products]) for t in range(n)]

    rows = [[ring.one() if t == i else ring.zero() for t in range(n)] for i in sources]
    for i, j, mi, mj, lc_i, lc_j, c, recorded in spairs:
        products = [(1 / (lc_i * c), Polynomial(ring, {mi: 1}), rows[i])]
        products.append((-1 / (lc_j * c), Polynomial(ring, {mj: 1}), rows[j]))
        rows.append(combine(products + [(-1 / c, q, rows[k]) for k, q in quotients(recorded)]))
    rows = [rows[i] for i in kept_idx]
    for idx, recorded in enumerate(tails):
        others = rows[:idx] + rows[idx + 1 :]
        tail = [(-1, q, others[k]) for k, q in quotients(recorded)]
        rows[idx] = combine(tail + [(1, ring.one(), rows[idx])])
    return tuple(tuple(p.scale(1 / lc) for p in row) for row, lc in zip(rows[::-1], lcs[::-1]))


def assert_rows_match_reference(gb) -> bool:
    """The kernel's rows equal the reference's, each packed entry a primitive
    map over its content; True if the replay started again past the widest
    recorded division width."""
    recorded = [step[-1] for step in gb.steps[1]] + list(gb.steps[2][1])
    widest = max((width for width, _ in recorded), default=8)
    want = reference_rows(gb)
    assert gb.transform == want
    width, rows = gb._rows
    assert all(tau == 1 and gcd(*terms.values()) == 1 for row in rows[width] for _, (tau, terms), _, _ in row)
    for g, row in zip(gb.elements, want):
        assert sum_of_products(gb.ring, [(1, t, gen) for t, gen in zip(row, gb.generators)]) == g
    return width > widest


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.sampled_from(["grevlex", "lex"]), st.lists(_SMALL_MAPS, min_size=1, max_size=4))
def test_replayed_rows_match_the_reference(order, gens):
    ring = PolyRing(("x", "y", "z"), order)
    gens = [Polynomial(ring, terms) for terms in gens]
    assume(any(not g.is_zero() for g in gens))
    assert not assert_rows_match_reference(groebner_basis(gens, ring=ring))


@pytest.mark.parametrize(
    "order, gens",
    [("grevlex", ["x*y - 1", "x^100"]), ("lex", ["x - z^3", "x*y - 1", "y^75"])],
    ids=["grevlex", "lex"],
)
def test_replay_starts_again_past_its_width(order, gens):
    # every recorded division packs at 8 bits, but a row passes them (under
    # grevlex the row of x*y - 1 has degree 198): the replay packs at 16
    ring = PolyRing(("x", "y", "z"), order)
    gb = groebner_basis([ring.parse(g) for g in gens])
    assert gb.contains_one() and assert_rows_match_reference(gb)
    assert gb._rows[0] == 16
