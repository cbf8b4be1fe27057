"""The integer-core `Polynomial` against the `Fraction`-dict one it replaced.

`RefPolynomial` is the previous implementation, kept as a reference: a plain
`{monomial: Fraction}` map with `Fraction` arithmetic throughout.  Seeded
random operation sequences run on both, and every result must agree in
value, text, terms, leading term, integer form, primitive part and value at
a point.  `reference_evaluate` is the `Fraction`-power loop that
`Polynomial.evaluate` ran before it summed in integers, and `reference_str`
the loop that `Polynomial.__str__` ran before it spelled monomials through
the ring's monomial table.
"""

import copy
import pickle
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

import smeared.poly
from smeared import PolyRing, Polynomial
from smeared.poly import _MONOMIAL_TABLE_SIZE, GREVLEX, LEX, _read_flat, monomial_key, monomials_up_to_degree


class RefPolynomial:
    """Immutable polynomial as a map from monomials to nonzero `Fraction`s."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {tuple(m): Fraction(c) for m, c in terms.items() if c}

    @classmethod
    def const(cls, ring, c):
        return cls(ring, {(0,) * ring.nvars: Fraction(c)})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self):
        return next(iter(self.terms.values()), Fraction(0))

    def leading_term(self):
        m = max(self.terms, key=monomial_key(GREVLEX))
        return m, self.terms[m]

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefPolynomial.const(self.ring, other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return RefPolynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return RefPolynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefPolynomial.const(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return RefPolynomial(self.ring, terms)

    __rmul__ = __mul__

    def scale(self, c):
        return RefPolynomial(self.ring, {m: co * c for m, co in self.terms.items()})

    def mul_term(self, mono, coeff):
        return RefPolynomial(
            self.ring,
            {tuple(x + y for x, y in zip(m, mono)): c * coeff for m, c in self.terms.items()},
        )

    def __pow__(self, n):
        result = RefPolynomial.const(self.ring, 1)
        for _ in range(n):
            result = result * self
        return result

    def evaluate(self, point):
        total = Fraction(0)
        for m, c in self.terms.items():
            for x, e in zip(point, m):
                c *= Fraction(x) ** e
            total += c
        return total

    def integer_form(self):
        if not self.terms:
            return {}, Fraction(1)
        den = lcm(*(c.denominator for c in self.terms.values()))
        num = gcd(*(c.numerator for c in self.terms.values()))
        ints = {m: c.numerator * (den // c.denominator) // num for m, c in self.terms.items()}
        return ints, Fraction(num, den)

    def primitive_part(self):
        if not self.terms:
            return self, Fraction(1)
        ints, c = self.integer_form()
        sign = -1 if self.leading_term()[1] < 0 else 1
        return RefPolynomial(self.ring, {m: sign * v for m, v in ints.items()}), sign * c

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        key = monomial_key(self.ring.order)
        parts = []
        ordered = sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)
        for i, (m, c) in enumerate(ordered):
            mag = abs(c)
            factors = [str(mag)] if mag != 1 or not any(m) else []
            for name, e in zip(self.ring.variables, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if i == 0:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"{'-' if c < 0 else '+'} {body}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# random operation sequences

RINGS = (PolyRing(("x", "y")), PolyRing(("x", "y", "z"), LEX))


def _coeff(rng):
    num = rng.choice((-1, 1)) * rng.randint(1, 30)
    return Fraction(num, rng.choice((1, 1, 2, 3, 6, 35))) if rng.random() < 0.7 else num


def _random_terms(rng, ring):
    monos = monomials_up_to_degree(ring.nvars, 3)
    if rng.random() < 0.15:  # a constant, possibly zero
        return {(0,) * ring.nvars: rng.choice((0, _coeff(rng)))}
    return {m: _coeff(rng) for m in rng.sample(monos, rng.randint(1, 5))}


def _both(ring, terms):
    return Polynomial(ring, terms), RefPolynomial(ring, terms)


def _step(rng, ring, pool):
    """One random operation on pool members; returns (new, ref) results."""
    (a, ra), (b, rb) = rng.choice(pool), rng.choice(pool)
    op = rng.choice(("+", "-", "*", "**", "scale", "mul_term", "neg", "cancel", "scalar"))
    if op == "+":
        return a + b, ra + rb
    if op == "-":
        return a - b, ra - rb
    if op == "*":
        return a * b, ra * rb
    if op == "**":
        n = rng.randint(0, 3)
        return a**n, ra**n
    if op == "scale":
        c = rng.choice((0, -1, _coeff(rng)))
        return a.scale(c), ra.scale(Fraction(c))
    if op == "mul_term":
        mono = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
        c = rng.choice((1, -1, _coeff(rng)))
        return a.mul_term(mono, c), ra.mul_term(mono, Fraction(c))
    if op == "neg":
        return -a, -ra
    if op == "cancel":  # the same sum built in two orders: exactly zero
        c = _coeff(rng)
        return (a.scale(c) + b) - (b + c * a), (ra.scale(c) + rb) - (rb + c * ra)
    c = _coeff(rng)
    form = rng.choice(("p+c", "c+p", "p-c", "c-p", "p*c", "c*p"))
    return {
        "p+c": (a + c, ra + c),
        "c+p": (c + a, c + ra),
        "p-c": (a - c, ra - c),
        "c-p": (c - a, c - ra),
        "p*c": (a * c, ra * c),
        "c*p": (c * a, c * ra),
    }[form]


def _agree(rng, ring, p, r):
    assert isinstance(p, Polynomial)
    assert str(p) == str(r)
    assert dict(p.terms) == r.terms
    assert all(type(c) is Fraction for c in p.terms.values())
    assert p.integer_form() == r.integer_form()
    assert p.is_zero() == r.is_zero()
    assert p.is_constant() == r.is_constant()
    if not r.is_zero():  # under grevlex in every ring; lex shows only in str
        assert p.leading_term() == r.leading_term()
        assert type(p.leading_term()[1]) is Fraction
    prim, c = p.primitive_part()
    rprim, rc = r.primitive_part()
    assert dict(prim.terms) == rprim.terms and c == rc
    point = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ring.nvars)]
    value = p.evaluate(point)
    assert value == r.evaluate(point) and type(value) is Fraction
    # hash consistency: the same value built three ways hashes alike
    for same in (Polynomial(ring, dict(p.terms)), ring.parse(str(p))):
        assert same == p and hash(same) == hash(p)


@pytest.mark.parametrize("seed", range(6))
def test_random_operation_sequences_match_reference(seed):
    rng = random.Random(7000 + seed)
    ring = RINGS[seed % len(RINGS)]
    pool = [_both(ring, _random_terms(rng, ring)) for _ in range(6)]
    zeros = 0
    for _ in range(150):
        p, r = _step(rng, ring, pool)
        _agree(rng, ring, p, r)
        zeros += r.is_zero()
        # equality with the other pool members and with scalars agrees too
        for q, rq in pool:
            assert (p == q) == (r == rq)
            if p == q:
                assert hash(p) == hash(q)
        c = _coeff(rng)
        assert (p == c) == (r == c)
        if len(r.terms) <= 25:
            pool.append((p, r))
            if len(pool) > 12:
                pool.pop(rng.randrange(len(pool)))
    assert zeros  # every sequence cancels to zero at least once


@pytest.mark.parametrize("op", ["mul", "add"])
def test_arithmetic_gcd_calls_do_not_grow_with_terms(monkeypatch, op):
    # a product of primitive polynomials is primitive (Gauss's lemma), so `*`
    # needs no gcd per term, and `+` takes one gcd over the whole sum
    ring = PolyRing(("x", "y", "z"))
    monos = monomials_up_to_degree(3, 9)
    calls = []
    real_gcd = smeared.poly.gcd

    def counting_gcd(*args):
        calls.append(len(args))
        return real_gcd(*args)

    counts = []
    for n in (3, 30, 200):
        rng = random.Random(n)
        f, g = (
            Polynomial(
                ring,
                {
                    m: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
                    for m in rng.sample(monos, n)
                },
            )
            for _ in range(2)
        )
        monkeypatch.setattr(smeared.poly, "gcd", counting_gcd)
        calls.clear()
        result = f * g if op == "mul" else f + g
        monkeypatch.undo()
        counts.append((len(calls), sum(calls)))
        rf, rg = RefPolynomial(ring, dict(f.terms)), RefPolynomial(ring, dict(g.terms))
        assert dict(result.terms) == (rf * rg if op == "mul" else rf + rg).terms
    if op == "mul":
        assert counts == [(0, 0)] * 3  # not even one gcd pass over the product
    else:
        assert max(n_calls for n_calls, _ in counts) <= 2


# ---------------------------------------------------------------------------
# evaluation: `Polynomial.evaluate` against the loop it replaced


def reference_evaluate(p, point):
    """The previous `Polynomial.evaluate`: each integer coefficient times
    the `Fraction` powers of the coordinates, summed, times the content."""
    ints, c = p.integer_form()
    total = 0
    for m, v in ints.items():
        for x, e in zip(point, m):
            if e:
                v *= x**e
        total += v
    return c * total


COORDINATES = (
    0, 1, -1, 2, -3, 7,
    Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), Fraction(7, 4), Fraction(-9, 10),
    Fraction(11, 35),
)


@pytest.mark.parametrize("seed", range(4))
def test_evaluate_matches_reference(seed):
    rng = random.Random(7100 + seed)
    ring = RINGS[seed % len(RINGS)]
    n = ring.nvars
    polys = [ring.zero(), ring.const(3), ring.const(Fraction(-2, 7))]
    for _ in range(40):
        f = Polynomial(ring, _random_terms(rng, ring))
        # products raise the degree, so terms lie at several degree gaps
        polys.append(f * Polynomial(ring, _random_terms(rng, ring)) if rng.random() < 0.5 else f)
    mixed = [Fraction(1, 3), Fraction(-1, 2), 0][:n]  # denominators 3, 2 and 1
    points = [[0] * n, [1] * n, [-1] * n, [Fraction(1, 2)] * n, mixed]
    for p in polys:
        for point in points + [[rng.choice(COORDINATES) for _ in range(n)] for _ in range(6)]:
            value = p.evaluate(point)
            assert value == reference_evaluate(p, point), (str(p), point)
            assert type(value) is Fraction


def test_evaluate_high_power_fills_no_power_table():
    # x^70000 needs one power, not the 70,000 below it: a table of the powers
    # of 2 up to 2^70000 holds some 300 MB and took 0.6 s to fill on a 2-vCPU
    # KVM guest
    ring = PolyRing(("x", "y"))
    for f, point in [
        (ring.parse("x^70000"), [Fraction(1, 2), 0]),
        (ring.parse("x^70000 - 2*y"), [Fraction(3, 2), 1]),
    ]:
        start = time.perf_counter()
        value = f.evaluate(point)
        elapsed = time.perf_counter() - start
        assert value == reference_evaluate(f, point) and type(value) is Fraction
        assert elapsed < 0.25, elapsed


# ---------------------------------------------------------------------------
# text: `Polynomial.__str__` and the monomial table against the loop it replaced


def reference_str(p):
    """The previous `Polynomial.__str__`: each term's factors spelled from
    the exponent tuple, with no table."""
    ints, c = p.integer_form()
    if not ints:
        return "0"
    n, d = c.numerator, c.denominator
    names = p.ring.variables
    parts = []
    for m in sorted(ints, key=monomial_key(p.ring.order), reverse=True):
        v = ints[m]
        num = (-v if v < 0 else v) * n
        g = gcd(num, d) if d != 1 else 1
        if d != g:
            factors = [f"{num // g}/{d // g}"]
        elif num != g or not any(m):
            factors = [str(num // g)]
        else:
            factors = []
        for name, e in zip(names, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        if not parts:
            parts.append(f"-{body}" if v < 0 else body)
        else:
            parts.append(f"{'-' if v < 0 else '+'} {body}")
    return " ".join(parts)


TEXT_RINGS = (
    PolyRing(("x", "y")),
    PolyRing(("x", "y", "z"), LEX),
    PolyRing(("u10", "u2", "x_1")),
    PolyRing(("z", "y", "x", "w"), LEX),
)


def _sweep_polynomial(rng, ring):
    n = ring.nvars
    kind = rng.random()
    if kind < 0.1:
        return ring.zero()
    if kind < 0.2:  # a constant: integral, fractional, negative
        return ring.const(rng.choice((1, -1, 7, Fraction(-3, 4), Fraction(22, 7))))
    terms = {}
    for _ in range(rng.randint(1, 7)):
        # exponents 0-3 mostly, some of 10 and over
        mono = tuple(rng.choice((0, 0, 1, 2, 3, 10, 11, 25)) for _ in range(n))
        terms[mono] = _coeff(rng) * rng.choice((1, 1, 12, Fraction(1, 1000)))
    f = Polynomial(ring, terms)
    return -f if rng.random() < 0.3 else f


@pytest.mark.parametrize("seed", range(4))
def test_str_matches_reference(seed):
    rng = random.Random(7200 + seed)
    negative_leads = fractional = 0
    for ring in TEXT_RINGS:
        # one ring value per sweep, so its table is warm after the first texts
        for _ in range(150):
            f = _sweep_polynomial(rng, ring)
            text = str(f)
            assert text == reference_str(f), text
            # canonical text is the flat reader's to read, never the parser's
            assert _read_flat(text, ring) == f.integer_form(), text
            assert ring.parse(text) == f
            assert str(ring.parse(text)) == text
            if not f.is_zero():
                negative_leads += f.leading_coefficient() < 0
                fractional += f.integer_form()[1].denominator > 1
    assert negative_leads and fractional


def test_monomial_table_is_per_ring_and_bounded():
    # the same text names different exponents in rings with the variables in
    # another order, so a table shared between the two reads one of them wrong
    xy, yx = PolyRing(("x", "y")), PolyRing(("y", "x"))
    for _ in range(2):  # cold tables, then warm
        f, g = xy.parse("3*x^2*y - x*y^10 + 1"), yx.parse("3*x^2*y - x*y^10 + 1")
        assert f.integer_form()[0] == {(2, 1): 3, (1, 10): -1, (0, 0): 1}
        assert g.integer_form()[0] == {(1, 2): 3, (10, 1): -1, (0, 0): 1}
        assert str(f) == "-x*y^10 + 3*x^2*y + 1"
        assert str(g) == "-y^10*x + 3*y*x^2 + 1"

    # more distinct monomials than the table holds: it stops at its bound,
    # and the monomials past it are read and written all the same
    ring = PolyRing(("x", "y", "z"))
    rng = random.Random(7300)
    monos = monomials_up_to_degree(3, 30)
    assert len(monos) > _MONOMIAL_TABLE_SIZE
    f = Polynomial(
        ring, {m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for m in monos}
    )
    text = reference_str(f)
    assert ring.parse(text) == f
    assert len(ring._monomials) == _MONOMIAL_TABLE_SIZE
    assert str(f) == text
    assert len(ring._monomials) == _MONOMIAL_TABLE_SIZE
    # so does the order-key cache, filled from polynomials a part at a time
    assert len(ring._keys) == _MONOMIAL_TABLE_SIZE
    for k in range(0, len(monos), 700):
        part = Polynomial(ring, {m: 1 for m in monos[k:k + 700]})
        assert str(part) == reference_str(part)
    assert len(ring._keys) == _MONOMIAL_TABLE_SIZE
    grevlex = monomial_key(ring.order)
    assert all(key == grevlex(m) for m, key in ring._keys.items())

    # the table is no part of the ring's value
    cold = PolyRing(("x", "y", "z"))
    assert ring == cold and hash(ring) == hash(cold) and repr(ring) == repr(cold)
    assert pickle.dumps(ring) == pickle.dumps(cold)
    for copied in (pickle.loads(pickle.dumps(ring)), copy.deepcopy(ring), copy.copy(ring)):
        assert copied == ring and hash(copied) == hash(ring)
        assert len(copied._monomials) < 10 and not copied._keys
    assert cold.parse(text) == f and str(cold.parse(text)) == text
