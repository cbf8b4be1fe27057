"""The packed-exponent `divide` against the tuple loop it replaced.

`reference_divide` is the previous implementation, kept as a reference: the
same fraction-free integer reduction, with monomials as exponent tuples, a
heap ordered by the negated order key and `mono_divides` for every lead
test.  Seeded and `hypothesis` cases run both, and the quotients and
remainder must agree as values and as text, under grevlex, lex and an
elimination order, including exponents past the first field width and lex
divisions whose exponents outgrow the inputs'.  The Buchberger loop that
drives `divide` is pinned by its S-pair reduction counts, as the benchmark's
tracer reads them, and its pair update on packed leads must reduce the
S-polynomials, in order, that `reference_spolys`, the tuple-lead update it
replaced, reduces.  Its packed S-polynomials and divisor set must widen when
a term outgrows their fields, and its bases must equal sympy's.  Each of its
divisions must be the reference division by the same elements, and each
entry of the set's first-divisor memo exact.
"""

import heapq
import random
from fractions import Fraction
from math import gcd
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smeared.groebner as groebner
from smeared import PolyRing, Polynomial, groebner_basis
from smeared.groebner import divide
from smeared.poly import EliminationOrder, mono_div, mono_divides, sum_of_products


def reference_divide(f, divisors):
    """(quotients, remainder) of the tuple-monomial integer reducer, under
    the ring's order."""
    ring, key = f.ring, f.ring.key

    def descending(m):
        return tuple(-w for w in key(m))

    leads = []
    for d in divisors:
        if d.is_zero():
            leads.append(None)
            continue
        lm = d.leading_monomial()
        ints, content = d.integer_form()
        leads.append((lm, ints[lm], ints.items(), content))
    quotients = [[1, {}] for _ in divisors]
    remainder = [1, {}]
    ints, f_content = f.integer_form()
    work = dict(ints)
    sigma = 1
    heap = [(descending(m), m) for m in work]
    heapq.heapify(heap)
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.get(m)
        if c is None:
            continue
        for idx, lead in enumerate(leads):
            if lead is not None and mono_divides(lead[0], m):
                lm, lc, dterms, _ = lead
                qm = mono_div(m, lm)
                g = gcd(c, lc)
                a, b = lc // g, c // g
                if a < 0:
                    a, b = -a, -b
                if a != 1:
                    sigma *= a
                    for t in work:
                        work[t] *= a
                for dm, dc in dterms:
                    t = tuple(map(add, dm, qm))
                    old = work.get(t)
                    if old is None:
                        work[t] = -b * dc
                        heapq.heappush(heap, (descending(t), t))
                    else:
                        v = old - b * dc
                        if v:
                            work[t] = v
                        else:
                            del work[t]
                _put(quotients[idx], qm, b, sigma)
                if a != 1:
                    g = gcd(sigma, *work.values())
                    if g != 1:
                        sigma //= g
                        for t in work:
                            work[t] //= g
                break
        else:
            _put(remainder, m, c, sigma)
            del work[m]
    zero = ring.zero()
    return (
        [_finish(ring, q, f_content, lead[3]) if q[1] else zero for q, lead in zip(quotients, leads)],
        _finish(ring, remainder, f_content) if remainder[1] else zero,
    )


def _put(acc, m, v, sigma):
    tau, terms = acc
    if tau % sigma:
        t = sigma // gcd(tau, sigma)
        for k in terms:
            terms[k] *= t
        tau *= t
        acc[0] = tau
    terms[m] = v * (tau // sigma)


def _finish(ring, acc, num, den=Fraction(1)):
    tau, terms = acc
    h = gcd(*terms.values())
    terms = {m: v // h for m, v in terms.items()}
    content = Fraction(h * num.numerator * den.denominator, tau * num.denominator * den.numerator)
    return Polynomial._new(ring, terms, content)


R2, R3 = PolyRing(("x", "y")), PolyRing(("x", "y", "z"))
ORDERS = {"grevlex": "grevlex", "lex": "lex", "elimination": EliminationOrder((2, 0), 3)}


def assert_agrees(f, divisors, order):
    """`divide` and `reference_divide` agree on f and the divisors, moved
    into a ring of their variables under `order`."""
    f, *divisors = in_order([f, *divisors], order)
    res = divide(f, divisors)
    quotients, remainder = reference_divide(f, divisors)
    assert list(res.quotients) == quotients
    assert res.remainder == remainder
    assert [str(q) for q in res.quotients] == [str(q) for q in quotients]
    assert str(res.remainder) == str(remainder)
    return res


def in_order(gens, order):
    """The generators, moved into a ring of their variables under `order`:
    a basis is of its ring's order."""
    ring = PolyRing(gens[0].ring.variables, order)
    return [Polynomial(ring, dict(g.terms)) for g in gens]


def random_poly(rng, deg, nterms, scale=1):
    terms = {}
    for _ in range(nterms):
        e = [rng.randint(0, deg) for _ in range(3)]
        while sum(e) > deg:
            e[rng.randrange(3)] //= 2
        terms[tuple(x * scale for x in e)] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return Polynomial(R3, terms)


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_divide_matches_reference(order):
    rng = random.Random(61)
    for trial in range(40):
        f = random_poly(rng, 6, rng.randint(0, 12))
        divisors = [random_poly(rng, 3, rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        if trial % 5 == 0:
            divisors.insert(rng.randint(0, len(divisors)), R3.zero())
        assert_agrees(f, divisors, ORDERS[order])


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_divide_matches_reference_past_the_first_field_width(order):
    # exponents of tens of thousands need 32-bit fields; scaling every
    # exponent keeps the divisibility pattern of the small cases
    rng = random.Random(67)
    for _ in range(10):
        f = random_poly(rng, 5, 8, scale=20000)
        divisors = [random_poly(rng, 2, 3, scale=20000) for _ in range(2)]
        assert_agrees(f, divisors, ORDERS[order])
    x, y = R3.var("x"), R3.var("y")
    res = assert_agrees(x**70000 * y + y**3, [x**69999 - 1, y**2 - x], ORDERS[order])
    assert res.remainder.degree() < 70000


def test_exponents_past_64_bit_fields():
    x, y = R3.var("x"), R3.var("y")
    e = 2**64
    res = assert_agrees(R3.monomial((e + 3, 1, 0)) + y, [R3.monomial((e, 0, 0)) - y], ORDERS["lex"])
    assert res.remainder == in_order([R3.monomial((3, 2, 0)) + y], "lex")[0]


@pytest.mark.parametrize("k, widens", [(40, False), (70, True), (300, False), (20000, True)])
def test_lex_growth_takes_the_widening_path(k, widens, monkeypatch):
    # x^k by x - y^2 leaves y^(2k): when 2k outgrows the fields the inputs'
    # degree k chose (8 bits below 128, 16 below 32768), the division must
    # start again wider, not wrap around
    overflows = []
    real_reduce = groebner._reduce

    def recording_reduce(ints, packs, layout):
        out = real_reduce(ints, packs, layout)
        overflows.append(out is None)
        return out

    monkeypatch.setattr(groebner, "_reduce", recording_reduce)
    L2 = PolyRing(("x", "y"), "lex")
    x, y = L2.var("x"), L2.var("y")
    res = divide(x**k, [x - y**2])
    assert res.remainder == y ** (2 * k)
    assert res.quotients[0] * (x - y**2) + res.remainder == x**k
    assert any(overflows) == widens
    assert overflows[-1] is False


def test_divide_uses_no_tuple_lead_test(monkeypatch):
    monkeypatch.setattr(groebner, "VERIFY_DIVISION", False)

    def forbidden(*args):
        raise AssertionError("divide called mono_divides")

    monkeypatch.setattr(groebner, "mono_divides", forbidden)
    rng = random.Random(71)
    for order in ORDERS.values():
        f, *divisors = in_order([random_poly(rng, 6, 10)] + [random_poly(rng, 3, 3) for _ in range(3)], order)
        divide(f, divisors)


def test_packed_order_is_the_monomial_order():
    monos = sorted({tuple(random.Random(i).choices(range(200), k=3)) for i in range(300)})
    for order in ORDERS.values():
        ring = PolyRing(R3.variables, order)
        units = groebner._layout(ring, 16)[0]
        packed = {sum(e * u for e, u in zip(m, units)): m for m in monos}
        assert [packed[p] for p in sorted(packed)] == sorted(monos, key=ring.key)


def test_divisor_memo_is_reused_and_only_widens():
    x, y = R3.var("x"), R3.var("y")
    d = x**2 - y
    divide(x**5, [d])
    memo = d._pack
    assert memo[0] == 8
    divide(x**7 * y, [d])
    assert d._pack is memo
    divide(x**300, [d])  # f needs 16-bit fields
    assert d._pack[0] == 16
    divide(x**5, [d])
    assert d._pack[0] == 16


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(ORDERS)),
    st.lists(
        st.dictionaries(
            st.tuples(*[st.integers(0, 4)] * 3),
            st.fractions(min_value=-20, max_value=20, max_denominator=12),
            max_size=6,
        ),
        min_size=2,
        max_size=4,
    ),
)
def test_divide_matches_reference_on_generated_polynomials(order, maps):
    f, *divisors = [Polynomial(R3, terms) for terms in maps]
    assert_agrees(f, divisors, ORDERS[order])


# ---------------------------------------------------------------------------
# the Buchberger loop that drives divide


def katsura4():
    ring = PolyRing(tuple(f"u{i}" for i in range(5)))
    u = [ring.var(v) for v in ring.variables]

    def U(i):
        return u[abs(i)] if abs(i) <= 4 else ring.zero()

    gens = []
    for m in range(4):
        s = ring.zero()
        for i in range(-4, 5):
            s = s + U(i) * U(m - i)
        gens.append(s - u[m])
    s = ring.zero()
    for i in range(-4, 5):
        s = s + U(i)
    gens.append(s - 1)
    return gens


@pytest.mark.parametrize("track", [False, True], ids=["plain", "tracked"])
def test_katsura4_spair_reductions_are_pinned(track, monkeypatch):
    # the Gebauer-Moeller update leaves 30 S-pair reductions (the chain
    # criterion it replaced left 33); more means a pruning regression.
    # Reading the transform replays the record and divides nothing more.
    calls = []
    real_divide = groebner.divide

    def counting_divide(f, divisors, packed=None):
        calls.append(len(divisors))
        return real_divide(f, divisors, packed)

    monkeypatch.setattr(groebner, "divide", counting_divide)
    gb = groebner_basis(katsura4())
    if track:
        assert len(gb.transform) == 13
    assert len(gb.elements) == 13
    assert len(calls) - len(gb.elements) == 30


def cyclic5():
    ring = PolyRing(tuple(f"x{i}" for i in range(5)))
    x = [ring.var(v) for v in ring.variables]
    gens = []
    for k in range(1, 6):
        s = ring.zero()
        for i in range(5):
            t = ring.one()
            for j in range(k):
                t = t * x[(i + j) % 5]
            s = s + t
        gens.append(s)
    return gens[:4] + [gens[4] - 5]  # the last sum is 5 * x0*x1*x2*x3*x4


def test_cyclic5_spair_reductions_are_pinned(monkeypatch):
    # pair-bound where Katsura-4 is division-bound: 107 S-pair reductions
    # under the Gebauer-Moeller update on packed leads, as on tuple leads
    calls = []
    real_divide = groebner.divide
    monkeypatch.setattr(groebner, "divide", lambda f, ds, packed=None: calls.append(f) or real_divide(f, ds, packed))
    gb = groebner_basis(cyclic5())
    assert len(gb.elements) == 20
    assert len(calls) - len(gb.elements) == 107


def load_tracer():
    """The benchmark's `Tracer`, imported from bench/tracer.py as it is."""
    import importlib.util
    from pathlib import Path

    spec = importlib.util.spec_from_file_location("tracer", Path(__file__).parents[1] / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


@pytest.mark.parametrize(
    "make, reductions, zero, calls, steps",
    [(katsura4, 30, 20, 43, 751), (cyclic5, 107, 66, 127, 1261)],
    ids=["katsura4", "cyclic5"],
)
def test_tracer_counts_the_loop_divisions(make, reductions, zero, calls, steps):
    # the benchmark counts S-pair reductions from the `groebner.divide` calls
    # under a basis span: a loop that reduced without calling it would read 0
    from smeared import Ideal

    gens = make()
    tracer = load_tracer()()
    tracer.install()
    try:
        Ideal(gens[0].ring, gens).groebner()
    finally:
        tracer.restore()
    m = tracer.summarize(1)
    assert m["groebner.spair_reductions"] == reductions
    assert m["groebner.spair_zero_ratio"] == zero / reductions
    assert m["groebner.divide_calls"] == calls
    assert m["groebner.divide_steps"] == steps


@pytest.mark.parametrize("order", ["grevlex", "lex", EliminationOrder((0,), 3)], ids=str)
def test_every_spair_of_the_basis_reduces_to_zero(order):
    # Buchberger's criterion on the output checks the pair pruning
    rng = random.Random(73)
    for _ in range(12):
        gens = in_order([random_poly(rng, 2, rng.randint(2, 3)) for _ in range(3)], order)
        els = groebner_basis(gens).elements
        for i in range(len(els)):
            for j in range(i + 1, len(els)):
                (li, ci), (lj, cj) = els[i].leading_term(), els[j].leading_term()
                lcm = tuple(map(max, li, lj))
                s = els[i].mul_term(mono_div(lcm, li), 1 / ci) - els[j].mul_term(mono_div(lcm, lj), 1 / cj)
                assert divide(s, els).remainder.is_zero()


def read_dividend(f, divisors):
    """The value of the dividend `divide` was passed, as a `Polynomial`:
    Buchberger's loop passes its S-polynomial packed, (width, map, num, den)
    for num / den * map, with its `_Divisors` set."""
    if not isinstance(divisors, groebner._Divisors):
        return f
    width, terms, num, den = f
    decode = groebner._layout(divisors.ring, width)[2]
    return Polynomial(divisors.ring, {m: Fraction(v * num, den) for m, v in decode(terms, 1).items()})


def reference_spolys(gens):
    """The S-polynomials Buchberger's loop reduces, in order, when its
    Gebauer-Moeller update works on tuple leads, as it did before the leads
    were packed: textbook S-polynomials, `mono_divides` and tuple lcms."""
    polys, key = [g for g in gens if not g.is_zero()], gens[0].ring.key
    leads, heap, active, out = [], [], [], []

    def coprime(a, b):
        return not any(map(min, a, b))

    def update(h):
        lm = leads[h]
        new = [(g, tuple(map(max, leads[g], lm))) for g in active]
        kept = []
        for pos in range(len(new) - 1, -1, -1):
            g, lcm = new[pos]
            if coprime(leads[g], lm) or not any(mono_divides(o, lcm) for _, o in new[:pos] + kept):
                kept.append((g, lcm))
        heap[:] = [
            p
            for p in heap
            if not mono_divides(lm, p[4])
            or p[4] in (tuple(map(max, leads[p[2]], lm)), tuple(map(max, leads[p[3]], lm)))
        ]
        heap.extend((sum(m), key(m), g, h, m) for g, m in kept if not coprime(leads[g], lm))
        heapq.heapify(heap)
        active[:] = [g for g in active if not mono_divides(lm, leads[g])] + [h]

    for p in polys:
        leads.append(p.leading_monomial())
        update(len(leads) - 1)
    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        (li, ci), (lj, cj) = polys[i].leading_term(), polys[j].leading_term()
        s = polys[i].mul_term(mono_div(lcm, li), 1 / ci) - polys[j].mul_term(mono_div(lcm, lj), 1 / cj)
        out.append(s)
        r = divide(s, polys).remainder
        if r.is_zero():
            continue
        polys.append(r.primitive_part()[0])
        if polys[-1].is_constant():
            break
        leads.append(polys[-1].leading_monomial())
        update(len(leads) - 1)
    return out


def lex_tower():
    # every generator has degree below 64, so the pair update starts at
    # 8-bit fields; the lex basis ends at the lead e^320
    ring = PolyRing(("a", "b", "c", "d", "e"), "lex")
    return [ring.parse(t) for t in ("a - b^2", "b - c^2", "c - d^2", "d - e^2", "a^20 - 1")]


def test_lex_tower_widens_the_pair_update():
    gens = lex_tower()
    gb = groebner_basis(gens)
    assert [str(g) for g in gb.elements] == ["a - e^16", "b - e^8", "c - e^4", "d - e^2", "e^320 - 1"]
    for g, row in zip(gb.elements, gb.transform):
        assert sum((t * gen for t, gen in zip(row, gens)), gens[0].ring.zero()) == g


def assert_basis_and_rows(gens):
    """The reduced basis, under the generators' ring's order, equals sympy's,
    and each transform row reproduces its element from the generators."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import ProductOrder, grevlex

    ring = gens[0].ring
    order = ring.order
    gb = groebner_basis(gens)
    syms = sympy.symbols(ring.variables)
    theirs_order = order
    if isinstance(order, EliminationOrder):  # the eliminated block is a prefix
        k = len(order.eliminated)
        assert order.eliminated == tuple(range(k))
        theirs_order = ProductOrder((grevlex, lambda m: m[:k]), (grevlex, lambda m: m[k:]))
    exprs = [
        sum(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**e for s, e in zip(syms, m))) for m, c in g.terms.items())
        for g in gens
    ]
    theirs = sympy.groebner(exprs, *syms, order=theirs_order, domain="QQ").polys
    assert {frozenset(g.terms.items()) for g in gb.elements} == {
        frozenset((m, Fraction(int(c.p), int(c.q))) for m, c in p.terms()) for p in theirs if not p.is_zero
    }
    for g, row in zip(gb.elements, gb.transform):
        assert sum_of_products(ring, [(1, t, gen) for t, gen in zip(row, gens)]) == g
    return gb


def widening_log(monkeypatch) -> list:
    """In order, ("widen", w) per `_Divisors.widen(w)` and ("spoly", w) per
    packed S-polynomial `divide` is passed, w its width."""
    log = []
    real_widen, real_divide = groebner._Divisors.widen, groebner.divide

    def divide(f, divisors, packed=None):
        if isinstance(divisors, groebner._Divisors):
            log.append(("spoly", f[0]))
        return real_divide(f, divisors, packed)

    monkeypatch.setattr(groebner._Divisors, "widen", lambda ds, w: log.append(("widen", w)) or real_widen(ds, w))
    monkeypatch.setattr(groebner, "divide", divide)
    return log


def checked_loop(monkeypatch) -> list:
    """Checks each `_Divisors` division of the Buchberger loop against
    `reference_divide`, and the set's first-divisor memo after it: every key
    is a monomial packed at the set's width that no lead before its position
    divides, and each entry the division wrote is exact, the first element
    whose lead divides the monomial, or the set's length for none.  Returns
    the memo's size before each division and each `_Divisors.widen`."""
    log = []
    real_widen, real_divide = groebner._Divisors.widen, groebner.divide

    def widen(ds, width):
        log.append(("widen", len(getattr(ds, "memo", ()))))
        return real_widen(ds, width)

    def divide(f, ds, packed=None):
        if not isinstance(ds, groebner._Divisors):
            return real_divide(f, ds, packed)
        dividend, before = read_dividend(f, ds), dict(ds.memo)
        log.append(("divide", len(before)))
        res = real_divide(f, ds, packed)
        quotients, remainder = reference_divide(dividend, list(ds))
        assert list(res.quotients) == quotients and res.remainder == remainder
        units, guards, decode = groebner._layout(ds.ring, ds.width)
        leads = [d.leading_monomial() for d in ds]
        for m, k in ds.memo.items():
            (e,) = decode({m: 1}, 1)
            assert not m & guards and sum(map(mul, e, units)) == m
            first = next((i for i, lead in enumerate(leads) if mono_divides(lead, e)), len(leads))
            assert k == first if before.get(m) != k else k <= first
        return res

    monkeypatch.setattr(groebner._Divisors, "widen", widen)
    monkeypatch.setattr(groebner, "divide", divide)
    return log


@pytest.mark.parametrize("order", ["lex", EliminationOrder((0,), 2)], ids=str)
def test_spoly_widens_the_divisor_set(order, monkeypatch):
    # x^2 - y^100 and x*y^30 - 1 fit 8-bit fields, but their S-polynomial
    # x - y^130 sets a guard bit: the set re-packs at 16 before dividing
    log, checked = widening_log(monkeypatch), checked_loop(monkeypatch)
    ring = PolyRing(R2.variables, order)
    gb = assert_basis_and_rows([ring.parse("x^2 - y^100"), ring.parse("x*y^30 - 1")])
    assert len(gb.elements) == 2
    assert log[:3] == [("widen", 8), ("widen", 16), ("spoly", 16)]


def test_reduction_widens_the_divisor_set(monkeypatch):
    # the S-polynomial 1 - x^69*y^3 of x - y^2 and x^70*y - 1 fits 8-bit
    # fields, but reducing it by x - y^2 reaches y^141: `divide` re-packs
    # the set and the S-polynomial at 16
    log, checked = widening_log(monkeypatch), checked_loop(monkeypatch)
    L2 = PolyRing(R2.variables, "lex")
    gb = assert_basis_and_rows([L2.parse("x - y^2"), L2.parse("x^70*y - 1")])
    assert [str(g) for g in gb.elements] == ["x - y^2", "y^141 - 1"]
    assert log == [("widen", 8), ("spoly", 8), ("widen", 16)]
    assert checked == [("widen", 0), ("divide", 0), ("widen", 0)]


def test_widening_empties_the_first_divisor_memo(monkeypatch):
    # the pair of y*z - 1 and z^2 - y comes first and fills the memo at 8
    # bits; reducing the S-polynomial of x - y^2 and x^70*y - 1 then passes
    # them, and the re-packed set must not scan from the 8-bit positions
    checked = checked_loop(monkeypatch)
    L3 = PolyRing(R3.variables, "lex")
    gens = [L3.parse(t) for t in ("x - y^2", "x^70*y - 1", "y*z - 1", "z^2 - y")]
    gb = assert_basis_and_rows(gens)
    assert [str(g) for g in gb.elements] == ["x - z", "y - z^2", "z^3 - 1"]
    assert checked == [("widen", 0), ("divide", 0), ("divide", 2), ("widen", 2)]


_COEFFS = st.fractions(min_value=-6, max_value=6, max_denominator=4)
# small generator sets, and pairs x^a - y^p*z^r, x*y^q - c*z^s whose
# S-polynomial under lex, c*x^(a-1)*z^s - y^(p+q)*z^r, passes 8-bit fields
# when p + q >= 128 while each generator fits them
_GENERATOR_SETS = st.one_of(
    st.lists(st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), _COEFFS, max_size=3), min_size=1, max_size=3).map(
        lambda maps: [Polynomial(R3, m) for m in maps]
    ),
    st.builds(
        lambda a, p, r, q, s, c: [
            Polynomial(R3, {(a, 0, 0): 1, (0, p, r): -1}),
            Polynomial(R3, {(1, q, 0): 1, (0, 0, s): -c}),
        ],
        st.integers(1, 3), st.integers(64, 120), st.integers(0, 2), st.integers(20, 63), st.integers(0, 2),
        _COEFFS.filter(bool),
    ),
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.sampled_from(["grevlex", "lex", EliminationOrder((0,), 3)]), _GENERATOR_SETS)
def test_packed_loop_matches_sympy_on_generated_ideals(order, gens):
    if all(g.is_zero() for g in gens):
        return
    assert_basis_and_rows(in_order(gens, order))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.sampled_from(["grevlex", "lex", EliminationOrder((0,), 3)]), _GENERATOR_SETS)
def test_first_divisor_memo_keeps_the_reference_divisions(order, gens):
    # each S-pair division the loop makes with its memo is the reference
    # division by the same elements, and its memo entries are exact
    if all(g.is_zero() for g in gens):
        return
    with pytest.MonkeyPatch.context() as monkeypatch:
        checked_loop(monkeypatch)
        groebner_basis(in_order(gens, order))


@pytest.mark.parametrize("order", ["grevlex", "lex", EliminationOrder((0,), 3)], ids=str)
def test_packed_pair_update_reduces_the_reference_spolys(order, monkeypatch):
    # the same S-polynomials in the same order, so the same pairs pruned.
    # Scaled exponents take the leads past 8-bit fields, and the scaled
    # generator entering after three small ones widens a nonempty pair heap.
    # Cyclic-5 is pair-bound: its update tests the most candidates
    rng = random.Random(79)
    cases = [[random_poly(rng, 2, rng.randint(2, 3)) for _ in range(3)] for _ in range(12)]
    cases += [[random_poly(rng, 2, 3, scale=s) for _ in range(3)] for s in (20, 40) for _ in range(6)]
    cases.append([random_poly(rng, 2, 3) for _ in range(3)] + [random_poly(rng, 2, 3, scale=40)])
    cases += [katsura4(), cyclic5()] if order == "grevlex" else [lex_tower()] if order == "lex" else []
    cases = [in_order(gens, order) for gens in cases]
    wants = [reference_spolys(gens) for gens in cases]
    real_divide = groebner.divide
    for gens, want in zip(cases, wants):
        calls = []
        monkeypatch.setattr(
            groebner, "divide", lambda f, ds, packed=None: calls.append(read_dividend(f, ds)) or real_divide(f, ds, packed)
        )
        gb = groebner_basis(gens)
        assert calls[: len(want)] == want
        assert len(calls) == len(want) + len(gb.elements)
