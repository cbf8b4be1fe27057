"""Groebner bases over the rationals, by Buchberger's algorithm.

Division and basis computation are exact.  A basis records its steps and
builds from them, on first use, the transformation matrix expressing each
element as a combination of the original generators (Cox, Little and
O'Shea, "Ideals, Varieties, and Algorithms", 2.6-2.7), which is what lets
callers hand out membership certificates over the generators they supplied.

Monomials are packed into one int each (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007): `width`-bit fields holding, from the top, the weighted sums of the
ring's order key (`PolyRing.key`, which `monomial_key` makes linear) and
then the exponents, x_1 highest.  So a product is one int addition, int
order is monomial order, and `lead | m` exactly when `m - lead` leaves
every field's top (guard) bit clear, since a field that goes negative
borrows into its guard bit.  No field exceeds the total degree, so `divide`
starts at the smallest width in 8, 16, 32, ... that f and every divisor
fit, and starts again at twice the width when a new working monomial sets a
guard bit (two fields that fit add without a carry): never under grevlex,
whose divisions never raise the total degree, but under `eliminate`'s block
order x^k divided by x - y^2 leaves y^(2k).  Buchberger's pair update tests
packed leads and lcms the same way, at a width that fits twice the largest
lead degree, repacking all of them when a lead outgrows it.  S-polynomials,
the divisor set (`_Divisors`) and new elements (decoded once) stay packed, as do
quotients, transform rows and cofactors in one entry form, (index, [tau,
map], num, den) for (num / den) * map / tau: one kernel (`_combine`) sums
their products for the transform's replay and for the lift, and one decoder
(`_decode_quotients`) reads them, so only a quotient's reader decodes it.
The set memoises, per packed monomial its divisions meet, the position of
the first element whose lead divides it, or n for none of the first n: it
only appends, so a later division resumes its scan there and picks the
divisor a full scan would.  Re-packing empties it.  A membership divides
one f by n bases of its ring (`divide_each`): f is packed once per width for
all n, and each `GroebnerBasis` packs its leads once per width, in its
lazy `_leads` field.

Set `VERIFY_DIVISION = True` (the test suite does) to re-check the division
identity f = sum(q_i * d_i) + r and the irreducibility of every remainder on
every division call, each new element's packed form, and each transform row.
"""

from __future__ import annotations

import functools
import heapq
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from math import gcd
from operator import mul, or_
from typing import Iterable, Iterator, Optional

from .poly import (
    Polynomial,
    PolyRing,
    RingMismatchError,
    _lift,
    mono_div,
    mono_divides,
    mono_lcm,
    sum_of_products,
)

# re-checked on every call to divide() when True; tests switch this on
VERIFY_DIVISION = False


class DivisionResult:
    """f = sum(quotients[i] * divisors[i]) + remainder, remainder irreducible.

    `divide` leaves the quotients packed in a callable that `quotients` calls
    on first read and memoises (a race only decodes twice).  `_packed` keeps
    the maps for the lift, read or not, pickled or copied too: (width, the
    entry (index, [tau, map], num, den), quotient (num / den) * map / tau, of
    each nonzero quotient).  Unpacking (`q, r = res`), `==`, `repr` and
    pickling read the quotients.
    """

    __slots__ = ("_quotients", "remainder", "_packed")

    def __init__(self, quotients, remainder: Polynomial, packed: tuple = None):
        self._quotients, self.remainder, self._packed = quotients, remainder, packed

    @property
    def quotients(self) -> tuple:
        q = self._quotients
        if callable(q):
            q = self._quotients = q()
        return q

    def __iter__(self):
        return iter((self.quotients, self.remainder))

    def __eq__(self, other) -> bool:
        return isinstance(other, DivisionResult) and tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return "DivisionResult(quotients=%r, remainder=%r)" % tuple(self)

    def __reduce__(self):
        return DivisionResult, (*self, self._packed)


def _layout(ring: PolyRing, width: int) -> tuple:
    """(units, guards, decode) in `ring`'s order, kept in `ring._layouts`: e packs
    to sum(e_i * units[i]), `guards` masks the fields' top bits, and
    `decode(terms, h)` maps {packed: int} to {exponents: int // h}, reading the
    exponent fields as bytes."""
    layout = ring._layouts.get(width)
    if layout is not None:
        return layout
    nvars = ring.nvars
    unit = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    fields = [e[::-1] + ring.key(e)[::-1] for e in unit]  # lowest field first
    units = tuple(sum(w << (width * k) for k, w in enumerate(col)) for col in fields)
    guards = sum(1 << (width * k + width - 1) for k in range(len(fields[0])))
    low, size, step = (1 << (width * nvars)) - 1, width * nvars // 8, width // 8
    if width <= 64:
        read = struct.Struct(f">{nvars}{'BHIQ'[step.bit_length() - 1]}").unpack
    else:

        def read(b: bytes) -> tuple:
            return tuple(int.from_bytes(b[k : k + step], "big") for k in range(0, size, step))

    def decode(terms: dict, h: int) -> dict:
        return {read((m & low).to_bytes(size, "big")): v // h for m, v in terms.items()}

    layout = ring._layouts[width] = (units, guards, decode)
    return layout


def _repack(terms: dict, ring: PolyRing, width: int, wide: int) -> dict:
    """A map over monomials packed at `width`, packed at `wide`."""
    return _pack_map(_layout(ring, width)[2](terms, 1), _layout(ring, wide)[0])


def _widen(entries: list, ring: PolyRing, width: int, wide: int) -> list:
    """Entries (index, [tau, map], num, den) packed at `width`, packed at `wide`."""
    if wide == width:
        return entries
    return [(k, [tau, _repack(q, ring, width, wide)], num, den) for k, (tau, q), num, den in entries]


def _pack_map(terms: dict, units: tuple) -> dict:
    """{exponents: v} as {packed monomial: v}, each exponent tuple packed by `units` (`_layout`)."""
    return {sum(map(mul, m, units)): v for m, v in terms.items()}


def _width(degree: int) -> int:
    # the smallest of 8, 16, 32, ... above degree.bit_length()
    return max(8, 1 << degree.bit_length().bit_length())


def _packed(d: Polynomial, width: int):
    """d's packed form in its ring's order, memoised on d, or None for d = 0:
    (width, lead, lead coefficient, the other (monomial, coefficient) pairs,
    content numerator, content denominator).  A wider memo is kept, so a
    divisor's width only grows."""
    memo = getattr(d, "_pack", None)
    if memo is not None and memo[0] >= width:
        return memo
    ints, content = d.integer_form()
    if not ints:
        return None
    degree = max(map(sum, ints))
    if degree >> (width - 1):
        width = _width(degree)
    terms = _pack_map(ints, _layout(d.ring, width)[0])
    lead = max(terms)
    lc, tail = terms.pop(lead), tuple(terms.items())
    memo = (width, lead, lc, tail, content.numerator, content.denominator)
    object.__setattr__(d, "_pack", memo)
    return memo


def divide(f, divisors, packed: dict = None) -> DivisionResult:
    """Multivariate division of f by an ordered list of divisors, or by a
    `GroebnerBasis`'s elements, under their ring's order.

    Ties go to the first divisor whose leading monomial divides the current
    working term, so the result is deterministic in the divisor order.  No
    remainder monomial is divisible by any divisor's leading monomial.

    Monomials are packed ints (see the module docstring): f is packed on
    entry, or read from `packed`, a map {width: packed f} shared by the
    divisions of one f (`divide_each`), and a copy reduced; each
    divisor's packed form is memoised on it, and a basis keeps its lead list
    (`GroebnerBasis._packed_leads`).  The remainder is unpacked on exit and
    the quotients on their first read.  Buchberger's loop passes its
    `_Divisors` set and S-polynomials packed, as they are.

    The arithmetic is over the integers, on the stored forms of f = c_f * F
    and of each divisor d = s * D (`Polynomial.integer_form`).  Division is
    linear in f, so F is divided and c_f multiplied in at the end.  The
    working polynomial is `work / sigma`, an {monomial: int} map over a
    positive int, from F / 1.  To remove the term c * x^m of `work` with the
    lead lc * x^l of D, let g = gcd(c, lc), a = lc / g (made positive with
    b) and b = c / g: `work <- a * work - b * x^(m-l) * D` and
    `sigma <- a * sigma` reduce the rational value exactly as the rational
    step would, and the quotient of d gains b / (sigma * s) at x^(m-l).
    Common factors of sigma and `work` are divided out after a step that
    grows sigma.  A rational coefficient is zero exactly when its integer
    one is, so every divisor choice, and so every quotient and remainder, is
    the one rational division gives.  Each quotient, and the remainder, is
    an integer map over its own denominator, raised to a multiple of sigma
    before a term is added (`_lift`), with one gcd pass at the end.

    The working terms sit in a min-heap of negated packed ints, and a
    monomial is pushed only when it enters the working set.  A popped
    monomial that has already left the set is skipped (lazy deletion); this
    is sound because every term a step adds is smaller than the term it
    pops, so a popped monomial never comes back.
    """
    if isinstance(divisors, _Divisors):
        ring, (width, terms, num, den), f_content = divisors.ring, f, None
        while (out := _reduce(dict(terms), divisors.leads, _layout(ring, width)[1], divisors.memo)) is None:
            divisors.widen(2 * width)  # and re-pack the S-polynomial, whose terms fit the old width
            terms, width = _repack(terms, ring, width, divisors.width), divisors.width
        layout, packs = _layout(ring, width), divisors.packs
    else:
        ring = f.ring
        if isinstance(divisors, GroebnerBasis):
            basis, divisors, rings = divisors, divisors.elements, (divisors.ring,)
        else:
            basis, divisors = None, list(divisors)
            rings = [d.ring for d in divisors]
        if any(r is not ring and r != ring for r in rings):  # a basis's ring, even with no element
            raise RingMismatchError("divisor from a different ring")
        ints, f_content = f.integer_form()
        width = _width(max(map(sum, ints), default=0))
        while True:
            width, packs, leads = basis._packed_leads(width) if basis else _pack_all(divisors, width)
            layout = _layout(ring, width)
            if packed is not None and width not in packed:
                packed[width] = _pack_map(ints, layout[0])
            work = _pack_map(ints, layout[0]) if packed is None else dict(packed[width])
            out = _reduce(work, leads, layout[1])
            if out is not None:
                break
            width *= 2  # a working monomial outgrew its fields
        num, den = f_content.numerator, f_content.denominator

    (quotients, remainder), decode = out, layout[2]
    # the nonzero quotients alone: a result kept unread holds no empty map
    found = [(k, q, num * packs[k][5], den * packs[k][4]) for k, q in enumerate(quotients) if q]
    if f_content is None:  # Buchberger's set memoises what the division met
        divisors.note(found, remainder)
    result = DivisionResult(
        functools.partial(_decode_quotients, ring, decode, len(packs), found),
        _finish(ring, remainder, decode, num, den, f_content) if remainder[1] else ring.zero(),
        (width, found),
    )
    if VERIFY_DIVISION:  # a packed S-polynomial is decoded for the check
        f = f if f_content is not None else _finish(ring, [1, terms], decode, num, den) if terms else ring.zero()
        _check_division(f, divisors, result)
    return result


def divide_each(f: Polynomial, bases: Iterable) -> Iterator[DivisionResult]:
    """f's division by each basis of its ring in turn, as `GroebnerBasis.divide`
    gives it, lazily: f is packed once per width for all of them."""
    packed: dict = {}
    return (divide(f, gb, packed=packed) for gb in bases)


def _pack_all(divisors, width: int) -> tuple:
    """(w, packs, leads): every divisor's packed form at w, the smallest width
    from `width` up that fits them and their memos, and the (index, lead, lc,
    tail) of each nonzero one, as `_reduce` reads them."""
    packs = [_packed(d, width) for d in divisors]
    widest = max([p[0] for p in packs if p is not None], default=width)
    if widest > width:  # pack every divisor at the widest memo's width
        return _pack_all(divisors, widest)
    return width, packs, [(k, p[1], p[2], p[3]) for k, p in enumerate(packs) if p is not None]


def _reduce(work: dict, leads: list, guards: int, memo: dict = None):
    """`divide`'s reduction of the packed map `work`, which it consumes, by each nonzero divisor's
    (index, lead, lc, tail): (quotient maps, None for a zero quotient; remainder map), or None if a
    working monomial overflows.  Each popped monomial scans the leads from the first, or from its
    `memo` position when Buchberger's set passes its memo (`_Divisors.note` fills it afterwards)."""
    quotients = [None] * (leads[-1][0] + 1 if leads else 0)  # to the last lead; [tau, map] from the first step
    remainder = [1, {}]
    sigma = 1
    heap = [-m for m in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    scan = leads
    while heap:
        m = -pop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        if memo is not None:
            scan = leads[k:] if (k := memo.get(m)) else leads
        for idx, lead, lc, tail in scan:
            qm = m - lead
            if qm & guards:
                continue  # lead does not divide m
            g = gcd(c, lc)
            a, b = lc // g, c // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                sigma *= a
                for t in work:
                    work[t] *= a
            for dm, dc in tail:
                t = qm + dm
                old = work.get(t)
                if old is None:
                    if t & guards:
                        return None
                    work[t] = -b * dc
                    push(heap, -t)
                else:
                    v = old - b * dc
                    if v:
                        work[t] = v
                    else:
                        del work[t]
            q = quotients[idx]
            if q is None:  # as _lift would raise [1, {}] to sigma
                quotients[idx] = [sigma, {qm: b}]
            else:
                q[1][qm] = b * _lift(q, sigma)
            if a != 1:
                g = gcd(sigma, *work.values())
                if g != 1:
                    sigma //= g
                    for t in work:
                        work[t] //= g
            break
        else:
            remainder[1][m] = c * _lift(remainder, sigma)
    return quotients, remainder


def _finish(ring, acc: list, decode, num: int, den: int, content: Fraction = None) -> Polynomial:
    """(num / den) * map / tau for a nonempty `acc` = [tau, map] over packed
    monomials; `content`, if given, is num / den, kept when the map's gcd is tau."""
    tau, terms = acc
    h = gcd(*terms.values())
    if num < 0:  # a transform row's num may be; den > 0, and the stored content is positive
        h = -h
    if content is None or h != tau:
        content = Fraction(h * num, tau * den)
    return Polynomial._new(ring, decode(terms, h), content)


def _decode_quotients(ring, decode, n: int, entries: list) -> tuple:
    """n polynomials, zero but at the `entries` (index, [tau, map], num, den):
    a division's quotients, a transform row or a lift's cofactors."""
    out = [ring.zero() if len(entries) < n else None] * n  # each index in entries at most once
    for k, acc, num, den in entries:
        out[k] = _finish(ring, acc, decode, num, den)
    return tuple(out)


def _combine(entries: list, rows: list, n: int) -> list:
    """The entries (t, [tau, map], 1, 1) of the nonzero sums sum(q * r), t < n, over the `entries`
    (k, q) and row k's entries (t, r), all packed at one width: one int addition and multiplication
    per product term.  A sum may set a guard bit: two fields that fit add without a carry."""
    accs = [[1, {}] for _ in range(n)]
    for k, (tau, terms), num, den in entries:
        for t, (r_tau, row), r_num, r_den in rows[k]:
            s, out = Fraction(num * r_num, den * tau * r_den * r_tau), accs[t][1]
            c, get = s.numerator * _lift(accs[t], s.denominator), out.get
            short, long = (terms, row) if len(terms) <= len(row) else (row, terms)
            long = long.items()  # the longer map in the inner loop
            for m1, v1 in short.items():
                v1 *= c
                for m2, v2 in long:
                    m = m1 + m2
                    out[m] = get(m, 0) + v1 * v2
    accs = [(t, [tau, {m: v for m, v in out.items() if v}], 1, 1) for t, (tau, out) in enumerate(accs)]
    return [entry for entry in accs if entry[1][1]]


def _check_division(f, divisors, result):
    products = [(1, q, d) for q, d in zip(result.quotients, divisors)]
    if sum_of_products(f.ring, products + [(1, result.remainder, f.ring.one())]) != f:
        raise RuntimeError("division identity violated")
    leads = [d.leading_monomial() for d in divisors if not d.is_zero()]
    for m in result.remainder.terms:
        if any(mono_divides(lm, m) for lm in leads):
            raise RuntimeError("reducible remainder")


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis under its ring's order, largest lead first.

    `transform` satisfies
    elements[j] == sum(transform[j][i] * generators[i] for all i).  Lazy
    fields hold what is built once (a race only builds it twice): `_leads`,
    the elements' packed leads per width; `_rows`, the transform packed per
    width, replayed from the record `steps` on the first lift or `transform`
    read, which drops the record; and `_transform`, the rows decoded once.
    """

    ring: PolyRing
    elements: tuple
    generators: tuple
    steps: tuple = field(repr=False, compare=False)

    @property
    def transform(self) -> tuple:
        memo = getattr(self, "_transform", None)
        if memo is None:
            ring, gens = self.ring, self.generators
            width, rows = self._packed_rows(0)
            decode = _layout(ring, width)[2]
            memo = tuple(_decode_quotients(ring, decode, len(gens), row) for row in rows)
            if VERIFY_DIVISION:
                for g, row in zip(self.elements, memo):
                    if sum_of_products(ring, [(1, t, gen) for t, gen in zip(row, gens)]) != g:
                        raise RuntimeError("transformation identity violated")
            object.__setattr__(self, "_transform", memo)
        return memo

    def is_zero_ideal(self) -> bool:
        return not self.elements

    def leading_monomials(self) -> tuple:
        return tuple(g.leading_monomial() for g in self.elements)

    def pure_powers(self) -> list:
        """Per variable x_j, the e with x_j^e a leading monomial (a reduced
        basis has at most one; a lead 1 gives 0 for every j), or None.  None
        means the ideal meets QQ[x_j] only in 0, since some lead divides the
        lead x_j^k of any nonzero member in x_j alone.  The converse fails:
        (x^2 + y) has the lead x^2 and meets QQ[x] only in 0."""
        leads = self.leading_monomials()
        return [next((m[j] for m in leads if m[j] == sum(m)), None) for j in range(self.ring.nvars)]

    def divide(self, f: Polynomial) -> DivisionResult:
        return divide(f, self)

    def _packed_leads(self, width: int) -> tuple:
        """`_pack_all` of the elements from `width` up, memoised per width in
        `_leads` (a race only packs twice): built once, not per division."""
        memo = getattr(self, "_leads", None)
        if memo is None:
            object.__setattr__(self, "_leads", memo := {})
        if width not in memo:
            memo[width] = _pack_all(self.elements, width)
        return memo[width]

    def normal_form(self, f: Polynomial) -> Polynomial:
        return self.divide(f).remainder

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def contains_one(self) -> bool:
        # the reduced basis of the unit ideal is exactly [1]
        return len(self.elements) == 1 and self.elements[0].is_constant() and not self.elements[0].is_zero()

    def lift_to_generators(self, division: DivisionResult) -> tuple:
        """Cofactors c over the generators from a division of f by the elements,
        f = sum(q[k] * elements[k]) + r = sum(c[t] * generators[t]) + r, with
        c[t] = sum(q[k] * T[k][t]) over the packed transform T, summed by
        `_combine` from the division's packed quotients, never decoded, each
        re-packed at the rows' width if that is wider (`_packed_rows`)."""
        ring, n = self.ring, len(self.generators)
        width, found = division._packed
        wide, rows = self._packed_rows(width)
        found = _widen(found, ring, width, wide)
        cofactors = _decode_quotients(ring, _layout(ring, wide)[2], n, _combine(found, rows, n))
        if VERIFY_DIVISION:
            lifted = sum_of_products(ring, [(1, c, g) for c, g in zip(cofactors, self.generators)])
            if lifted != sum_of_products(ring, [(1, q, g) for q, g in zip(division.quotients, self.elements)]):
                raise RuntimeError("lift identity violated")
        return cofactors

    def _packed_rows(self, width: int) -> tuple:
        """(w, rows), rows[k] the entries (t, [tau, map], num, den) of row k
        packed at w, the larger of `width` and the replay's own width, from
        the `_rows` memo (replay width, {w: rows}), per w (a race only packs twice)."""
        memo = getattr(self, "_rows", None)
        if memo is None:
            object.__setattr__(self, "_rows", memo := _replay(self))
            object.__setattr__(self, "steps", None)  # the record is spent
        base, rows = memo
        if width > base and width not in rows:
            rows[width] = [_widen(row, self.ring, base, width) for row in rows[base]]
        return max(width, base), rows[max(width, base)]


def groebner_basis(generators: Iterable[Polynomial], ring: Optional[PolyRing] = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal the generators span, under the ring's
    `key`: grevlex, or a block `EliminationOrder` in `Ideal.eliminate`'s ring.

    Pairs are reduced in increasing (degree, lcm, i, j) order.  Adding an
    element runs the Gebauer-Moeller update (Gebauer and Moeller, "On an
    installation of Buchberger's algorithm", 1988): a new pair goes if its
    leads are coprime or another new pair's lcm divides its lcm (criterion
    M; of equal lcms the smallest partner stays, F), and a pending pair
    goes if the new lead divides its lcm and both lcms with the new element
    differ from it (B_k).  New pairs use only elements whose lead no later
    lead divides; each S-polynomial is reduced by every element so far, the
    first whose lead divides a term taking it, in the packed set `_Divisors`
    (see the module docstring).  The final basis is monic and interreduced.

    The loop stops at the first S-pair remainder that is a nonzero constant:
    the ideal is then the unit ideal.  Running on would change nothing, since
    every later S-polynomial reduces to 0 by that constant and
    `_reduce_basis` keeps only it (it is the one element of degree 0).  So
    the stop returns the same basis [1] and the same transform row: the
    constant's own.  For `_replay`, the loop records of each nonzero
    reduction only its packed quotients (`DivisionResult._packed`).
    """
    gens = list(generators)
    if ring is None:
        if not gens:
            raise ValueError("need a ring to build the basis of the zero ideal")
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators from different rings")

    # generators enter as they are (scaling an element scales its quotients
    # and its row inversely), so a generator's packed divisor form carries
    # over between the bases it belongs to; remainders are made primitive
    sources = tuple(i for i, g in enumerate(gens) if not g.is_zero())
    polys = [gens[i] for i in sources]
    spairs: list = []  # (i, j, mi, mj, lc_i, lc_j, c, packed quotients) per later element

    # per element: its lead, the lead packed at `width` (see the module
    # docstring) and the bitmask of the variables in the lead
    leads: list = []
    heap: list = []  # (degree, packed lcm, i, j, lcm) of each pair still to reduce
    active: list = []  # elements whose lead no later lead divides
    width = 8
    units, guards = _layout(ring, width)[:2]

    def update(lm: tuple) -> None:
        nonlocal width, units, guards
        if 2 * sum(lm) >> (width - 1):
            width = _width(2 * sum(lm))
            units, guards = _layout(ring, width)[:2]
            leads[:] = [(m, sum(map(mul, m, units)), b) for m, _, b in leads]
            heap[:] = [(d, sum(map(mul, m, units)), i, j, m) for d, _, i, j, m in heap]
        h, lead = len(leads), sum(map(mul, lm, units))
        bits = sum(1 << v for v, e in enumerate(lm) if e)
        tuples = [mono_lcm(leads[g][0], lm) for g in active]
        lcms = [sum(map(mul, m, units)) for m in tuples]  # packed once per pair
        kept, pairs = [], []
        # selecting from the back, a pair meets the unselected ones before it
        # and the kept ones; o | lcm exactly when lcm - o leaves every guard bit clear
        for pos in range(len(lcms) - 1, -1, -1):
            g, lcm = active[pos], lcms[pos]
            if leads[g][2] & bits:
                for o in chain(islice(lcms, pos), kept):
                    if not (lcm - o) & guards:
                        break
                else:
                    kept.append(lcm)
                    pairs.append((sum(tuples[pos]), lcm, g, h, tuples[pos]))
            else:  # coprime leads: no pair, but the lcm still prunes
                kept.append(lcm)
        heap[:] = [
            p
            for p in heap
            if (p[1] - lead) & guards
            or p[4] in (mono_lcm(leads[p[2]][0], lm), mono_lcm(leads[p[3]][0], lm))
        ]
        heap.extend(pairs)
        heapq.heapify(heap)
        active[:] = [g for g in active if (leads[g][1] - lead) & guards] + [h]
        leads.append((lm, lead, bits))

    for p in polys:
        update(p.leading_monomial())
    polys = _Divisors(ring, polys) if heap else polys  # packed only if a pair is to be reduced

    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        mi, mj = mono_div(lcm, leads[i][0]), mono_div(lcm, leads[j][0])
        res = divide(polys.spoly(i, j, mi, mj), polys)
        r = res.remainder
        if r.is_zero():
            continue
        prim, c = polys.adopt(r)
        lc_i, lc_j = polys[i].leading_coefficient(), polys[j].leading_coefficient()
        spairs.append((i, j, mi, mj, lc_i, lc_j, c, res._packed))
        if prim.is_constant():
            break
        update(prim.leading_monomial())

    basis, reduction = _reduce_basis(polys)
    return GroebnerBasis(ring, tuple(basis), tuple(gens), (sources, spairs, reduction))


class _Divisors(list):
    """Buchberger's elements, packed at one `width` (`packs`, `leads`), which
    `divide` takes as they are, leaving a nonzero remainder's map in `rest`,
    and the first-divisor `memo` (see the module docstring) that `widen` empties."""

    def __init__(self, ring: PolyRing, polys: list):
        super().__init__(polys)
        self.ring, self.rest = ring, None
        self.widen(8)

    def widen(self, width: int) -> None:
        # a memo (a generator's) or a degree may be wider: `_pack_all` packs all there
        self.width, self.packs, self.leads = _pack_all(self, width)
        self.memo = {}

    def note(self, found: list, remainder: list) -> None:
        """Memoise what a division by the n elements met: element k first divided x^(q + lead k) for
        each x^q of quotient k, and none divides a remainder monomial.  Keep the remainder in `rest`."""
        memo, leads, self.rest = self.memo, self.leads, (self.width, remainder[1])
        for k, (_, terms), _, _ in found:
            lead = leads[k][1]
            for qm in terms:
                memo[qm + lead] = k
        memo.update(dict.fromkeys(remainder[1], len(self)))

    def spoly(self, i: int, j: int, mi: tuple, mj: tuple) -> tuple:
        """(b/g) * x^mi * P - (a/g) * x^mj * Q over a*b/g, packed P, Q with leads a, b cancelled,
        g = gcd(a, b): (width, primitive map, positive content's numerator, denominator)."""
        units, guards = _layout(self.ring, self.width)[:2]
        (*_, a, P, _, _), (*_, b, Q, _, _) = self.packs[i], self.packs[j]
        sa, sb, si, sj = b // (g := gcd(a, b)), a // g, sum(map(mul, mi, units)), sum(map(mul, mj, units))
        out = {si + m: sa * v for m, v in P}
        for m, v in Q:
            out[sj + m] = out.get(sj + m, 0) - sb * v
        out = {m: v for m, v in out.items() if v}  # terms of P and Q may cancel
        if functools.reduce(or_, out, 0) & guards:  # x^mi fits (it divides p_j's lead), not so x^mi * P
            self.widen(2 * self.width)
            return self.spoly(i, j, mi, mj)
        h, den = gcd(*out.values()) or 1, a * sa
        h = -h if den < 0 else h  # the content h / |den| is positive
        return self.width, {m: v // h for m, v in out.items()}, abs(h), abs(den)

    def adopt(self, r: Polynomial) -> tuple:
        """Append r's primitive part p with `rest`, made primitive, as its packed form: (p, c), r = c * p.
        A constant p ends the loop, and is not packed."""
        (width, terms), self.rest = self.rest, None
        lead, h = max(terms), gcd(*terms.values())
        lm = next(iter(_layout(self.ring, width)[2]({lead: 1}, 1)))
        ints, cr = r.integer_form()  # r's lead, which `primitive_part` reads, is the packed one
        object.__setattr__(r, "_lead", (lm, Fraction(ints[lm] * cr.numerator, cr.denominator)))
        prim, c = r.primitive_part()  # signs by that lead
        self.append(prim)
        if not lead:  # the packed monomial 1
            return prim, c
        lc = terms.pop(lead) // (h := h if c > 0 else -h)
        object.__setattr__(prim, "_lead", (lm, Fraction(lc)))
        memo = (width, lead, lc, tuple([(m, v // h) for m, v in terms.items()]), 1, 1)
        object.__setattr__(prim, "_pack", memo)
        if VERIFY_DIVISION:
            _check_packed(prim, memo)
        self.leads.append((len(self) - 1, lead, lc, memo[3]))
        self.packs.append(memo)
        return prim, c


def _check_packed(p: Polynomial, memo: tuple) -> None:
    # the form (and lead) p's stored pair gives at the memo's width, which each field fits (a
    # remainder's may fit one below its total degree's): primitive over a positive content
    (width, lead, lc, tail, num, den), key = memo, p.ring.key
    ints, content = p.integer_form()
    terms = _pack_map(ints, _layout(p.ring, width)[0])
    if terms != {lead: lc, **dict(tail)} or max(terms) != lead or gcd(*terms.values()) != 1:
        raise RuntimeError("packed form differs from its element, or is not primitive")
    overflows = any(v >> (width - 1) for m in ints for v in key(m) + m)
    if overflows or Fraction(num, den) != content or max(ints, key=key) != p.leading_monomial():
        raise RuntimeError("packed form overflows its width, or has another content or lead")


def _reduce_basis(polys):
    """Minimal, interreduced, monic basis sorted largest lead first, and the
    record `_replay` reads: the indices of the kept elements, each one's
    tail division's packed quotients and leading coefficient, smallest
    (distinct) lead first."""
    leads = [p.leading_monomial() for p in polys]
    order_idx = sorted(range(len(polys)), key=lambda i: polys[i].ring.key(leads[i]))
    kept_idx: list = []
    for i in order_idx:
        if not any(mono_divides(leads[k], leads[i]) for k in kept_idx):
            kept_idx.append(i)
    kept = [polys[i] for i in kept_idx]

    # tail-reduce each element against the others (leads are incomparable,
    # so each element's lead survives and one sweep lands on the reduced form)
    tails: list = []
    for idx in range(len(kept)):
        res = divide(kept[idx], kept[:idx] + kept[idx + 1 :])
        kept[idx] = res.remainder
        tails.append(res._packed)

    lcs = [p.leading_coefficient() for p in kept]
    kept = [p.scale(1 / lc) for p, lc in zip(kept, lcs)]
    return kept[::-1], (kept_idx, tails, lcs)


def _replay(gb: GroebnerBasis) -> tuple:
    """`gb._rows`, (w, {w: rows}), from the record `gb.steps`: each element's
    row over the generators, by the steps that built the element, each one
    `_combine` of its recorded packed quotients and the rows so far.  It
    packs at the widest recorded width, and at twice the width when a row
    sets a guard bit, as `divide` does."""
    steps = gb.steps
    if steps is None:  # a racing reader built the memo, then dropped the record
        return gb._rows
    sources, spairs, (kept_idx, tails, lcs) = steps
    ring, n = gb.ring, len(gb.generators)
    recorded = [step[-1] for step in spairs] + tails
    width = max((w for w, _ in recorded), default=8)
    while True:
        units, guards = _layout(ring, width)[:2]
        found = [_widen(q, ring, w, width) for w, q in recorded]
        made = [[(i, [1, {0: 1}], 1, 1)] for i in sources]
        for (i, j, mi, mj, lc_i, lc_j, c, _), q in zip(spairs, found):
            # the S-polynomial's row less the quotients' rows, over c
            entries = [(k, acc, -num * c.denominator, den * c.numerator) for k, acc, num, den in q]
            entries.append((i, [1, _pack_map({mi: 1}, units)], *(1 / (lc_i * c)).as_integer_ratio()))
            entries.append((j, [1, _pack_map({mj: 1}, units)], *(-1 / (lc_j * c)).as_integer_ratio()))
            made.append(_primitive(_combine(entries, made, n)))
        rows = [made[i] for i in kept_idx]
        for idx, q in enumerate(found[len(spairs) :]):
            if q:  # the element's row less the other elements' rows by its tail quotients
                entries = [(k + (k >= idx), acc, -num, den) for k, acc, num, den in q]
                rows[idx] = _primitive(_combine(entries + [(idx, [1, {0: 1}], 1, 1)], rows, n))
        # the first row past the width is kept, in `made` or `rows`, with a guard bit set
        if not functools.reduce(or_, (m for row in made + rows for _, (_, q), _, _ in row for m in q), 0) & guards:
            break
        width *= 2
    for idx, lc in enumerate(lcs):  # each element is its kept polynomial over lc, and so is its row
        rows[idx] = [(t, q, *(Fraction(num, den) / lc).as_integer_ratio()) for t, q, num, den in rows[idx]]
    return width, {width: rows[::-1]}


def _primitive(entries: list) -> list:
    """`_combine`'s entries, each map's gcd divided out into its content so
    that numbers do not grow."""
    out = []
    for t, (tau, terms), _, _ in entries:
        h = gcd(*terms.values())
        out.append((t, [1, {m: v // h for m, v in terms.items()}], *Fraction(h, tau).as_integer_ratio()))
    return out
