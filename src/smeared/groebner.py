"""Groebner bases over the rationals, by Buchberger's algorithm.

Division and basis computation are exact.  A basis can optionally carry a
transformation matrix expressing each basis element as a combination of the
original generators, which is what lets callers hand out membership
certificates over the generators they actually supplied instead of over the
computed basis.

Set `VERIFY_DIVISION = True` (the test suite does) to re-check the division
identity f = sum(q_i * d_i) + r and the irreducibility of every remainder on
every division call.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add
from typing import Iterable, Optional, Sequence

from .poly import (
    Polynomial,
    PolyRing,
    RingMismatchError,
    mono_coprime,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    monomial_key,
)

# re-checked on every call to divide() when True; tests switch this on
VERIFY_DIVISION = False


@dataclass(frozen=True)
class DivisionResult:
    """f = sum(quotients[i] * divisors[i]) + remainder, remainder irreducible."""

    quotients: tuple
    remainder: Polynomial


def divide(f: Polynomial, divisors: Sequence[Polynomial], key=None) -> DivisionResult:
    """Multivariate division of f by an ordered list of divisors.

    Ties go to the first divisor whose leading monomial divides the current
    working term, so the result is deterministic in the divisor order.  No
    remainder monomial is divisible by any divisor's leading monomial.

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
    before a term is added (`_put`), with one gcd pass at the end.

    `key` must come from `monomial_key` (the default is the ring's order):
    the working terms sit in a min-heap on its `key.descending` companion,
    and a monomial is pushed only when it enters the working set.  A popped
    monomial that has already left the set is skipped (lazy deletion); this
    is sound because every term a step adds is smaller than the term it
    pops, so a popped monomial never comes back.
    """
    ring = f.ring
    if key is None:
        key = monomial_key(ring.order)
    descending = key.descending
    divisors = list(divisors)
    leads = []  # per divisor: None, or (lead, integer lead coefficient, integer terms, content)
    for d in divisors:
        if d.ring != ring:
            raise RingMismatchError("divisor from a different ring")
        if d.is_zero():
            leads.append(None)
            continue
        lm = d.leading_monomial(key)
        ints, content = d.integer_form()
        leads.append((lm, ints[lm], ints.items(), content))

    # quotient and remainder maps, each with its denominator in slot 0
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
    result = DivisionResult(
        tuple(
            _finish(ring, q, f_content, lead[3]) if q[1] else zero
            for q, lead in zip(quotients, leads)
        ),
        _finish(ring, remainder, f_content) if remainder[1] else zero,
    )
    if VERIFY_DIVISION:
        _check_division(f, divisors, leads, result)
    return result


def _put(acc: list, m, v: int, sigma: int) -> None:
    """Add (v / sigma) * x^m, m new, to `acc` = [tau, {monomial: int}]."""
    tau, terms = acc
    if tau % sigma:
        t = sigma // gcd(tau, sigma)
        for k in terms:
            terms[k] *= t
        tau *= t
        acc[0] = tau
    terms[m] = v * (tau // sigma)


def _finish(ring, acc: list, num: Fraction, den: Fraction = Fraction(1)) -> Polynomial:
    """(num / den) * map / tau for a nonempty `acc` = [tau, map]."""
    tau, terms = acc
    h = gcd(*terms.values())
    if h != 1:
        terms = {m: v // h for m, v in terms.items()}
    content = Fraction(h * num.numerator * den.denominator, tau * num.denominator * den.numerator)
    return Polynomial._new(ring, terms, content)


def _check_division(f, divisors, leads, result):
    total = result.remainder
    for q, d in zip(result.quotients, divisors):
        total = total + q * d
    if total != f:
        raise RuntimeError("division identity violated")
    for m in result.remainder.terms:
        for lt in leads:
            if lt is not None and mono_divides(lt[0], m):
                raise RuntimeError("reducible remainder")


def normal_form(f: Polynomial, divisors: Sequence[Polynomial], key=None) -> Polynomial:
    return divide(f, divisors, key).remainder


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis under `order`, elements sorted largest lead first.

    `transform`, present when the basis was computed with tracking, satisfies
    elements[j] == sum(transform[j][i] * generators[i] for all i).
    """

    ring: PolyRing
    order: object
    elements: tuple
    generators: tuple
    transform: Optional[tuple] = None

    def key(self):
        return monomial_key(self.order)

    def is_zero_ideal(self) -> bool:
        return not self.elements

    def leading_monomials(self) -> tuple:
        key = self.key()
        return tuple(g.leading_monomial(key) for g in self.elements)

    def divide(self, f: Polynomial) -> DivisionResult:
        return divide(f, self.elements, self.key())

    def normal_form(self, f: Polynomial) -> Polynomial:
        return self.divide(f).remainder

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def contains_one(self) -> bool:
        # the reduced basis of the unit ideal is exactly [1]
        return len(self.elements) == 1 and self.elements[0].is_constant() and not self.elements[0].is_zero()

    def lift_to_generators(self, quotients: Sequence[Polynomial]) -> tuple:
        """Turn cofactors over basis elements into cofactors over generators.

        Given q with f = sum(q[j] * elements[j]) + r, returns c with
        f = sum(c[i] * generators[i]) + r.
        """
        if self.transform is None:
            raise ValueError("basis was computed without tracking")
        out = [self.ring.zero() for _ in self.generators]
        for j, q in enumerate(quotients):
            if q.is_zero():
                continue
            for i, t in enumerate(self.transform[j]):
                if not t.is_zero():
                    out[i] = out[i] + q * t
        return tuple(out)

    def membership_certificate(self, f: Polynomial):
        """(cofactors over generators, remainder); f is a member iff r == 0."""
        res = self.divide(f)
        return self.lift_to_generators(res.quotients), res.remainder


def groebner_basis(
    generators: Iterable[Polynomial],
    order=None,
    ring: Optional[PolyRing] = None,
    track: bool = False,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal the generators span.

    Pairs are processed in increasing lcm order; the coprime-lead and chain
    criteria prune useless reductions.  Intermediate elements are kept
    primitive with integer coefficients, the final basis is monic and
    interreduced.

    The loop stops at the first S-pair remainder that is a nonzero constant:
    the ideal is then the unit ideal.  Running on would change nothing, since
    every later S-polynomial reduces to 0 by that constant and
    `_reduce_basis` keeps only it (it is the one element of degree 0).  So
    the stop returns the same basis [1] and, when tracking, the same
    transform row: the constant's own.
    """
    gens = list(generators)
    if ring is None:
        if not gens:
            raise ValueError("need a ring to build the basis of the zero ideal")
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators from different rings")
    if order is None:
        order = ring.order
    key = monomial_key(order)
    ngens = len(gens)

    def unit_vector(i: int, scale: Fraction) -> list:
        row = [ring.zero()] * ngens
        row[i] = ring.const(scale)
        return row

    polys: list = []
    coeffs: list = []  # cofactor rows over the original generators
    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        prim, c = g.primitive_part()
        polys.append(prim)
        if track:
            coeffs.append(unit_vector(i, 1 / c))

    heap: list = []
    pending: set = set()

    def push_pairs(new: int):
        lm_new = polys[new].leading_monomial(key)
        for old in range(new):
            lcm = mono_lcm(polys[old].leading_monomial(key), lm_new)
            heapq.heappush(heap, (mono_degree(lcm), key(lcm), old, new))
            pending.add((old, new))

    for n in range(len(polys)):
        push_pairs(n)

    def chain_skip(i: int, j: int, lcm) -> bool:
        for k in range(len(polys)):
            if k == i or k == j:
                continue
            if not mono_divides(polys[k].leading_monomial(key), lcm):
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik not in pending and pjk not in pending:
                return True
        return False

    while heap:
        _, _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        lm_i, lc_i = polys[i].leading_term(key)
        lm_j, lc_j = polys[j].leading_term(key)
        if mono_coprime(lm_i, lm_j):
            continue
        lcm = mono_lcm(lm_i, lm_j)
        if chain_skip(i, j, lcm):
            continue

        mi, mj = mono_div(lcm, lm_i), mono_div(lcm, lm_j)
        s = polys[i].mul_term(mi, 1 / lc_i) - polys[j].mul_term(mj, 1 / lc_j)
        res = divide(s, polys, key)
        r = res.remainder
        if r.is_zero():
            continue
        prim, c = r.primitive_part()
        if track:
            row = [
                coeffs[i][t].mul_term(mi, 1 / lc_i) - coeffs[j][t].mul_term(mj, 1 / lc_j)
                for t in range(ngens)
            ]
            for k, q in enumerate(res.quotients):
                if q.is_zero():
                    continue
                for t in range(ngens):
                    if not coeffs[k][t].is_zero():
                        row[t] = row[t] - q * coeffs[k][t]
            coeffs.append([p.scale(1 / c) for p in row])
        polys.append(prim)
        if prim.is_constant():
            break
        push_pairs(len(polys) - 1)

    basis, rows = _reduce_basis(polys, coeffs if track else None, ring, key)

    transform = None
    if track:
        transform = tuple(tuple(row) for row in rows)
        if VERIFY_DIVISION:
            for g, row in zip(basis, transform):
                acc = ring.zero()
                for t, gen in zip(row, gens):
                    acc = acc + t * gen
                if acc != g:
                    raise RuntimeError("transformation identity violated")

    return GroebnerBasis(ring, order, tuple(basis), tuple(gens), transform)


def _reduce_basis(polys, coeffs, ring, key):
    """Minimal, interreduced, monic basis sorted largest lead first."""
    order_idx = sorted(range(len(polys)), key=lambda i: key(polys[i].leading_monomial(key)))
    kept: list = []
    kept_rows: list = []
    for i in order_idx:
        lm = polys[i].leading_monomial(key)
        if any(mono_divides(g.leading_monomial(key), lm) for g in kept):
            continue
        kept.append(polys[i])
        if coeffs is not None:
            kept_rows.append(list(coeffs[i]))

    # tail-reduce each element against the others (leads are incomparable,
    # so each element's lead survives and one sweep lands on the reduced form)
    for idx in range(len(kept)):
        others = kept[:idx] + kept[idx + 1 :]
        res = divide(kept[idx], others, key)
        kept[idx] = res.remainder
        if coeffs is not None:
            row = kept_rows[idx]
            other_rows = kept_rows[:idx] + kept_rows[idx + 1 :]
            for q, orow in zip(res.quotients, other_rows):
                if q.is_zero():
                    continue
                for t in range(len(row)):
                    if not orow[t].is_zero():
                        row[t] = row[t] - q * orow[t]

    for idx in range(len(kept)):
        lc = kept[idx].leading_coefficient(key)
        kept[idx] = kept[idx].scale(1 / lc)
        if coeffs is not None:
            kept_rows[idx] = [p.scale(1 / lc) for p in kept_rows[idx]]

    final = sorted(range(len(kept)), key=lambda i: key(kept[i].leading_monomial(key)), reverse=True)
    basis = [kept[i] for i in final]
    rows = [kept_rows[i] for i in final] if coeffs is not None else None
    return basis, rows
