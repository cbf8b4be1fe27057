"""Ideals of a polynomial ring.  The rest of the package needs cofactors
over the generators, the Krull dimension of the quotient and radical
membership.  Intersection, elimination, the quotient's vector-space
dimension and coprimality have no caller in the package; only the bench
tracer's wrappers and the tests use them.

An `Ideal` is identified by its ordered generator tuple.  Its one Groebner
basis, under the ring's order (under a lock), and its monomial normal forms
(where a race only computes an entry twice) are computed lazily and cached.
A basis is always of its ring's order; the block `EliminationOrder` is the
order of only the ring `eliminate` builds, and `intersect` eliminates too.
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterable, Sequence

from .groebner import DivisionResult, GroebnerBasis, groebner_basis
from .poly import EliminationOrder, Polynomial, PolyRing, RingMismatchError


class _Infinite:
    """Sentinel for an infinite vector-space dimension."""

    __slots__ = ()

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


def _fresh_name(ring: PolyRing, base: str) -> str:
    names = itertools.chain([base], (f"{base}{k}" for k in itertools.count()))
    return next(name for name in names if name not in ring.variables)


def _rehome(f: Polynomial, ring: PolyRing) -> Polynomial:
    """f as an element of `ring`, its variables matched by name: those f's
    ring lacks get exponent 0, and those `ring` lacks must not occur in f."""
    at = [f.ring.variables.index(v) if v in f.ring.variables else None for v in ring.variables]
    ints, c = f.integer_form()
    terms = {tuple(0 if i is None else m[i] for i in at): v for m, v in ints.items()}
    if sum(map(sum, terms)) != sum(map(sum, ints)):
        raise ValueError(f"polynomial involves a variable {ring!r} lacks")
    return Polynomial._new(ring, terms, c)


class Ideal:
    """An ideal of QQ[x1..xn] given by a finite ordered generator list."""

    def __init__(self, ring: PolyRing, generators: Iterable[Polynomial]):
        gens = tuple(generators)
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
        self.ring = ring
        self.generators = gens
        self._basis = None  # the reduced basis, once computed
        self._lock = threading.Lock()
        self._monomial_nf: dict = {}

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and self.generators == other.generators

    def __hash__(self):
        return hash((self.ring, self.generators))

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inside})"

    def __add__(self, other: "Ideal") -> "Ideal":
        if self.ring != other.ring:
            raise RingMismatchError("ideals live in different rings")
        return Ideal(self.ring, self.generators + other.generators)

    def __mul__(self, other: "Ideal") -> "Ideal":
        if self.ring != other.ring:
            raise RingMismatchError("ideals live in different rings")
        gens = tuple(f * g for f in self.generators for g in other.generators)
        return Ideal(self.ring, gens)

    # -- Groebner machinery

    def groebner(self) -> GroebnerBasis:
        """The reduced basis under the ring's order, computed once; its
        transform rows are built on first use."""
        with self._lock:
            if self._basis is None:
                self._basis = groebner_basis(self.generators, ring=self.ring)
            return self._basis

    def is_zero(self) -> bool:
        return self.groebner().is_zero_ideal()

    def contains(self, f: Polynomial) -> bool:
        return self.groebner().contains(f)

    def contains_one(self) -> bool:
        return self.groebner().contains_one()

    def normal_form(self, f: Polynomial) -> Polynomial:
        return self.groebner().normal_form(f)

    def monomial_normal_form(self, m: tuple) -> Polynomial:
        """NF(x^m) under the ring's order, from the handle's table.  A missing
        entry is NF(x_k * NF(m / x_k)), which differs from x^m by a member, for
        m's last variable x_k (fewer division steps than the first on the
        benchmark's curves); the walk to the nearest stored entry is a loop.
        `r_basis` and `verify`'s slice check read the table."""
        table, path = self._monomial_nf, []
        while m not in table and any(m):
            k = max(j for j, e in enumerate(m) if e)
            path.append((m, tuple(int(j == k) for j in range(len(m)))))
            m = m[:k] + (m[k] - 1,) + m[k + 1 :]
        nf = table[m] if m in table else table.setdefault(m, self.normal_form(self.ring.one()))
        for m, x_k in reversed(path):
            nf = table.setdefault(m, self.normal_form(nf.mul_term(x_k, 1)))
        return nf

    def cofactors(self, division: DivisionResult) -> tuple:
        """Cofactors c over the generators from a division by the ideal's one
        reduced basis, sum(c[i] * generators[i]) == sum(q[j] * basis[j]) for its
        quotients q, lifted through the basis's rows on packed monomials."""
        return self.groebner().lift_to_generators(division)

    def unit_certificate(self) -> tuple:
        """The row of the unit ideal's basis [1]: c with 1 == sum(c[i] * generators[i])."""
        if not self.contains_one():
            raise ValueError("ideal does not contain 1")
        return self.groebner().transform[0]

    # -- elimination and intersection

    def eliminate(self, keep: Sequence[int]) -> "Ideal":
        """Contraction to the subring on the kept variables, as an ideal of
        the ambient ring (its generators only involve kept variables).

        A basis is always of its ring's order, so the generators move into a
        copy of the ring under the block order (`EliminationOrder`, this ring's
        only), the discarded variables largest, where the basis elements free
        of them generate the contraction (Cox, Little and O'Shea, 3.1).
        """
        kept = set(keep)
        if not kept:
            raise ValueError("must keep at least one variable")
        for i in kept:
            if not 0 <= i < self.ring.nvars:
                raise ValueError(f"variable index {i} out of range")
        elim = tuple(i for i in range(self.ring.nvars) if i not in kept)
        if not elim:
            return self
        block = PolyRing(self.ring.variables, EliminationOrder(elim, self.ring.nvars))
        gb = groebner_basis([_rehome(g, block) for g in self.generators], block)
        return Ideal(self.ring, tuple(_rehome(g, self.ring) for g in gb.elements if g.support().isdisjoint(elim)))

    def intersect(self, other: "Ideal") -> "Ideal":
        """I cap J: `eliminate` a fresh variable t from t*I + (1-t)*J, one basis in all."""
        if self.ring != other.ring:
            raise RingMismatchError("ideals live in different rings")
        ring = self.ring
        ext = PolyRing((_fresh_name(ring, "t"),) + ring.variables, ring.order)
        t = ext.var(ext.variables[0])
        gens = [t * _rehome(f, ext) for f in self.generators]
        gens += [(ext.one() - t) * _rehome(g, ext) for g in other.generators]
        kept = Ideal(ext, gens).eliminate(range(1, ext.nvars))
        return Ideal(ring, tuple(_rehome(g, ring) for g in kept.generators))

    # -- numerical invariants of the quotient

    def krull_dim(self) -> int:
        """Krull dimension of ring/ideal (the zero ideal gives nvars)."""
        gb = self.groebner()
        if gb.contains_one():
            raise ValueError("quotient by the unit ideal is the zero ring")
        n = self.ring.nvars
        supports = [
            frozenset(i for i, e in enumerate(m) if e) for m in gb.leading_monomials()
        ]
        for size in range(n, -1, -1):
            for subset in itertools.combinations(range(n), size):
                chosen = set(subset)
                if all(not s <= chosen for s in supports):
                    return size
        raise AssertionError("unreachable: the empty set is always independent")

    def quotient_vdim(self):
        """dim_QQ of ring/ideal: a non-negative int, or INFINITE.

        Finite exactly when every variable has a pure power among the leading
        monomials (`pure_powers`); then the standard monomials are counted.
        """
        gb = self.groebner()
        if gb.contains_one():
            raise ValueError("quotient by the unit ideal is the zero ring")
        bound = gb.pure_powers()
        if None in bound:
            return INFINITE
        lms = gb.leading_monomials()
        return sum(
            not any(all(x >= y for x, y in zip(m, lm)) for lm in lms)
            for m in itertools.product(*(range(b) for b in bound))
        )

    # -- relations with other ideals and elements

    def is_coprime(self, other: "Ideal") -> bool:
        """True when the two ideals sum to the whole ring."""
        return (self + other).contains_one()

    def radical_member(self, f: Polynomial) -> bool:
        """True when some power of f lies in the ideal.

        Decided without computing the radical: f is in the radical exactly
        when the ideal extended by 1 - z*f, for a fresh variable z, is the
        unit ideal.
        """
        if f.ring != self.ring:
            raise RingMismatchError("element from a different ring")
        ring = self.ring
        ext = PolyRing(ring.variables + (_fresh_name(ring, "z"),), ring.order)
        z = ext.var(ext.variables[-1])
        gens = [_rehome(g, ext) for g in self.generators]
        gens.append(ext.one() - z * _rehome(f, ext))
        return groebner_basis(gens, ring=ext).contains_one()
