"""Exact multivariate polynomials over the rationals.

Monomials are dense exponent tuples (one entry per ring variable) and
coefficients are `fractions.Fraction`, so every operation is exact.  Values
are immutable after construction and safe to share across threads: the hash,
the leading-term memo and the integer form (`integer_form`, what division
reduces with) are the only fields filled lazily.  Filling any of them is
idempotent, so a race between threads at worst recomputes one.

Text grammar accepted by `parse_poly` (whitespace insignificant, implicit
multiplication rejected)::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := rational | var | '(' expr ')'

Rational literals look like ``3`` or ``5/2``; a denominator must be nonzero.
The optional sign on the first term is a strict superset of the grammar
needed so canonical serialization round-trips.  The parser builds the term
map directly: a term made of numbers and variable powers never builds a
`Polynomial`, so flat input parses in time linear in its number of terms,
and only parenthesized factors use polynomial multiplication and powers.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

Rational = Fraction
Monomial = tuple  # dense exponent vector, one entry per ring variable
Scalar = Union[int, Fraction]

GREVLEX = "grevlex"
LEX = "lex"


class RingMismatchError(ValueError):
    """Operands belong to different polynomial rings."""


class ParseError(ValueError):
    """Syntax error in polynomial text; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# monomials


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True if a | b componentwise."""
    return all(map(operator.le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b; caller guarantees divisibility."""
    return tuple(map(operator.sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def mono_degree(m: Monomial) -> int:
    return sum(m)


def _grevlex_key(m: Monomial):
    # ascending key: higher total degree wins, ties broken so that the last
    # differing exponent being smaller means the monomial is larger
    return (sum(m), tuple(-e for e in reversed(m)))


def _grevlex_descending(m: Monomial):
    return (-sum(m),) + m[::-1]


def _lex_key(m: Monomial):
    return m


def _lex_descending(m: Monomial):
    return tuple(-e for e in m)


_grevlex_key.descending = _grevlex_descending
_lex_key.descending = _lex_descending


@dataclass(frozen=True)
class EliminationOrder:
    """Block order: the `eliminated` variables dominate, grevlex inside blocks.

    Any monomial involving an eliminated variable compares above every
    monomial in the remaining variables, which is what makes a Groebner basis
    under this order yield elimination ideals by restriction.
    """

    eliminated: tuple
    nvars: int


@functools.lru_cache(maxsize=256)
def monomial_key(order):
    """Sort key realizing `order` (ascending); one cached function per order.

    Each key carries a companion `key.descending`: a flat int tuple whose
    ascending order is the descending monomial order, which is what a
    min-heap needs to pop the largest monomial first.
    """
    if order == GREVLEX:
        return _grevlex_key
    if order == LEX:
        return _lex_key
    if isinstance(order, EliminationOrder):
        elim = order.eliminated
        rest = tuple(i for i in range(order.nvars) if i not in elim)

        def key(m: Monomial):
            return (
                _grevlex_key(tuple(m[i] for i in elim)),
                _grevlex_key(tuple(m[i] for i in rest)),
            )

        def descending(m: Monomial):
            a = tuple(m[i] for i in elim)
            b = tuple(m[i] for i in rest)
            return (-sum(a),) + a[::-1] + (-sum(b),) + b[::-1]

        key.descending = descending
        return key
    raise ValueError(f"unknown monomial order: {order!r}")


def compare_monomials(m1: Monomial, m2: Monomial, order=GREVLEX) -> int:
    """Three-way comparison of exponent tuples under `order` (-1, 0 or 1)."""
    if len(m1) != len(m2):
        raise ValueError("monomials have different lengths")
    key = monomial_key(order)
    k1, k2 = key(m1), key(m2)
    return (k1 > k2) - (k1 < k2)


def monomials_up_to_degree(nvars: int, d: int) -> list:
    """All exponent tuples of total degree <= d, in no particular order."""
    out = []
    for total in range(d + 1):
        for bars in itertools.combinations(range(total + nvars - 1), nvars - 1):
            prev = -1
            expo = []
            for b in bars:
                expo.append(b - prev - 1)
                prev = b
            expo.append(total + nvars - 2 - prev)
            out.append(tuple(expo))
    return out


# ---------------------------------------------------------------------------
# rings and polynomials


@dataclass(frozen=True)
class PolyRing:
    """Polynomial ring QQ[variables] with a monomial order tag."""

    variables: tuple
    order: str = GREVLEX

    def __post_init__(self):
        if not self.variables:
            raise ValueError("a ring needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be unique")
        if self.order not in (GREVLEX, LEX):
            raise ValueError(f"unknown order tag: {self.order!r}")
        object.__setattr__(self, "variables", tuple(self.variables))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Polynomial":
        return Polynomial._make(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c: Scalar) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial._make(self, {(0,) * self.nvars: c})

    def var(self, name: str) -> "Polynomial":
        try:
            i = self.variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None
        expo = [0] * self.nvars
        expo[i] = 1
        return Polynomial._make(self, {tuple(expo): Fraction(1)})

    def monomial(self, exponents: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
        return Polynomial(self, {tuple(exponents): Fraction(coeff)})

    def parse(self, text: str) -> "Polynomial":
        return parse_poly(text, self)

    def __repr__(self):
        return f"PolyRing({', '.join(self.variables)}; {self.order})"


class Polynomial:
    """Immutable multivariate polynomial: a map from monomials to coefficients.

    The zero polynomial has an empty term map; stored coefficients are never
    zero and always `Fraction`s.  Three fields are filled lazily: `_hash`,
    `_lead` (the last leading term, tagged with its key function) and `_int`
    (the primitive integer form with its scale, see `integer_form`).  Each
    is a pure function of the terms, so filling it is idempotent and sharing
    values across threads stays safe.
    """

    __slots__ = ("ring", "terms", "_hash", "_lead", "_int")

    def __init__(self, ring: PolyRing, terms: dict):
        clean = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != ring.nvars:
                raise ValueError("exponent vector length does not match ring")
            if any(e < 0 for e in mono):
                raise ValueError("negative exponent")
            coeff = Fraction(coeff)
            if coeff:
                clean[mono] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_lead", None)
        object.__setattr__(self, "_int", None)

    @classmethod
    def _make(cls, ring: PolyRing, terms: dict) -> "Polynomial":
        # trusted fast path: terms already canonical
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_lead", None)
        object.__setattr__(self, "_int", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- queries

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial (0 for the zero polynomial)."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def support(self) -> frozenset:
        """Indices of variables that occur."""
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return frozenset(used)

    def leading_term(self, key=None) -> tuple:
        """(monomial, coefficient) maximal under the ring order (or `key`).

        Memoised for the last key asked, which is compared by identity: the
        keys from `monomial_key` are cached, so repeated calls hit the memo.
        """
        if key is None:
            key = monomial_key(self.ring.order)
        memo = self._lead
        if memo is not None and memo[0] is key:
            return memo[1]
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=key)
        lt = (m, self.terms[m])
        object.__setattr__(self, "_lead", (key, lt))
        return lt

    def leading_monomial(self, key=None) -> Monomial:
        return self.leading_term(key)[0]

    def leading_coefficient(self, key=None) -> Fraction:
        return self.leading_term(key)[1]

    # -- arithmetic

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"operands from different rings: {self.ring!r} vs {other.ring!r}"
            )

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial._make(self.ring, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        terms: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                s = terms.get(m, 0) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return Polynomial._make(self.ring, terms)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "Polynomial":
        c = Fraction(c)
        if not c:
            return self.ring.zero()
        return Polynomial._make(self.ring, {m: co * c for m, co in self.terms.items()})

    def mul_term(self, mono: Monomial, coeff: Fraction) -> "Polynomial":
        """Multiply by the single term coeff * x^mono."""
        if not coeff:
            return self.ring.zero()
        if coeff == 1:
            # a pure shift: skip a Fraction product per term
            return Polynomial._make(
                self.ring,
                {tuple(x + y for x, y in zip(m, mono)): c for m, c in self.terms.items()},
            )
        return Polynomial._make(
            self.ring,
            {tuple(x + y for x, y in zip(m, mono)): c * coeff for m, c in self.terms.items()},
        )

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point (length must match the ring)."""
        if len(point) != self.ring.nvars:
            raise ValueError(
                f"point has {len(point)} coordinates, ring has {self.ring.nvars} variables"
            )
        pt = [Fraction(c) for c in point]
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for x, e in zip(pt, m):
                if e:
                    v *= x**e
            total += v
        return total

    def integer_form(self) -> tuple:
        """(ints, c): self == c * ints, ints a {monomial: int} map of content 1.

        c is the positive content; the zero polynomial gives ({}, 1).  Memoised:
        the map is shared, so callers must not mutate it.
        """
        memo = self._int
        if memo is None:
            if not self.terms:
                memo = ({}, Fraction(1))
            else:
                den = lcm(*(c.denominator for c in self.terms.values()))
                num = gcd(*(c.numerator for c in self.terms.values()))
                ints = {
                    m: c.numerator * (den // c.denominator) // num
                    for m, c in self.terms.items()
                }
                memo = (ints, Fraction(num, den))
            object.__setattr__(self, "_int", memo)
        return memo

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-coefficient, content 1."""
        return self.integer_form()[1]

    def primitive_part(self) -> tuple:
        """(primitive polynomial g, scalar c) with self = c * g."""
        if not self.terms:
            return self, Fraction(1)
        ints, c = self.integer_form()
        sign = -1 if self.leading_coefficient() < 0 else 1
        prim = {m: Fraction(sign * v) for m, v in ints.items()}
        return Polynomial._make(self.ring, prim), sign * c

    def monic(self, key=None) -> "Polynomial":
        if not self.terms:
            return self
        return self.scale(1 / self.leading_coefficient(key))

    # -- comparison / hashing / text

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self.is_constant() and self.constant_value() == other
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ring, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def sorted_terms(self, key=None) -> list:
        """Terms as (monomial, coefficient), largest monomial first."""
        if key is None:
            key = monomial_key(self.ring.order)
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (m, c) in enumerate(self.sorted_terms()):
            neg = c < 0
            mag = -c if neg else c
            factors = []
            if mag != 1 or not any(m):
                factors.append(str(mag))
            for name, e in zip(self.ring.variables, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if i == 0:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"{'-' if neg else '+'} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<{self} in {self.ring!r}>"


# ---------------------------------------------------------------------------
# parsing

# One alternative per token kind, tried in order at each position; `bad`
# takes any character the others reject, so one finditer pass covers the text.
_TOKEN_RE = re.compile(
    r"(?P<number>(\d+)(?:/(\d+))?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()])"
    r"|(?P<space>\s+)"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list:
    """Tokens of `text` as (kind, value, position), closed by an "end" token.

    A number has kind "number" and value (numerator, denominator), both
    ints, the denominator None when the literal has no "/"; a name has kind
    "name"; an operator is its own kind and value.  Bad characters and zero
    denominators raise `ParseError` here, before any syntax is checked.
    """
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "op":
            op = m.group()
            append((op, op, m.start()))
        elif kind == "name":
            append(("name", m.group(), m.start()))
        elif kind == "number":
            num, den = m.group(2, 3)
            if den is not None:
                den = int(den)
                if not den:
                    raise ParseError("zero denominator", m.start())
            append(("number", (int(num), den), m.start()))
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        # kind "space" adds no token
    append(("end", "", len(text)))
    return tokens


def _add_into(terms: dict, mono: Monomial, coeff: Fraction) -> None:
    """terms += coeff * x^mono, in place, dropping a term that cancels."""
    old = terms.get(mono)
    if old is None:
        terms[mono] = coeff
    else:
        s = old + coeff
        if s:
            terms[mono] = s
        else:
            del terms[mono]


class _Parser:
    """Recursive descent that builds the term map of the result directly.

    Each expression adds its terms in place into one `{monomial: Fraction}`
    dict.  A term made only of numbers and variable powers is read as one
    exponent list and an integer numerator and denominator and becomes a
    single `Fraction`: flat terms never build a `Polynomial`, so parsing
    flat input costs time linear in its number of terms.  Only
    parenthesized factors, with their `^`, go through `Polynomial.__mul__`
    and `__pow__`; the flat part of such a term is folded in with one
    `mul_term`.  Denominators must be nonzero.
    """

    def __init__(self, text: str, ring: PolyRing):
        self.ring = ring
        self.index = {name: i for i, name in enumerate(ring.variables)}
        self.nvars = ring.nvars
        self.tokens = _tokenize(text)

    def parse(self) -> Polynomial:
        terms, i = self.expr(0)
        kind, value, pos = self.tokens[i]
        if kind != "end":
            if kind == "name" or kind == "number":
                raise ParseError("implicit multiplication not allowed", pos)
            raise ParseError(f"unexpected {value!r}", pos)
        return Polynomial._make(self.ring, terms)

    def expr(self, i: int) -> tuple:
        """Parse an expr from token i on; return its term map and the next i."""
        tokens, index, nvars = self.tokens, self.index, self.nvars
        terms: dict = {}
        sign = 1
        kind = tokens[i][0]
        if kind == "+" or kind == "-":
            i += 1
            if kind == "-":
                sign = -1
        while True:
            # one term: numbers and variable powers go into num/den and expo,
            # parenthesized factors into group
            expo = [0] * nvars
            num, den = sign, 1
            group = None
            while True:
                kind, value, pos = tokens[i]
                i += 1
                if kind == "(":
                    inner, i = self.expr(i)
                    factor = Polynomial._make(self.ring, inner)
                    if tokens[i][0] != ")":
                        raise ParseError("expected ')'", tokens[i][2])
                    i += 1
                elif kind == "name":
                    if value not in index:
                        raise ParseError(f"unknown variable {value!r}", pos)
                elif kind != "number":
                    raise ParseError(
                        "expected a number, variable or parenthesized expression", pos
                    )
                e = 1
                if tokens[i][0] == "^":
                    kind_e, value_e, pos_e = tokens[i + 1]
                    if kind_e != "number" or value_e[1] is not None:
                        raise ParseError("expected a non-negative integer exponent", pos_e)
                    i += 2
                    e = value_e[0]
                if kind == "number":
                    num *= value[0] ** e
                    if value[1] is not None:
                        den *= value[1] ** e
                elif kind == "name":
                    expo[index[value]] += e
                else:
                    if e != 1:
                        factor = factor**e
                    group = factor if group is None else group * factor
                if tokens[i][0] != "*":
                    break
                i += 1
            if num:
                mono, coeff = tuple(expo), Fraction(num, den)
                if group is None:
                    _add_into(terms, mono, coeff)
                else:
                    for m, c in group.mul_term(mono, coeff).terms.items():
                        _add_into(terms, m, c)
            kind, _, pos = tokens[i]
            if kind == "+" or kind == "-":
                i += 1
                sign = 1 if kind == "+" else -1
            elif kind == "name" or kind == "number" or kind == "(":
                raise ParseError("implicit multiplication not allowed", pos)
            else:
                return terms, i


def parse_poly(text: str, ring: PolyRing) -> Polynomial:
    """Parse `text` in the grammar above into a canonical Polynomial."""
    return _Parser(text, ring).parse()
