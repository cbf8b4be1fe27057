"""Exact multivariate polynomials over the rationals.

Monomials are dense exponent tuples (one entry per ring variable).  A
polynomial is stored as a positive rational content times a primitive
`{monomial: int}` map, so arithmetic runs on integers (see `Polynomial`);
`terms` is a `{monomial: Fraction}` view whose values are built when read.
Values are immutable and safe to share across threads: the fields filled
lazily are pure functions of the stored form, so a race at worst
recomputes one.  Coefficients are `int` or `Fraction`; any other scalar is
a `TypeError`.

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
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
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


def _grevlex_key(m: Monomial) -> tuple:
    # the sums of the first k exponents, k from n down to 1: a higher total
    # degree wins, then a smaller last exponent, then a smaller one before it
    return tuple(itertools.accumulate(m))[::-1]


def _lex_key(m: Monomial) -> tuple:
    return m


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

    Every key is linear: it maps an exponent tuple to a tuple of sums of
    exponents (weights 0 or 1), compared lexicographically, so the key of a
    product is the sum of the keys.  Each order is grevlex inside blocks of
    variables, the blocks compared in turn, and lex is one block per
    variable.  `groebner.divide` packs monomials by this map.
    """
    if order == GREVLEX:
        return _grevlex_key
    if order == LEX:
        return _lex_key
    if isinstance(order, EliminationOrder):
        elim = order.eliminated
        rest = tuple(i for i in range(order.nvars) if i not in elim)

        def key(m: Monomial) -> tuple:
            return _grevlex_key([m[i] for i in elim]) + _grevlex_key([m[i] for i in rest])

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

_ONE = Fraction(1)


def _scalar(c):
    """`c` itself if it is an int or a Fraction; anything else is a TypeError."""
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError(f"a scalar must be an int or a Fraction, not {type(c).__name__}")


def _primitive(terms: dict) -> tuple:
    """(ints, content) of a map of nonzero int or `Fraction` coefficients:
    one lcm pass over the denominators, one gcd pass over the numerators."""
    if not terms:
        return {}, _ONE
    den = lcm(*[c.denominator for c in terms.values()])
    ints = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
    g = gcd(*ints.values())
    if g != 1:
        ints = {m: v // g for m, v in ints.items()}
    return ints, Fraction(g, den)


def _negated(ints: dict) -> dict:
    return {m: -v for m, v in ints.items()}


def _fill(p: "Polynomial", ring: "PolyRing", form: tuple) -> None:
    setattr_ = object.__setattr__
    setattr_(p, "ring", ring)
    setattr_(p, "_form", form)
    setattr_(p, "_hash", None)
    setattr_(p, "_lead", None)


class _Terms(Mapping):
    """Read-only `{monomial: Fraction}` view of a stored form (ints, content);
    each coefficient is built when it is read."""

    __slots__ = ("_ints", "_content")

    def __init__(self, ints: dict, content: Fraction):
        self._ints, self._content = ints, content

    def __getitem__(self, m) -> Fraction:
        c = self._content
        return Fraction(self._ints[m] * c.numerator, c.denominator)

    def __iter__(self):
        return iter(self._ints)

    def __len__(self) -> int:
        return len(self._ints)

    def __contains__(self, m) -> bool:
        return m in self._ints

    def __repr__(self) -> str:
        return repr(dict(self.items()))


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
        return Polynomial._new(self, {}, _ONE)

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c: Scalar) -> "Polynomial":
        if not _scalar(c):
            return self.zero()
        return Polynomial._new(self, {(0,) * self.nvars: 1 if c > 0 else -1}, abs(Fraction(c)))

    def var(self, name: str) -> "Polynomial":
        try:
            i = self.variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None
        expo = [0] * self.nvars
        expo[i] = 1
        return Polynomial._new(self, {tuple(expo): 1}, _ONE)

    def monomial(self, exponents: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
        return Polynomial(self, {tuple(exponents): coeff})

    def parse(self, text: str) -> "Polynomial":
        return parse_poly(text, self)

    def __repr__(self):
        return f"PolyRing({', '.join(self.variables)}; {self.order})"


class Polynomial:
    """Immutable multivariate polynomial: content times a primitive integer map.

    The stored form is the pair `(ints, content)` that `integer_form`
    returns: `ints` maps monomials to nonzero ints whose gcd is 1 and which
    keep the coefficients' signs, `content` is a positive `Fraction`, and
    the polynomial is content * ints.  The zero polynomial is `({}, 1)`.
    The pair is unique, so equal polynomials store equal pairs.

    Products need no gcd: by Gauss's lemma the product of two primitive
    integer polynomials is primitive, so `*` multiplies the maps and the
    contents.  `+` and `-` put both contents over one denominator, add the
    maps and divide by the gcd of the sum; `scale`, `mul_term` and negation
    change only the content and the signs.

    `terms` is a read-only `{monomial: Fraction}` view of the pair that
    builds each coefficient when it is read, so no second map is kept.
    Three fields are filled lazily: `_hash`, `_lead` (the last leading term,
    tagged with its key function) and `_pack` (the last packed divisor form
    `groebner.divide` built, tagged with its key and field width; left unset
    until then, so building a polynomial costs no extra store).  Each is a
    pure function of the stored pair, so filling it is idempotent and
    sharing values across threads stays safe.
    """

    __slots__ = ("ring", "_form", "_hash", "_lead", "_pack")

    def __init__(self, ring: PolyRing, terms: dict):
        clean = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != ring.nvars:
                raise ValueError("exponent vector length does not match ring")
            if any(e < 0 for e in mono):
                raise ValueError("negative exponent")
            if _scalar(coeff):
                clean[mono] = coeff
        _fill(self, ring, _primitive(clean))

    @classmethod
    def _new(cls, ring: PolyRing, ints: dict, content: Fraction) -> "Polynomial":
        # trusted fast path: (ints, content) already canonical
        self = object.__new__(cls)
        _fill(self, ring, (ints, content))
        return self

    @classmethod
    def _make(cls, ring: PolyRing, terms: dict) -> "Polynomial":
        # trusted: valid monomials, nonzero int or Fraction coefficients
        return cls._new(ring, *_primitive(terms))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> Mapping:
        """Read-only `{monomial: Fraction}` view; values are built when read."""
        return _Terms(*self._form)

    def integer_form(self) -> tuple:
        """The stored pair (ints, c): self == c * ints, ints of content 1.

        c is the positive content; the zero polynomial gives ({}, 1).  The
        map is shared, so callers must not mutate it.
        """
        return self._form

    # -- queries

    def is_zero(self) -> bool:
        return not self._form[0]

    def is_constant(self) -> bool:
        ints = self._form[0]
        return not ints or (len(ints) == 1 and not any(next(iter(ints))))

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial (0 for the zero polynomial)."""
        ints, c = self._form
        if not ints:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return c * next(iter(ints.values()))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self._form[0]), default=-1)

    def support(self) -> frozenset:
        """Indices of variables that occur."""
        used = set()
        for m in self._form[0]:
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
        ints, c = self._form
        if not ints:
            raise ValueError("zero polynomial has no leading term")
        m = max(ints, key=key)
        lt = (m, Fraction(ints[m] * c.numerator, c.denominator))
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

    def _add_signed(self, other, sign: int) -> "Polynomial":
        """self + sign * other, with one gcd pass over the summed map."""
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        a, ca = self._form
        b, cb = other._form
        if not b:
            return self
        if not a:
            return other if sign > 0 else Polynomial._new(self.ring, _negated(b), cb)
        # ca*a + sign*cb*b = (g/den) * (sa*a + sb*b), sa and sb integers
        g = gcd(ca.numerator, cb.numerator)
        den = lcm(ca.denominator, cb.denominator)
        sa = ca.numerator // g * (den // ca.denominator)
        sb = sign * (cb.numerator // g) * (den // cb.denominator)
        if len(a) < len(b):
            a, b, sa, sb = b, a, sb, sa
        out = dict(a) if sa == 1 else {m: v * sa for m, v in a.items()}
        get = out.get
        for m, v in b.items():
            s = get(m, 0) + sb * v
            if s:
                out[m] = s
            else:
                del out[m]
        if not out:
            return self.ring.zero()
        h = gcd(*out.values())
        if h != 1:
            out = {m: v // h for m, v in out.items()}
        return Polynomial._new(self.ring, out, Fraction(g * h, den))

    def __add__(self, other) -> "Polynomial":
        return self._add_signed(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        ints, c = self._form
        return Polynomial._new(self.ring, _negated(ints), c)

    def __sub__(self, other) -> "Polynomial":
        return self._add_signed(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return (-self)._add_signed(other, 1)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        a, ca = self._form
        b, cb = other._form
        if not a or not b:
            return self.ring.zero()
        if len(a) < len(b):
            a, b = b, a
        out: dict = {}
        get = out.get
        b = b.items()
        for m1, c1 in a.items():
            for m2, c2 in b:
                m = tuple(map(add, m1, m2))
                out[m] = get(m, 0) + c1 * c2
        if not all(out.values()):
            out = {m: v for m, v in out.items() if v}
        # Gauss's lemma: a product of primitive polynomials is primitive
        return Polynomial._new(self.ring, out, ca * cb)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "Polynomial":
        if not _scalar(c):
            return self.ring.zero()
        ints, content = self._form
        if not ints:
            return self
        if c < 0:
            ints, c = _negated(ints), -c
        return Polynomial._new(self.ring, ints, content * c)

    def mul_term(self, mono: Monomial, coeff: Scalar) -> "Polynomial":
        """Multiply by the single term coeff * x^mono."""
        if not _scalar(coeff):
            return self.ring.zero()
        ints, content = self._form
        if not ints:
            return self
        if coeff < 0:
            ints, coeff = _negated(ints), -coeff
        shifted = {tuple(map(add, m, mono)): v for m, v in ints.items()}
        return Polynomial._new(self.ring, shifted, content if coeff == 1 else content * coeff)

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
        """Exact value at a point of int or Fraction coordinates."""
        if len(point) != self.ring.nvars:
            raise ValueError(
                f"point has {len(point)} coordinates, ring has {self.ring.nvars} variables"
            )
        pt = [_scalar(x) for x in point]
        ints, c = self._form
        total = 0
        for m, v in ints.items():
            for x, e in zip(pt, m):
                if e:
                    v *= x**e
            total += v
        return c * total

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-coefficient, content 1."""
        return self._form[1]

    def primitive_part(self) -> tuple:
        """(primitive polynomial g with positive lead, scalar c) with self = c * g."""
        ints, c = self._form
        if not ints:
            return self, _ONE
        if ints[self.leading_monomial()] < 0:
            return Polynomial._new(self.ring, _negated(ints), _ONE), -c
        return Polynomial._new(self.ring, ints, _ONE), c

    # -- comparison / hashing / text

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self.is_constant() and self.constant_value() == other
            return NotImplemented
        return self.ring == other.ring and self._form == other._form

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            ints, c = self._form
            h = hash((self.ring, frozenset(ints.items()), c))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        ints, c = self._form
        if not ints:
            return "0"
        n, d = c.numerator, c.denominator
        names = self.ring.variables
        parts = []
        for m in sorted(ints, key=monomial_key(self.ring.order), reverse=True):
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
    "name"; an operator is its own kind and value.  Bad characters, zero
    denominators and literals too long for `int()` raise `ParseError` here,
    before any syntax is checked.
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
            try:
                num = int(num)
                den = None if den is None else int(den)
            except ValueError:
                # int() refuses literals longer than sys.get_int_max_str_digits()
                raise ParseError("integer literal has too many digits", m.start()) from None
            if den == 0:
                raise ParseError("zero denominator", m.start())
            append(("number", (num, den), m.start()))
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        # kind "space" adds no token
    append(("end", "", len(text)))
    return tokens


def _add_into(terms: dict, mono: Monomial, coeff: Scalar) -> None:
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

    Each expression adds its terms in place into one dict from monomials to
    rational coefficients, which `Polynomial._make` turns into the stored
    form with one lcm/gcd pass.  A term made only of numbers and variable
    powers is read as one exponent list and an integer numerator and
    denominator and becomes a single int, or a `Fraction` when the
    denominator is not 1: flat terms never build a `Polynomial`, so parsing
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
                mono, coeff = tuple(expo), (num if den == 1 else Fraction(num, den))
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
