"""Exact multivariate polynomials over the rationals.

Monomials are dense exponent tuples (one entry per ring variable).  A
polynomial is stored as a positive rational content times a primitive
`{monomial: int}` map, so arithmetic runs on integers (see `Polynomial`);
`terms` is a `{monomial: Fraction}` view whose values are built when read.
Values are immutable and safe to share across threads: the fields filled
lazily are pure functions of the stored form, so a race at worst
recomputes one.  Coefficients are `int` or `Fraction`; any other scalar is
a `TypeError`.

Text grammar accepted by `parse_poly` (space, tab, CR and LF insignificant,
implicit multiplication rejected)::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := rational | var | '(' expr ')'

Rational literals look like ``3`` or ``5/2``; a denominator must be nonzero.
The optional sign on the first term is a strict superset of the grammar
needed so canonical serialization round-trips.  `_read_flat` reads flat
text, as `__str__` writes it, in one split and one monomial-table lookup per
term; `_Parser` reads the rest, in one tokenizer pass and then a recursive
descent over the tokens, with the same results.  Both build the term map
directly: only parenthesized factors build a `Polynomial`, by multiplication
and powers.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Sequence, Union

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


def _grevlex_key(m: Monomial) -> tuple:
    # the sums of the first k exponents, k from n down to 1: a higher total
    # degree wins, then a smaller last exponent, then a smaller one before it
    return tuple(itertools.accumulate(m))[::-1]


def _lex_key(m: Monomial) -> tuple:
    return m


@dataclass(frozen=True)
class EliminationOrder:
    """Block order: the `eliminated` variables dominate, grevlex inside blocks.

    Any monomial in an eliminated variable is above every monomial in the
    rest, so a basis in the one ring of this order, which `Ideal.eliminate`
    builds, restricts to elimination ideals; problem files name grevlex or lex.
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


_MONOMIAL_TABLE_SIZE = 4096  # entries; past it monomials are still read, not kept


@dataclass(frozen=True)
class PolyRing:
    """Polynomial ring QQ[variables] and the order of every basis in it: grevlex,
    lex, or (in the ring `Ideal.eliminate` builds) a block `EliminationOrder`.

    `key` is the order's sort key (`monomial_key`), which division, leading
    terms and packing read.  `_monomials`, the monomial table of at most
    `_MONOMIAL_TABLE_SIZE` entries, maps monomial texts `_read_flat` has read
    (``x^4*y^3*z``) to exponent tuples, and tuples `__str__` has spelled back
    to text; `_keys`, as bounded, holds the order keys `__str__` sorts by; and
    `_layouts` the packed-monomial layouts `groebner` builds, one per field
    width.  Equality, hashing, `repr`, pickling and copies ignore all four,
    which derive from `order` or start cold.  An entry is a pure function of its
    key, so racing threads at worst store one twice, or pass the bound by one
    entry (`_keys`: one polynomial's) each.
    """

    variables: tuple
    order: object = GREVLEX
    key: object = field(init=False, repr=False, compare=False)
    _monomials: dict = field(init=False, repr=False, compare=False)
    _keys: dict = field(init=False, repr=False, compare=False)
    _layouts: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.variables:
            raise ValueError("a ring needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be unique")
        block = isinstance(self.order, EliminationOrder) and self.order.nvars == len(self.variables)
        if not (block or self.order in (GREVLEX, LEX)):
            raise ValueError(f"no monomial order {self.order!r} on {len(self.variables)} variables")
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "key", monomial_key(self.order))
        one = (0,) * len(self.variables)
        object.__setattr__(self, "_monomials", {"": one, one: ""})
        object.__setattr__(self, "_keys", {})
        object.__setattr__(self, "_layouts", {})

    def __reduce__(self):
        return (PolyRing, (self.variables, self.order))

    def _monomial(self, m):
        """The monomial table's entry for `m`: the exponent tuple of a flat
        monomial text (``x^4*y^3*z``; None if a name is no variable), or the
        text of an exponent tuple as `Polynomial.__str__` writes it."""
        value = self._monomials.get(m)
        if value is None:
            if isinstance(m, str):
                expo = [0] * self.nvars
                for factor in m.split("*"):
                    name, _, e = factor.partition("^")
                    if name not in self.variables:
                        return None
                    expo[self.variables.index(name)] += int(e) if e else 1
                value = tuple(expo)
            else:
                value = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(self.variables, m) if e)
            if len(self._monomials) < _MONOMIAL_TABLE_SIZE:
                self._monomials[m] = value
        return value

    def _descending(self, monos) -> list:
        """`monos` largest first; order keys come from `_keys`, filled on a miss."""
        try:
            return sorted(monos, key=self._keys.__getitem__, reverse=True)
        except KeyError:
            new = dict(zip(monos, map(self.key, monos)))
            self._keys.update(itertools.islice(new.items(), _MONOMIAL_TABLE_SIZE - len(self._keys)))
            return sorted(monos, key=new.__getitem__, reverse=True)

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
    Three fields are filled lazily: `_hash`, `_lead` (the leading term under
    the ring's order) and `_pack` (the widest packed divisor form
    `groebner.divide` built, tagged with its field width; left unset until
    then, so building a polynomial costs no extra store).  Each is a pure
    function of the stored pair and the ring, so filling it is idempotent and
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

    def __reduce__(self):
        """Pickle and copy the stored pair; the lazy fields refill when used."""
        return (Polynomial._new, (self.ring, *self._form))

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

    def leading_term(self) -> tuple:
        """(monomial, coefficient) maximal under the ring's order, memoised."""
        lt = self._lead
        if lt is None:
            ints, c = self._form
            if not ints:
                raise ValueError("zero polynomial has no leading term")
            m = max(ints, key=self.ring.key)
            lt = (m, Fraction(ints[m] * c.numerator, c.denominator))
            object.__setattr__(self, "_lead", lt)
        return lt

    def leading_monomial(self) -> Monomial:
        return self.leading_term()[0]

    def leading_coefficient(self) -> Fraction:
        return self.leading_term()[1]

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

    def derivative(self, j: int) -> "Polynomial":
        """The partial derivative by the j-th variable."""
        ints, c = self._form
        terms = {m[:j] + (m[j] - 1,) + m[j + 1 :]: v * m[j] for m, v in ints.items() if m[j]}
        return Polynomial._make(self.ring, terms).scale(c)

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
        """Exact value at a point of int or Fraction coordinates, as a Fraction.

        In integers: with D the lcm of the denominators, x_i = n_i / D, and at
        degree d a term v * x^m is v * n^m * D^(d - |m|) / D^d.  The v * n^m
        are summed per degree |m|, and one `Fraction` ends the sum.  Each
        n_i^e and D^(d - |m|) is one `pow` per distinct exponent: no table
        is filled up to an exponent, so x^70000 costs one power.
        """
        if len(point) != self.ring.nvars:
            raise ValueError(
                f"point has {len(point)} coordinates, ring has {self.ring.nvars} variables"
            )
        pt = [_scalar(x) for x in point]
        ints, c = self._form
        den = lcm(*[x.denominator for x in pt])
        nums = [x.numerator * (den // x.denominator) for x in pt]
        powers = [{} for _ in nums]  # per variable: exponent -> n_i^e
        by_degree: dict = {}  # |m| -> sum of v * n^m over the terms of degree |m|
        for m, v in ints.items():
            for n, e, known in zip(nums, m, powers):
                if e:
                    p = known.get(e)
                    if p is None:
                        p = known[e] = pow(n, e)
                    v *= p
            k = sum(m)
            by_degree[k] = by_degree.get(k, 0) + v
        d = max(by_degree, default=0)
        total = sum(v * pow(den, d - k) for k, v in by_degree.items())
        return Fraction(total * c.numerator, c.denominator * pow(den, d))

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
        spelled = self.ring._monomials.get
        parts = []
        for m in self.ring._descending(ints):
            v = ints[m]
            num = (-v if v < 0 else v) * n
            g = gcd(num, d) if d != 1 else 1
            mono = spelled(m) or self.ring._monomial(m)  # a miss, or the constant's ""
            coeff = f"{num // g}/{d // g}" if d != g else "" if num == g and mono else str(num // g)
            body = f"{coeff}*{mono}" if coeff and mono else coeff or mono
            parts.append(f"- {body}" if v < 0 else f"+ {body}")
        parts[0] = parts[0][2:] if parts[0][0] == "+" else "-" + parts[0][2:]  # "+ x" to "x", "- x" to "-x"
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<{self} in {self.ring!r}>"


def _lift(acc: list, den: int) -> int:
    """Raise `acc` = [tau, {monomial: int}] to a denominator that `den`
    divides; return the factor tau // den that turns v / den into acc's."""
    tau, terms = acc
    if tau % den:
        t = den // gcd(tau, den)
        for k in terms:
            terms[k] *= t
        acc[0] = tau = tau * t
    return tau // den


def sum_of_products(ring: PolyRing, products) -> Polynomial:
    """sum(s * p * q for s, p, q in products), s an int or a Fraction, summed
    in one integer map over a common denominator (`_lift`) and built as a
    `Polynomial` once; every cofactor sum over polynomials goes through here."""
    acc = [1, {}]
    get = acc[1].get
    for s, p, q in products:
        (a, ca), (b, cb) = p.integer_form(), q.integer_form()
        if not a or not b:
            continue
        num = s.numerator * ca.numerator * cb.numerator
        den = s.denominator * ca.denominator * cb.denominator
        g = gcd(num, den)
        c = num // g * _lift(acc, den // g)
        b = b.items()
        for m1, v1 in a.items():
            v1 *= c
            for m2, v2 in b:
                m = tuple(map(add, m1, m2))
                acc[1][m] = get(m, 0) + v1 * v2
    terms = {m: v for m, v in acc[1].items() if v}
    if not terms:
        return ring.zero()
    h = gcd(*terms.values())
    return Polynomial._new(ring, {m: v // h for m, v in terms.items()}, Fraction(h, acc[0]))


# ---------------------------------------------------------------------------
# parsing

# One match per token, after ASCII whitespace: an operator (group 1), a name
# (2), a literal (3; its numerator 4 and denominator 5) or any other character
# (6), which is an error.  Trailing whitespace matches nothing.  Digits and
# whitespace are ASCII only: `\d` and `\s` would also read other scripts'
# digits and Unicode spaces.
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN_RE = re.compile(rf"[ \t\r\n]*(?:([-+*^()])|({_NAME})|(([0-9]+)(?:/([0-9]+))?)|([^ \t\r\n]))")
# A monomial text that misses the monomial table; its exponents have at most
# 640 digits, which `int()` reads at any digit limit it can be given.
_LIT = r"[1-9][0-9]{0,639}"
_MONOMIAL_RE = re.compile(rf"{_NAME}(?:\^{_LIT})?(?:\*{_NAME}(?:\^{_LIT})?)*")
# each "(" costs the parser one level of recursion; a fixed bound keeps deep
# nesting a ParseError wherever the parser is called from
_MAX_NESTING = 100


def _tokenize(text: str) -> list:
    """The tokens of `text` as (kind, value, position), then ("end", "", len).
    An operator is its own kind and value, a name is "name" with its text, and
    a literal (numerator, denominator) is "int" if it has no "/", else "frac".
    Raises the first bad character, overlong literal or zero denominator."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastindex
        pos = m.start(kind)
        if kind == 1:
            tokens.append((m[1], m[1], pos))
        elif kind == 2:
            tokens.append(("name", m[2], pos))
        elif kind == 3:
            try:
                num, den = int(m[4]), int(m[5] or 1)
            except ValueError:
                # int() refuses literals longer than sys.get_int_max_str_digits()
                raise ParseError("integer literal has too many digits", pos) from None
            if not den:
                raise ParseError("zero denominator", pos)
            tokens.append(("frac" if m[5] else "int", (num, den), pos))
        else:
            raise ParseError(f"unexpected character {m[6]!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens of the text `_read_flat` declines; a
    group is a recursive call.  A term's numbers and variable powers become
    one coefficient and one exponent tuple, and only parenthesized factors
    build a `Polynomial`; each expression adds its terms in place into one
    dict for `Polynomial._make`.  The tokenizer has raised every lexical
    error, so they come before the syntax errors, which come in text order.
    """

    def __init__(self, text: str, ring: PolyRing):
        self.tokens = _tokenize(text)
        self.ring = ring
        self.index = {name: i for i, name in enumerate(ring.variables)}

    def expr(self, i: int = 0, depth: int = 0) -> tuple:
        """The term map of the expr at token i, inside `depth` open
        parentheses, and the index of the token after it.  It must end at the
        ")" closing the innermost one, or with none open, at the end."""
        tokens, index = self.tokens, self.index
        terms: dict = {}
        while True:
            # one term, with a sign except perhaps the first
            sign = tokens[i][0]
            if sign == "+" or sign == "-":
                i += 1
            expo = [0] * len(index)
            num, den, group = (-1 if sign == "-" else 1), 1, None
            while True:
                kind, value, pos = tokens[i]
                i += 1
                if kind == "name":
                    if value not in index:
                        raise ParseError(f"unknown variable {value!r}", pos)
                elif kind == "(":
                    if depth == _MAX_NESTING:
                        raise ParseError(f"parentheses nested more than {_MAX_NESTING} deep", pos)
                    inner, i = self.expr(i, depth + 1)
                    value = Polynomial._make(self.ring, inner)
                elif kind != "int" and kind != "frac":
                    raise ParseError("expected a number, variable or parenthesized expression", pos)
                e = 1
                if tokens[i][0] == "^":
                    what, lit, pos = tokens[i + 1]
                    if what != "int":
                        raise ParseError("expected a non-negative integer exponent", pos)
                    e = lit[0]
                    i += 2
                if kind == "name":
                    expo[index[value]] += e
                elif kind == "(":
                    if e != 1:  # a power of 1 would cost a multiplication
                        value = value**e
                    group = value if group is None else group * value
                else:
                    num *= value[0] ** e
                    den *= value[1] ** e
                if tokens[i][0] != "*":
                    break
                i += 1
            if num:
                mono, coeff = tuple(expo), (num if den == 1 else Fraction(num, den))
                product = [(mono, coeff)] if group is None else group.mul_term(mono, coeff).terms.items()
                for mono, coeff in product:  # added in place; a term that cancels is dropped
                    s = terms[mono] + coeff if mono in terms else coeff
                    if s:
                        terms[mono] = s
                    else:
                        del terms[mono]
            kind, value, pos = tokens[i]
            if kind == "+" or kind == "-":
                continue
            if kind in ("name", "int", "frac", "("):
                raise ParseError("implicit multiplication not allowed", pos)
            if depth and kind != ")":
                raise ParseError("expected ')'", pos)
            if not depth and kind != "end":
                raise ParseError(f"unexpected {value!r}", pos)
            return terms, i + 1


def _read_flat(text: str, ring: PolyRing):
    """The stored pair (ints, content) of flat text, as `__str__` writes it,
    or None to leave `text` to `_Parser`: one split, then per term one
    partition and one monomial-table lookup (`_MONOMIAL_RE` on a miss)."""
    if text == "0":
        return {}, _ONE
    words = ("- " + text[1:] if text[:1] == "-" else "+ " + text).split(" ")
    if not text.isascii() or len(words) % 2 or not {"+", "-"}.issuperset(words[::2]):
        return None
    table, words, ints, dens = ring._monomials, iter(words), {}, []
    for sign, body in zip(words, words):
        if body < ":":  # a literal first; the checks decline what else sorts before ":"
            lit, star, body = body.partition("*")
            n, slash, d = lit.partition("/")
            if not n.isdigit() or slash and not d.isdigit() or star and not body:
                return None
            try:
                n, d = int(n), int(d) if slash else 1
            except ValueError:  # past the digit limit in force
                return None
        else:
            n = d = 1
        mono = table.get(body)
        if mono is None and (not _MONOMIAL_RE.fullmatch(body) or (mono := ring._monomial(body)) is None):
            return None
        ints[mono] = -n if sign == "-" else n
        dens.append(d)
    den = lcm(*dens)  # 0 for a zero denominator
    if len(ints) != len(dens) or not den or not all(ints.values()):  # a repeated monomial, a zero
        return None
    if den != 1:
        ints = {m: n * (den // d) for (m, n), d in zip(ints.items(), dens)}
    g = gcd(*ints.values())
    if g != 1:
        ints = {m: v // g for m, v in ints.items()}
    return ints, Fraction(g, den)


def parse_poly(text: str, ring: PolyRing) -> Polynomial:
    """Parse `text` in the grammar above into a canonical Polynomial;
    `PolyRing.parse` calls this module global."""
    form = _read_flat(text, ring)
    if form is not None:
        return Polynomial._new(ring, *form)
    terms, _ = _Parser(text, ring).expr()
    return Polynomial._make(ring, terms)
