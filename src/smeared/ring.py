"""The subring R of a polynomial ring S cut out by a family of ideals.

Given proper, nonzero, pairwise coprime ideals I_1..I_n of S = QQ[x1..xd],
this module works with R = the intersection of the subrings k + I_i: the
polynomials that restrict to a constant on each zero set Z(I_i).  Each Z(I_i)
behaves like a single "smeared" point of Spec R: membership in R hands back
the vector of constants, evaluation at the i-th smeared point is the i-th
constant, and a partition of unity splits 1 across any one ideal against the
rest.

The interesting dichotomy is in `verdicts`: R is noetherian exactly when
every quotient S/I_i is zero-dimensional, and S is a depiction of R (R and S
agree away from the union of the Z(I_i), with matching spectra) exactly when
every S/I_i has dimension at least one.  For a positive-dimensional I_i,
`chain_witness` certifies a finite prefix of the strictly ascending chain
gR < (g, gh)R < (g, gh, gh^2)R < ... that witnesses the failure of the
noetherian property.  Its h is a variable that no basis lead is a power
of, and its evidence is the powers of h.

With `check_radicality`, `validate` decides whether an ideal asserted radical
is so by the Jacobian criterion where the ideal is a complete intersection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from typing import Optional, Sequence

from .groebner import divide_each
from .ideals import Ideal
from .linalg import kernel_basis
from .poly import (
    GREVLEX,
    Polynomial,
    PolyRing,
    RingMismatchError,
    monomial_key,
    monomials_up_to_degree,
    sum_of_products,
)


class NoChainError(ValueError):
    """The quotient by ideal `index` (0-based) is zero-dimensional: k + I is
    noetherian there and no strictly ascending chain of the certified form
    exists.  `render(base)` numbers the ideal from `base` (the CLI uses 1)."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(self.render())

    def render(self, base: int = 0) -> str:
        i = self.index + base
        return f"dim of the quotient by ideal {i} is 0; the chain construction needs positive dimension"


class NotMemberError(ValueError):
    """The polynomial is not in R: its normal form `remainder` modulo ideal
    `index` (0-based) is not a constant.  `render(base)` as `NoChainError`'s."""

    def __init__(self, index: int, remainder: Polynomial):
        self.index, self.remainder = index, remainder
        super().__init__(self.render())

    def render(self, base: int = 0) -> str:
        i = self.index + base
        return f"polynomial is not in the subring: normal form modulo ideal {i} is {self.remainder}"


class NotCoprimeError(ValueError):
    """Two configured ideals, `pair` (0-based), are not coprime.
    `render(base)` as `NoChainError`'s."""

    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(self.render())

    def render(self, base: int = 0) -> str:
        pair = Violation("not_coprime", self.pair).render(base)
        return f"{pair}, so no partition of unity separates ideal {self.pair[0] + base} from the rest"


class NegativeDegreeError(ValueError):
    """`r_basis` got the negative degree bound `degree`."""

    def __init__(self, degree: int):
        super().__init__("degree bound must be non-negative")
        self.degree = degree


class NegativeLengthError(ValueError):
    """`chain_witness` got the negative chain length `length`."""

    def __init__(self, length: int):
        super().__init__("chain length must be non-negative")
        self.length = length


class OffZeroSetError(ValueError):
    """Sample point `point` (0-based) is not on the zero set of ideal
    `index`: its generator `generator` does not vanish there.  `render(base)`
    numbers the point and the ideal from `base` (the CLI uses 1)."""

    def __init__(self, point: int, index: int, generator: Polynomial):
        self.point, self.index, self.generator = point, index, generator
        super().__init__(self.render())

    def render(self, base: int = 0) -> str:
        p, i = self.point + base, self.index + base
        return f"point {p} is not on the zero set of ideal {i}: generator {self.generator} does not vanish there"


@dataclass(frozen=True)
class SmearedRingConfig:
    """R = intersection of (QQ + I_i) inside ring; immutable once built.

    `radical_asserted[i]` records the caller's promise that I_i is radical;
    the verdicts rely on it, and `validate` checks it when `check_radicality`
    is set (`jacobian_criterion`, else a spot-check).

    `pair_sums[i, j]` is the handle of I_i + I_j (I_i's generators first)
    for each unordered pair i < j; `validate` and `partition_of_unity` share
    them, so each pair sum's basis is computed once, when first asked for.
    `report` is `validate`'s report, kept once it is first computed.
    """

    ring: PolyRing
    ideals: tuple
    radical_asserted: tuple = ()
    check_radicality: bool = False
    pair_sums: dict = field(init=False, repr=False, compare=False)
    report: Optional[ValidationReport] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ideals", tuple(self.ideals))
        if not self.ideals:
            raise ValueError("need at least one ideal")
        for ideal in self.ideals:
            if ideal.ring != self.ring:
                raise RingMismatchError("ideal from a different ring")
        flags = tuple(self.radical_asserted) or (True,) * len(self.ideals)
        if len(flags) != len(self.ideals):
            raise ValueError("one radicality flag per ideal")
        object.__setattr__(self, "radical_asserted", flags)
        pairs = itertools.combinations(range(len(self.ideals)), 2)
        sums = {(i, j): self.ideals[i] + self.ideals[j] for i, j in pairs}
        object.__setattr__(self, "pair_sums", sums)

    @property
    def n(self) -> int:
        return len(self.ideals)

    def check_index(self, i: int):
        if not 0 <= i < self.n:
            raise IndexError(f"ideal index {i} out of range (0..{self.n - 1})")


# one text per violation kind; {0} and {1} are the ideals, {monomial} the
# monomial that refutes radicality
_VIOLATION_TEXTS = {
    "not_proper": "ideal {0} is the unit ideal",
    "zero": "ideal {0} is the zero ideal",
    "maximal": "ideal {0} is maximal (residue dimension 1); the constants together "
    "with a maximal ideal already fill the whole ring, so drop this ideal from "
    "the configuration",
    "not_coprime": "ideals {0} and {1} are not coprime (their zero sets meet)",
    "not_radical": "ideal {0} asserted radical, but {monomial} lies in the radical "
    "and not in the ideal",
    # a `not_radical` with no monomial: the Jacobian criterion refuted it
    "not_reduced": "ideal {0} asserted radical, but its quotient is not reduced (Jacobian criterion)",
}


@dataclass(frozen=True)
class Violation:
    """A failed hypothesis: its kind, the 0-based ideals at fault, and for
    `not_radical` the monomial that refutes radicality, or None where the
    Jacobian criterion refutes it and the spot-check finds no monomial."""

    kind: str
    ideals: tuple
    monomial: Optional[Polynomial] = None

    def render(self, base: int = 0) -> str:
        """The message, numbering ideals from `base` (the CLI uses 1)."""
        shown = (i + base for i in self.ideals)
        kind = "not_reduced" if self.kind == "not_radical" and self.monomial is None else self.kind
        return _VIOLATION_TEXTS[kind].format(*shown, monomial=self.monomial)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple
    radicality_checked: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of testing f against every ideal's normal form.

    Member iff NF(f, I_i) is a constant for every i; `constants` is then the
    vector of those constants, and `divisions[i]`, I_i's `DivisionResult`,
    has the quotients that combine I_i's reduced basis to f - constants[i],
    decoded on their first read.  On failure, `witness_index` is the first
    bad ideal and `nonconstant_remainder` its normal form.
    """

    member: bool
    constants: Optional[tuple] = None
    witness_index: Optional[int] = None
    nonconstant_remainder: Optional[Polynomial] = None
    divisions: tuple = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class PartitionWitness:
    """1 = a + b with a in I_i and b in every other I_j, both in R;
    `a_cofactors` combine I_i's generators to a, `b_cofactors[j]` I_j's to
    b (None at j = i)."""

    index: int
    a: Polynomial
    b: Polynomial
    a_cofactors: tuple
    b_cofactors: tuple


@dataclass(frozen=True)
class ChainWitness:
    """Certificate that gR < (g, gh)R < ... is strict for `length` steps.

    `evidence[j]` is h^j, its own normal form modulo I_i; their linear
    independence over QQ is exactly strictness of each inclusion.
    """

    index: int
    g: Polynomial
    h: Polynomial
    length: int
    evidence: tuple


@dataclass(frozen=True)
class Verdicts:
    noetherian: bool
    depicted_by_S: bool
    per_ideal_dims: tuple


@dataclass(frozen=True)
class LocusEvidence:
    """What happened at one ideal: the first generator that refuted
    membership of the point in Z(I_i), or the fact that all vanished."""

    index: int
    on_variety: bool
    generator_index: Optional[int] = None
    value: Optional[Fraction] = None


@dataclass(frozen=True)
class LocusReport:
    in_locus: bool
    evidence: tuple


@dataclass(frozen=True)
class ConstancyReport:
    index: int
    expected: Fraction
    values: tuple
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return not self.mismatches


# ---------------------------------------------------------------------------
# validation


def _radicality_candidates(ideal: Ideal):
    """Monomials properly dividing a generator's grevlex leading monomial,
    whatever the ring's order (which leaves the ring's lead memo alone).

    Spot-check fodder where `jacobian_criterion` proves nothing: if such a
    monomial lies in the radical but not in the ideal, the ideal is certainly
    not radical.  Finding nothing proves nothing.
    """
    ring = ideal.ring
    seen = set()
    for g in ideal.generators:
        if g.is_zero():
            continue
        lm = max(g.integer_form()[0], key=monomial_key(GREVLEX))
        for cand in itertools.product(*(range(e + 1) for e in lm)):
            if cand == lm or sum(cand) == 0 or cand in seen:
                continue
            seen.add(cand)
            yield ring.monomial(cand)


def jacobian_criterion(ideal: Ideal) -> Optional[bool]:
    """True if the proper ideal I is proven radical, False if refuted, None
    if the test abstains: where its c nonzero generators leave dim S/I above
    n - c, for n variables, I is no complete intersection.  A complete
    intersection is radical iff dim S/(I + J) < dim S/I, J the ideal of the
    c x c minors of the Jacobian matrix and the unit ideal of dimension -1
    (Eisenbud, Commutative Algebra, Thm. 18.15).  The minors are expanded
    along the rows, each (row, column set) sub-minor once; c = 0 is proven.
    """
    ring, gens = ideal.ring, [g for g in ideal.generators if not g.is_zero()]
    c = len(gens)
    if c == 0:
        return True
    dim = ideal.krull_dim()
    if dim != ring.nvars - c:
        return None
    jac = [[g.derivative(j) for j in range(ring.nvars)] for g in gens]
    memo = {(c, ()): ring.one()}

    def minor(row: int, cols: tuple) -> Polynomial:
        if (row, cols) not in memo:
            expansion = [
                ((-1) ** k, jac[row][j], minor(row + 1, cols[:k] + cols[k + 1 :]))
                for k, j in enumerate(cols)
                if not jac[row][j].is_zero()
            ]
            memo[row, cols] = sum_of_products(ring, expansion)
        return memo[row, cols]

    minors = [minor(0, cols) for cols in itertools.combinations(range(ring.nvars), c)]
    if any(m.is_constant() and not m.is_zero() for m in minors):
        return True  # I + J is the unit ideal, with no basis to compute
    singular = Ideal(ring, (*gens, *minors))
    return (-1 if singular.contains_one() else singular.krull_dim()) < dim


def validate(config: SmearedRingConfig) -> ValidationReport:
    """Check the hypotheses the whole theory rests on.

    Per ideal: proper, nonzero, and non-maximal (a maximal I_i would make
    QQ + I_i all of S, so the ideal contributes nothing and should be dropped
    from the configuration instead).  Per pair: coprime, i.e. the zero sets
    are disjoint.  With `config.check_radicality`, asserted radicality goes to
    `jacobian_criterion`; where it is not proven, the spot-check looks for a
    monomial witness, and a refutation with none reports monomial None.
    """
    if config.report is not None:
        return config.report
    violations = []
    proper = []
    for i, ideal in enumerate(config.ideals):
        if ideal.contains_one():
            violations.append(Violation("not_proper", (i,)))
            proper.append(False)
            continue
        proper.append(True)
        if ideal.is_zero():
            violations.append(Violation("zero", (i,)))
            continue
        # residue dimension 1 exactly when every variable is a basis lead:
        # the staircase is then just {1}
        if ideal.groebner().pure_powers() == [1] * config.ring.nvars:
            violations.append(Violation("maximal", (i,)))
    for i, j in itertools.combinations(range(config.n), 2):
        if not proper[i] or not proper[j]:
            continue
        if not config.pair_sums[i, j].contains_one():
            violations.append(Violation("not_coprime", (i, j)))
    if config.check_radicality:
        for i, ideal in enumerate(config.ideals):
            if not config.radical_asserted[i] or not proper[i]:
                continue
            proven = jacobian_criterion(ideal)
            if proven:
                continue
            in_radical = (m for m in _radicality_candidates(ideal) if ideal.radical_member(m))
            witness = next((m for m in in_radical if not ideal.contains(m)), None)
            if witness is not None or proven is False:
                violations.append(Violation("not_radical", (i,), witness))
    object.__setattr__(config, "report", ValidationReport(tuple(violations), config.check_radicality))
    return config.report


# ---------------------------------------------------------------------------
# membership and evaluation


def member(f: Polynomial, config: SmearedRingConfig) -> MembershipCertificate:
    """Does f restrict to a constant on every configured zero set?"""
    if f.ring != config.ring:
        raise RingMismatchError("polynomial from a different ring")
    constants, divisions = [], []
    # one routine divides f by the bases in turn, each basis built when its division comes
    for i, res in enumerate(divide_each(f, (ideal.groebner() for ideal in config.ideals))):
        nf = res.remainder
        if not nf.is_constant():
            return MembershipCertificate(
                member=False, witness_index=i, nonconstant_remainder=nf
            )
        constants.append(nf.constant_value())
        divisions.append(res)
    return MembershipCertificate(True, tuple(constants), divisions=tuple(divisions))


def evaluate_at_smeared_point(f: Polynomial, i: int, config: SmearedRingConfig) -> Fraction:
    """Value of f at the i-th smeared point (the constant f takes on Z(I_i))."""
    config.check_index(i)
    cert = member(f, config)
    if not cert.member:
        raise NotMemberError(cert.witness_index, cert.nonconstant_remainder)
    return cert.constants[i]


# ---------------------------------------------------------------------------
# partition of unity


def partition_of_unity(i: int, config: SmearedRingConfig) -> PartitionWitness:
    """Split 1 = a + b with a in I_i and b in every other ideal, with the
    cofactors the construction determines (Atiyah and Macdonald, Prop. 1.10).

    For each j != i, in index order, the unit certificate of the pair sum
    `pair_sums[min(i, j), max(i, j)]` splits into I_i's part cof_i^(j) and
    I_j's part cof_j, so 1 = a_j + b_j, b_j = sum cof_j[k] * I_j[k].  Then
    b = prod_j b_j has cofactors cof_j times the other b_l over I_j, and
    a = 1 - b = sum_t a_(j_t) * prod_(s < t) b_(j_s) has cofactors
    sum_t prod_(s < t) b_(j_s) * cof_i^(j_t) over I_i: no intersection, no
    division, and no transform but the pair sums'.  The first pair with no
    unit certificate raises `NotCoprimeError`.  a is 0 on Z(I_i) and 1 on
    the other zero sets, b the reverse, as the identities force.
    """
    config.check_index(i)
    if config.n < 2:
        raise ValueError("a partition of unity needs at least two ideals")
    ring, gens_i = config.ring, config.ideals[i].generators
    b, a_cofactors, parts = ring.one(), [ring.zero()] * len(gens_i), []
    for j, ideal_j in enumerate(config.ideals):
        if j == i:
            continue
        try:
            cof = config.pair_sums[min(i, j), max(i, j)].unit_certificate()
        except ValueError:
            raise NotCoprimeError(i, j) from None
        cut = len(gens_i) if i < j else len(ideal_j.generators)
        cof_i, cof_j = (cof[:cut], cof[cut:]) if i < j else (cof[cut:], cof[:cut])
        a_cofactors = [s + b * c for s, c in zip(a_cofactors, cof_i)]  # b: the b_l so far
        b_j = sum_of_products(ring, [(1, c, g) for c, g in zip(cof_j, ideal_j.generators)])
        parts.append((j, cof_j, b_j))
        b = b * b_j
    b_cofactors = [None] * config.n
    for j, cof_j, _ in parts:
        others = prod((b_k for k, _, b_k in parts if k != j), start=ring.one())
        b_cofactors[j] = tuple(c * others for c in cof_j)
    return PartitionWitness(i, ring.one() - b, b, tuple(a_cofactors), tuple(b_cofactors))


# ---------------------------------------------------------------------------
# verdicts


def verdicts(config: SmearedRingConfig) -> Verdicts:
    """Noetherianity and depiction, decided by the per-ideal dimensions.

    R is noetherian iff every dim S/I_i = 0; S depicts R iff every
    dim S/I_i >= 1.  The dimensions double as lower bounds for the geometric
    dimension of each smeared point.
    """
    dims = tuple(ideal.krull_dim() for ideal in config.ideals)
    return Verdicts(
        noetherian=all(d == 0 for d in dims),
        depicted_by_S=all(d >= 1 for d in dims),
        per_ideal_dims=dims,
    )


# ---------------------------------------------------------------------------
# locus


def locus_member(point: Sequence, config: SmearedRingConfig) -> LocusReport:
    """Is the point in the locus where R and S agree?

    That locus is the complement of the union of the zero sets: the point is
    in it iff, for every ideal, some generator is nonzero at the point.
    """
    if len(point) != config.ring.nvars:
        raise ValueError(
            f"point has {len(point)} coordinates, ring has {config.ring.nvars} variables"
        )
    evidence = []
    for i, ideal in enumerate(config.ideals):
        hit = None
        for gi, g in enumerate(ideal.generators):
            v = g.evaluate(point)
            if v:
                hit = (gi, v)
                break
        if hit is None:
            evidence.append(LocusEvidence(i, on_variety=True))
        else:
            evidence.append(
                LocusEvidence(i, on_variety=False, generator_index=hit[0], value=hit[1])
            )
    return LocusReport(
        in_locus=all(not e.on_variety for e in evidence), evidence=tuple(evidence)
    )


# ---------------------------------------------------------------------------
# ascending chain


def chain_witness(i: int, length: int, config: SmearedRingConfig) -> ChainWitness:
    """Certify `length` strict steps of the chain gR < (g, gh)R < ...

    Requires dim S/I_i >= 1.  h is the first variable that no basis lead is
    a power of (`GroebnerBasis.pure_powers`), so I_i meets QQ[h] only in 0.
    g*h^(l+1) lies in (g, ..., g*h^l)R iff NF(h^(l+1)) falls in the span of
    the earlier normal forms.  A lead dividing a power of h would be 1 or a
    power of h, so none does: each h^k is its own normal form, and the
    evidence h^0..h^length, distinct monomials, is independent as built,
    with no division and no rank test.
    """
    config.check_index(i)
    if length < 0:
        raise NegativeLengthError(length)
    ideal = config.ideals[i]
    j = next((j for j, e in enumerate(ideal.groebner().pure_powers()) if e is None), None)
    if j is None:
        raise NoChainError(i)
    h = config.ring.var(config.ring.variables[j])
    g = next((p for p in ideal.generators if not p.is_zero()), None)
    if g is None:
        raise ValueError("chain needs a nonzero generator")

    powers = (tuple(k * (t == j) for t in range(config.ring.nvars)) for k in range(length + 1))
    evidence = tuple(Polynomial._new(config.ring, {m: 1}, Fraction(1)) for m in powers)
    return ChainWitness(i, g, h, length, evidence)


# ---------------------------------------------------------------------------
# finite-dimensional slices of R


def scaled_normal_forms(ideal: Ideal, monomials) -> list:
    """Per tabled NF(x^m), in order, den * NF(x^m) less its constant term as
    an integer map, for the lcm den of the contents' denominators: one scale
    for all, as `r_basis`'s rows and `verify`'s sums of slice members need."""
    forms = [ideal.monomial_normal_form(m).integer_form() for m in monomials]
    den = lcm(*[c.denominator for _, c in forms])
    scales = [c.numerator * (den // c.denominator) for _, c in forms]
    return [{m: v * s for m, v in ints.items() if any(m)} for (ints, _), s in zip(forms, scales)]


def r_basis(d: int, config: SmearedRingConfig) -> list:
    """A QQ-basis of {f in R : deg f <= d}.

    Sets up one exact linear system: writing f over all monomials of degree
    at most d, f is in R iff for each ideal the nonconstant part of the
    normal form of f vanishes: each ideal gives one sparse integer row per
    nonconstant monomial of its normal forms, over columns that stand for
    the monomials in descending grevlex order.  Each kernel vector of that
    constraint matrix, an `(ints, content)` pair read back along those
    monomials, is a basis element's stored form.

    The normal forms come from each ideal's table of monomial normal forms
    (`Ideal.monomial_normal_form`), which `verify`'s slice membership check
    shares: a monomial is divided once per configuration, so `basis 0..d`
    costs what `basis d` alone costs.
    """
    if d < 0:
        raise NegativeDegreeError(d)
    ring = config.ring
    key = monomial_key(GREVLEX)
    unknowns = sorted(monomials_up_to_degree(ring.nvars, d), key=key, reverse=True)
    rows = []
    for ideal in config.ideals:
        constraints = {}
        for col, nf in enumerate(scaled_normal_forms(ideal, unknowns)):
            for m, v in nf.items():
                constraints.setdefault(m, {})[col] = v
        rows.extend(constraints.values())
    return [
        Polynomial._new(ring, {unknowns[col]: v for col, v in ints.items()}, content)
        for ints, content in kernel_basis(rows, len(unknowns))
    ]


# ---------------------------------------------------------------------------
# constancy on a zero set


def smeared_constancy_check(
    f: Polynomial, i: int, points: Sequence[Sequence], config: SmearedRingConfig
) -> ConstancyReport:
    """Evaluate a member of R at sample points of Z(I_i); all values must be
    the i-th constant of its membership certificate.  A mismatch would mean
    the engine is wrong, so it is reported rather than raised."""
    config.check_index(i)
    expected = evaluate_at_smeared_point(f, i, config)
    ideal = config.ideals[i]
    values = []
    mismatches = []
    for pi, point in enumerate(points):
        for g in ideal.generators:
            if g.evaluate(point):
                raise OffZeroSetError(pi, i, g)
        v = f.evaluate(point)
        values.append(v)
        if v != expected:
            mismatches.append(pi)
    return ConstancyReport(i, expected, tuple(values), tuple(mismatches))
