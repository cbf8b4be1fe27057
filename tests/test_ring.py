"""The subring layer: validation, membership, partitions, verdicts, loci,
chains, finite slices, constancy."""

import operator
import random
import sys
import threading
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import smeared as sm
import smeared.groebner as groebner
import smeared.ideals as ideals_module
import smeared.linalg as linalg
from smeared import Ideal, Polynomial, PolyRing, RingMismatchError, SmearedRingConfig
from smeared.cli import load_problem
from smeared.poly import sum_of_products
from smeared.ring import jacobian_criterion
from oracle import oracle_r_slice_dim


def test_config_rejects_bad_shapes(R2):
    x = R2.var("x")
    with pytest.raises(ValueError):
        SmearedRingConfig(R2, ())
    with pytest.raises(ValueError):
        SmearedRingConfig(R2, (Ideal(R2, (x,)),), (True, False))
    other = PolyRing(("a",))
    with pytest.raises(RingMismatchError):
        SmearedRingConfig(R2, (Ideal(other, (other.var("a"),)),))


def test_validate_three_lines(three_lines):
    report = sm.validate(three_lines)
    assert report.ok
    assert report.violations == ()


def test_validate_not_coprime(R2):
    config = SmearedRingConfig(
        R2, (Ideal(R2, (R2.var("x"),)), Ideal(R2, (R2.var("y"),)))
    )
    report = sm.validate(config)
    assert not report.ok
    assert [(v.kind, v.ideals) for v in report.violations] == [("not_coprime", (0, 1))]


def test_validate_maximal(R2):
    config = SmearedRingConfig(R2, (Ideal(R2, (R2.var("x"), R2.var("y"))),))
    report = sm.validate(config)
    assert [v.kind for v in report.violations] == ["maximal"]


@pytest.mark.parametrize(
    "gens, maximal", [(("x - 1", "y + 2"), True), (("x^2", "y"), False), (("x^2 + 1", "y"), False)]
)
def test_validate_maximal_from_leads(R2, monkeypatch, gens, maximal):
    def no_staircase_walk(self):
        raise AssertionError("validate walked the staircase")

    monkeypatch.setattr(Ideal, "quotient_vdim", no_staircase_walk)
    config = SmearedRingConfig(R2, (Ideal(R2, tuple(R2.parse(g) for g in gens)),))
    kinds = [v.kind for v in sm.validate(config).violations]
    assert kinds == (["maximal"] if maximal else [])


def test_validate_unit_and_zero(R2):
    x = R2.var("x")
    config = SmearedRingConfig(R2, (Ideal(R2, (x, x - 1)), Ideal(R2, ())))
    kinds = {v.kind for v in sm.validate(config).violations}
    assert kinds == {"not_proper", "zero"}


def test_validate_radicality_spot_check(R2):
    x = R2.var("x")
    config = SmearedRingConfig(R2, (Ideal(R2, (x**2,)),))
    assert sm.validate(config).ok  # structural hypotheses fine
    checked = SmearedRingConfig(R2, (Ideal(R2, (x**2,)),), check_radicality=True)
    report = sm.validate(checked)
    assert [v.kind for v in report.violations] == ["not_radical"]
    assert report.radicality_checked
    # honest flags suppress the check
    humble = SmearedRingConfig(R2, (Ideal(R2, (x**2,)),), (False,), check_radicality=True)
    assert sm.validate(humble).ok


R3 = PolyRing(("x", "y", "z"))


def _radicality(monkeypatch, *gens):
    """validate's report on the one ideal (gens) of QQ[x, y, z] with
    check_radicality, the criterion's answer, and the radical_member calls."""
    ideal = Ideal(R3, tuple(map(R3.parse, gens)))
    calls = _counting(monkeypatch, Ideal, "radical_member")
    report = sm.validate(SmearedRingConfig(R3, (ideal,), check_radicality=True))
    return report, jacobian_criterion(ideal), len(calls)


@pytest.mark.parametrize(
    "gens",
    [
        ("x*y", "z"),
        ("y^2 - x^3", "z"),
        ("x^2 + y^2 - 1", "z"),
        ("x*(x*y - 3/2)",),
        # smooth, but each needs the right minors: the sign of the second
        # expansion term (det -2), that term itself (det -1), and the column
        # set (0, 2) apart from (0, 1) (minor 1 - 2x)
        ("x + y", "x - y - 1"),
        ("y + x^2", "x"),
        ("z", "x^2 - x"),
    ],
)
def test_jacobian_criterion_proves_reduced_ideals(monkeypatch, gens):
    # (x*y, z) and (y^2 - x^3, z) are singular at the origin, yet reduced:
    # the singular locus has lower dimension, and no spot-check runs
    report, proven, calls = _radicality(monkeypatch, *gens)
    assert proven is True and report.ok and report.radicality_checked and calls == 0


def test_jacobian_criterion_abstains_off_complete_intersections(monkeypatch):
    # the coordinate axes: three generators, dimension 1, no complete
    # intersection; the spot-check runs and finds nothing, as before
    report, proven, calls = _radicality(monkeypatch, "x*y", "y*z", "x*z")
    assert proven is None and calls > 0
    assert report == sm.ValidationReport((), True)
    # no generators at all: the zero ideal is radical
    assert jacobian_criterion(Ideal(R3, (R3.zero(),))) is True


@pytest.mark.parametrize(
    "gens, monomial, message",
    [
        (("x^2",), "x", "ideal 1 asserted radical, but x lies in the radical and not in the ideal"),
        (
            ("x^2 + y^2 - 1", "z^2"),
            "z",
            "ideal 1 asserted radical, but z lies in the radical and not in the ideal",
        ),
        (
            ("x^2 + 2*x*y + y^2",),
            None,
            "ideal 1 asserted radical, but its quotient is not reduced (Jacobian criterion)",
        ),
    ],
)
def test_jacobian_refutations_report_a_witness_where_one_exists(monkeypatch, gens, monomial, message):
    # the spot-check still names a monomial where it finds one; (x + y)^2 has
    # no monomial witness, and passed validation before the criterion
    report, proven, calls = _radicality(monkeypatch, *gens)
    assert proven is False and calls > 0
    [v] = report.violations
    assert (v.kind, v.ideals, v.render(1)) == ("not_radical", (0,), message)
    assert v.monomial == (None if monomial is None else R3.parse(monomial))


def test_four_curves_are_proven_radical(monkeypatch):
    base = four_curves_config()
    config = SmearedRingConfig(base.ring, base.ideals, check_radicality=True)
    calls = _counting(monkeypatch, Ideal, "radical_member")
    assert sm.validate(config) == sm.ValidationReport((), True)
    assert calls == []


def _sympy_exprs(sympy, syms, polys):
    def term(m, c):
        return sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**e for s, e in zip(syms, m)))

    return [sum(term(m, c) for m, c in p.terms.items()) for p in polys]


# proper complete intersections in 2 or 3 variables, most of the time:
# c <= n generators of up to three terms of degree at most 2 in each variable
_intersections = st.integers(2, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.dictionaries(
                st.tuples(*[st.integers(0, 2)] * n),
                st.integers(1, 3) | st.integers(-3, -1),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=n,
        ),
    )
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_intersections)
def test_jacobian_verdicts_agree_with_a_rabinowitsch_oracle(case):
    sympy = pytest.importorskip("sympy")
    n, maps = case
    ring = PolyRing(("x", "y", "z")[:n])
    ideal = Ideal(ring, tuple(Polynomial(ring, terms) for terms in maps))
    assume(not ideal.contains_one())
    proven = jacobian_criterion(ideal)
    assume(proven is not None)
    if proven:
        # no spot-check candidate lies in the radical and outside the ideal,
        # by the Rabinowitsch test run through sympy: m is in the radical iff
        # I + (1 - t*m) is the unit ideal
        syms = sympy.symbols(ring.variables)
        t = sympy.Symbol("t")
        gens = _sympy_exprs(sympy, syms, ideal.generators)
        basis = sympy.groebner(gens, *syms, order="grevlex", domain="QQ")
        for m in sm.ring._radicality_candidates(ideal):
            [mono] = _sympy_exprs(sympy, syms, [m])
            extended = sympy.groebner([*gens, 1 - t * mono], *syms, t, order="grevlex", domain="QQ")
            if extended.exprs == [1]:
                assert basis.contains(mono)
        # squaring a generator keeps the zero set and breaks reducedness
        f = next(g for g in ideal.generators if not g.is_zero())
        squared = Ideal(ring, tuple(g**2 if g is f else g for g in ideal.generators))
        assert jacobian_criterion(squared) is False


def test_member_examples(three_lines, R2):
    x, y = R2.var("x"), R2.var("y")
    cert = sm.member(x, three_lines)
    assert cert.member and cert.constants == (0, 1, 2)
    cert = sm.member(y, three_lines)
    assert not cert.member
    assert cert.witness_index == 0
    assert cert.nonconstant_remainder == y
    cert = sm.member(x * (x - 1) * (x - 2) * y, three_lines)
    assert cert.member and cert.constants == (0, 0, 0)


def test_member_ring_mismatch(three_lines):
    other = PolyRing(("a",))
    with pytest.raises(RingMismatchError):
        sm.member(other.var("a"), three_lines)


def _packings_of(monkeypatch, f):
    """The units of every later `groebner._pack_map` call on f's exponent map."""
    ints, calls, real = f.integer_form()[0], [], groebner._pack_map
    monkeypatch.setattr(groebner, "_pack_map", lambda t, u: (t is ints and calls.append(u)) or real(t, u))
    return calls


def test_membership_packs_its_polynomial_once_per_width(monkeypatch):
    # four curves under one order and one width: f is packed once, not once per basis
    config = four_curves_config()
    x, y, z = (config.ring.var(v) for v in "xyz")
    f = x * (y - x**2 - 1) * (z - 5) * (z + 3) + 7
    packings = _packings_of(monkeypatch, f)
    cert = sm.member(f, config)
    assert cert.member and cert.constants == (7, 7, 7, 7) and len(packings) == 1
    sm.member(f, config)  # the packing lives as long as one membership
    assert len(packings) == 2


# (order, generators per ideal, a member f, the width of each division)
EACH_BASIS_CASES = {
    # the fourth basis has a lead of degree 130: 16-bit fields, the others 8
    "widths": (
        "grevlex",
        (("x", "y"), ("y - x^2 - 1", "z - x^3"), ("z - 5", "x*y - 1"), ("y^130 - x - 2", "z + 3")),
        "x*(y - x^2 - 1)*(z - 5)*(z + 3) + 7",
        [8, 8, 8, 16],
    ),
    # x^71 divided by x - y^2 leaves y^142: that division re-packs at 16 partway through
    "lex_repack": (
        "lex",
        (("x - y^2", "z"), ("x - 1", "y - 2"), ("z - 5", "y + 1")),
        "x^70*z*(x - 1)*(z - 5) + 3",
        [16, 8, 8],
    ),
}


@pytest.mark.parametrize("case", EACH_BASIS_CASES)
def test_member_divisions_equal_each_basis_division(case, monkeypatch):
    order, gens, text, widths = EACH_BASIS_CASES[case]
    ring = PolyRing(("x", "y", "z"), order)
    config = SmearedRingConfig(ring, tuple(Ideal(ring, tuple(map(ring.parse, g))) for g in gens))
    bases, f = [ideal.groebner() for ideal in config.ideals], ring.parse(text)
    divided, real_divide = [], groebner.divide
    monkeypatch.setattr(groebner, "divide", lambda *a, **k: divided.append(a[1]) or real_divide(*a, **k))
    packings = _packings_of(monkeypatch, f)
    cert = sm.member(f, config)
    # one call of the module's `divide` per basis, and one packing of f per width
    assert cert.member and len(divided) == len(bases) and all(map(operator.is_, divided, bases))
    assert [res._packed[0] for res in cert.divisions] == widths and len(packings) == len(set(widths))
    for res, gb in zip(cert.divisions, bases):
        assert res == gb.divide(f) == real_divide(f, list(gb.elements), gb.key())
    other = PolyRing(("x", "y", "z"), "grevlex" if order == "lex" else "lex").parse(text)
    with pytest.raises(RingMismatchError):
        sm.member(other, config)
    with pytest.raises(RingMismatchError):
        next(groebner.divide_each(other, bases))


def test_products_of_generators_have_zero_constants(three_lines, R2):
    rng = random.Random(61)
    gens = [ideal.generators[0] for ideal in three_lines.ideals]
    for _ in range(10):
        f = R2.one()
        for g in gens:
            f = f * g
        f = f * R2.const(rng.randint(1, 5)) + R2.zero()
        cert = sm.member(f, three_lines)
        assert cert.member and cert.constants == (0, 0, 0)


def test_closure_under_ring_operations(three_lines):
    rng = random.Random(67)
    basis = sm.r_basis(5, three_lines)
    for _ in range(15):
        f, g = rng.choice(basis), rng.choice(basis)
        cf, cg = sm.member(f, three_lines), sm.member(g, three_lines)
        assert cf.member and cg.member
        csum = sm.member(f + g, three_lines)
        cprod = sm.member(f * g, three_lines)
        assert csum.member and cprod.member
        assert csum.constants == tuple(a + b for a, b in zip(cf.constants, cg.constants))
        assert cprod.constants == tuple(a * b for a, b in zip(cf.constants, cg.constants))


def test_evaluate_at_smeared_point(three_lines, R2):
    x, y = R2.var("x"), R2.var("y")
    assert sm.evaluate_at_smeared_point(x, 1, three_lines) == 1
    f = x * (x - 1) * (x - 2) * y
    for i in range(3):
        assert sm.evaluate_at_smeared_point(f, i, three_lines) == 0
    with pytest.raises(ValueError):
        sm.evaluate_at_smeared_point(y, 0, three_lines)
    with pytest.raises(IndexError):
        sm.evaluate_at_smeared_point(x, 3, three_lines)


def test_evaluation_is_a_homomorphism(three_lines, R2):
    x = R2.var("x")
    f = x * (x - 1)
    g = x + 3
    for i in range(3):
        vf = sm.evaluate_at_smeared_point(f, i, three_lines)
        vg = sm.evaluate_at_smeared_point(g, i, three_lines)
        assert sm.evaluate_at_smeared_point(f + g, i, three_lines) == vf + vg
        assert sm.evaluate_at_smeared_point(f * g, i, three_lines) == vf * vg


def four_curves_config():
    ring = PolyRing(("x", "y", "z"))
    gens = (
        ("x", "y"),
        ("y - x^2 - 1", "z - x^3"),
        ("z - 5", "x*y - 1"),
        ("x^2 + y^2 - 1", "z + 3"),
    )
    return SmearedRingConfig(ring, tuple(Ideal(ring, tuple(map(ring.parse, g))) for g in gens))


def assert_partition_certified(w, config):
    """The identities `verify` checks, a = sum(a_cofactors * I_i's generators)
    and b = sum(b_cofactors[j] * I_j's) for every j != i, and the forced
    constants, read off `member` as an oracle: a is 0 on Z(I_i) and 1 on the
    other zero sets, b the reverse."""
    ring, i = config.ring, w.index

    def combine(cofactors, ideal):
        assert len(cofactors) == len(ideal.generators)
        return sum_of_products(ring, [(1, c, g) for c, g in zip(cofactors, ideal.generators)])

    assert w.a + w.b == ring.one()
    assert combine(w.a_cofactors, config.ideals[i]) == w.a
    assert len(w.b_cofactors) == config.n and w.b_cofactors[i] is None
    for j, ideal in enumerate(config.ideals):
        if j != i:
            assert combine(w.b_cofactors[j], ideal) == w.b
    expected_a = tuple(Fraction(int(j != i)) for j in range(config.n))
    a_cert, b_cert = sm.member(w.a, config), sm.member(w.b, config)
    assert a_cert.member and b_cert.member
    assert a_cert.constants == expected_a
    assert b_cert.constants == tuple(1 - c for c in expected_a)


def test_partition_of_unity_invariants(three_lines, monkeypatch):
    def no_intersection(self, other):
        raise AssertionError("partition_of_unity computed an intersection")

    # pairwise unit certificates suffice; no ideal is ever intersected
    monkeypatch.setattr(Ideal, "intersect", no_intersection)
    for config in (three_lines, four_curves_config()):
        n = config.n
        for i in range(n):
            w = sm.partition_of_unity(i, config)
            assert w.index == i
            assert_partition_certified(w, config)
            for j in range(n):
                if j != i:
                    # distinctness of the smeared points: a is in I_i, not in I_j
                    assert not config.ideals[j].contains(w.a)
            assert not config.ideals[i].contains(w.b)


# shifted curves in QQ[x, y, z], none principal: a line along z, a twisted
# cubic, a hyperbola in a plane z = a and a circle in one
_CURVES = (
    ("x - {a}", "y - {b}"),
    ("y - x^2 - {a}", "z - x^3 - {b}"),
    ("z - {a}", "x*y - {b}"),
    ("x^2 + y^2 - {a}^2 - 1", "z - {b}"),
)
_curve_families = st.lists(
    st.tuples(st.integers(0, len(_CURVES) - 1), st.integers(-3, 3), st.integers(-3, 3)),
    min_size=3,
    max_size=4,
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_curve_families)
def test_partitions_of_coprime_curves_are_certified(family):
    ring = PolyRing(("x", "y", "z"))
    ideals = [
        Ideal(ring, tuple(ring.parse(g.format(a=f"({a})", b=f"({b})")) for g in _CURVES[kind]))
        for kind, a, b in family
    ]
    config = SmearedRingConfig(ring, tuple(ideals))
    assume(sm.validate(config).ok)
    for i in range(config.n):
        assert_partition_certified(sm.partition_of_unity(i, config), config)


def test_partition_needs_two_ideals(R2):
    config = SmearedRingConfig(R2, (Ideal(R2, (R2.var("x"),)),))
    with pytest.raises(ValueError):
        sm.partition_of_unity(0, config)


def test_partition_names_non_coprime_pair(R2):
    x = R2.var("x")
    config = SmearedRingConfig(
        R2, (Ideal(R2, (x,)), Ideal(R2, (x * (x - 1),)), Ideal(R2, (x - 2,)))
    )
    with pytest.raises(sm.NotCoprimeError) as info:
        sm.partition_of_unity(0, config)
    assert info.value.pair == (0, 1)
    assert isinstance(info.value, ValueError)
    assert "ideals 0 and 1 are not coprime" in str(info.value)

    # the pair at fault is not the first one tried
    config = SmearedRingConfig(
        R2, (Ideal(R2, (x,)), Ideal(R2, (x - 1,)), Ideal(R2, (x * (x - 2),)))
    )
    with pytest.raises(sm.NotCoprimeError) as info:
        sm.partition_of_unity(0, config)
    assert info.value.pair == (0, 2)
    assert "ideals 0 and 2 are not coprime" in str(info.value)


def test_verdicts_three_lines(three_lines):
    v = sm.verdicts(three_lines)
    assert not v.noetherian
    assert v.depicted_by_S
    assert v.per_ideal_dims == (1, 1, 1)
    # the dimensions live in one field, and `verdicts` is the one entry
    # point; the old copy and aliases are gone
    assert not hasattr(v, "gdim_lower_bounds")
    assert not hasattr(sm, "noetherian_verdict")
    assert not hasattr(sm, "depiction_verdict")


def test_locus_examples(three_lines):
    assert sm.locus_member([3, 5], three_lines).in_locus
    report = sm.locus_member([0, 7], three_lines)
    assert not report.in_locus
    assert report.evidence[0].on_variety
    assert not report.evidence[1].on_variety
    report = sm.locus_member([1, -2], three_lines)
    assert not report.in_locus
    assert report.evidence[1].on_variety
    with pytest.raises(ValueError):
        sm.locus_member([1], three_lines)


def test_locus_false_iff_on_some_zero_set(three_lines, R2):
    rng = random.Random(71)
    for _ in range(40):
        if rng.random() < 0.4:
            point = [Fraction(rng.choice([0, 1, 2])), Fraction(rng.randint(-5, 5))]
        else:
            point = [
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            ]
        report = sm.locus_member(point, three_lines)
        on_some = any(
            all(g.evaluate(point) == 0 for g in ideal.generators)
            for ideal in three_lines.ideals
        )
        assert report.in_locus == (not on_some)


def test_chain_witness_vertical_line(three_lines, R2):
    w = sm.chain_witness(0, 8, three_lines)
    assert w.h == R2.var("y")
    assert w.g == R2.var("x")
    assert w.length == 8
    assert [str(nf) for nf in w.evidence] == [
        "1", "y", "y^2", "y^3", "y^4", "y^5", "y^6", "y^7", "y^8"
    ]


def test_chain_witness_hyperbola(R2):
    x, y = R2.var("x"), R2.var("y")
    config = SmearedRingConfig(R2, (Ideal(R2, (x * y - 1,)),))
    w = sm.chain_witness(0, 10, config)
    assert w.h == x
    assert len(w.evidence) == 11


def test_chain_witness_dim_zero_fails(R2, monkeypatch):
    def no_elimination(self, keep):
        raise AssertionError("every variable has a pure-power lead; nothing to eliminate")

    # the leads alone show dimension 0
    monkeypatch.setattr(Ideal, "eliminate", no_elimination)
    x, y = R2.var("x"), R2.var("y")
    config = SmearedRingConfig(R2, (Ideal(R2, (x**2 - x, y)),))
    with pytest.raises(sm.NoChainError):
        sm.chain_witness(0, 5, config)


def test_chain_witness_arg_checks(three_lines):
    with pytest.raises(ValueError):
        sm.chain_witness(0, -1, three_lines)
    with pytest.raises(IndexError):
        sm.chain_witness(5, 3, three_lines)


def test_chain_witness_negative_length_is_typed(three_lines):
    with pytest.raises(sm.NegativeLengthError, match=r"^chain length must be non-negative$") as e:
        sm.chain_witness(0, -3, three_lines)
    assert e.value.length == -3


def test_r_basis_degree_zero(three_lines, R2):
    basis = sm.r_basis(0, three_lines)
    assert len(basis) == 1
    assert basis[0].is_constant()
    with pytest.raises(ValueError):
        sm.r_basis(-1, three_lines)


def test_r_basis_negative_degree_is_typed(three_lines):
    with pytest.raises(sm.NegativeDegreeError, match=r"^degree bound must be non-negative$") as e:
        sm.r_basis(-2, three_lines)
    assert e.value.degree == -2


def test_r_basis_members_and_monotone(three_lines):
    prev = 0
    for d in range(6):
        basis = sm.r_basis(d, three_lines)
        assert len(basis) >= prev
        prev = len(basis)
        for p in basis:
            assert sm.member(p, three_lines).member


def lines_config():
    ring = PolyRing(("x", "y"))
    x = ring.var("x")
    return SmearedRingConfig(ring, tuple(Ideal(ring, (x - c,)) for c in range(3)))


def curves_config():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = (ring.var(v) for v in "xyz")
    return SmearedRingConfig(
        ring, (Ideal(ring, (x, y)), Ideal(ring, (y - x**2 - 1, z - x**3)))
    )


# the oracle's truncated ideal slices only grow with the multiplier bound, so
# its dimension is a lower bound on the true one; on the curves the default
# bound (d + 7) would cost half a minute, and d + 3 (the largest generator
# degree) already lets every multiplier reach degree d
@pytest.mark.parametrize(
    "make,multiplier_slack", [(lines_config, None), (curves_config, 3)], ids=["lines", "curves"]
)
def test_incremental_r_basis_matches_oracle(make, multiplier_slack):
    config = make()
    gens = [ideal.generators for ideal in config.ideals]
    for d in range(7):
        bound = None if multiplier_slack is None else d + multiplier_slack
        basis = sm.r_basis(d, config)
        assert len(basis) == oracle_r_slice_dim(gens, config.ring, d, bound)
        for p in basis:
            assert sm.member(p, config).member


# r_basis builds its elements through the unchecked Polynomial._new, so each
# must store exactly what the checked constructor makes of its terms
@pytest.mark.parametrize("make", [lines_config, four_curves_config], ids=["lines", "curves"])
def test_r_basis_elements_are_canonical(make):
    config = make()
    for d in range(7):
        for p in sm.r_basis(d, config):
            checked = Polynomial(config.ring, p.terms)
            assert p == checked and hash(p) == hash(checked)
            (ints, content), (ref_ints, ref_content) = p.integer_form(), checked.integer_form()
            assert list(ints.items()) == list(ref_ints.items()) and content == ref_content
            assert content > 0 and gcd(*ints.values()) == 1


@pytest.mark.parametrize("make", [lines_config, curves_config], ids=["lines", "curves"])
def test_incremental_chain_evidence(make):
    config = make()
    for i, ideal in enumerate(config.ideals):
        w = sm.chain_witness(i, 6, config)
        assert len(w.evidence) == 7
        for j, nf in enumerate(w.evidence):
            assert nf == ideal.normal_form(w.h**j)


# (config, h per ideal): h is the first variable that is no power of a basis
# lead, read with no elimination; elimination stays the oracle that I_i meets
# QQ[h] only in 0
@pytest.mark.parametrize(
    "make,directions",
    [(four_curves_config, ("z", "z", "x", "y")), (lines_config, ("y", "y", "y"))],
    ids=["curves", "lines"],
)
def test_chain_direction_from_leads(make, directions, monkeypatch):
    config = make()
    ring = config.ring
    eliminate = Ideal.eliminate
    calls = []

    def counting(self, keep):
        calls.append(keep)
        return eliminate(self, keep)

    monkeypatch.setattr(Ideal, "eliminate", counting)
    for i, ideal in enumerate(config.ideals):
        h = sm.chain_witness(i, 3, config).h
        assert calls == []
        leads = ideal.groebner().leading_monomials()
        j = next(j for j in range(ring.nvars) if all(sum(m) != m[j] for m in leads))
        assert h == ring.var(ring.variables[j]) == ring.var(directions[i])
        assert ideal.eliminate({j}).is_zero()
        calls.clear()


# random ideals in 2 or 3 variables: term maps of up to two generators of any
# shape, and per variable maybe a generator x_j^e + c, which makes finite and
# maximal quotients common
_random_ideals = st.integers(2, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.dictionaries(
                st.tuples(*[st.integers(0, 3)] * n),
                st.integers(1, 4) | st.integers(-4, -1),
                min_size=1,
                max_size=4,
            ),
            max_size=2,
        ),
        st.lists(
            st.none() | st.tuples(st.integers(1, 2), st.integers(-2, 2)), min_size=n, max_size=n
        ),
    )
)


def _ideal_from(case):
    nvars, maps, univariate = case
    ring = PolyRing(("x", "y", "z")[:nvars])
    for j, pick in enumerate(univariate):
        if pick is not None:
            e, c = pick
            maps = maps + [{tuple(e * (t == j) for t in range(nvars)): 1, (0,) * nvars: c}]
    return Ideal(ring, tuple(Polynomial(ring, terms) for terms in maps))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_random_ideals)
def test_lead_readings_agree(case):
    ideal = _ideal_from(case)
    assume(ideal.generators and not ideal.contains_one())
    config = SmearedRingConfig(ideal.ring, (ideal,))
    finite = None not in ideal.groebner().pure_powers()
    vdim = ideal.quotient_vdim()
    assert finite == (ideal.krull_dim() == 0) == (vdim is not sm.INFINITE)
    maximal = "maximal" in [v.kind for v in sm.validate(config).violations]
    assert maximal == (vdim == 1)
    if finite:
        with pytest.raises(sm.NoChainError):
            sm.chain_witness(0, 4, config)
        return
    w = sm.chain_witness(0, 4, config)
    for k, nf in enumerate(w.evidence):
        assert nf == w.h**k == ideal.normal_form(w.h**k)


def test_corollary_configs(R2):
    x, y = R2.var("x"), R2.var("y")
    single_line = SmearedRingConfig(R2, (Ideal(R2, (x,)),))
    v = sm.verdicts(single_line)
    assert not v.noetherian and v.depicted_by_S

    two_points = SmearedRingConfig(R2, (Ideal(R2, (x**2 - x, y)),))
    v = sm.verdicts(two_points)
    assert v.noetherian and not v.depicted_by_S

    mixed = SmearedRingConfig(
        R2, (Ideal(R2, (x**2 - x, y)), Ideal(R2, (y - 1,)))
    )
    assert sm.validate(mixed).ok
    v = sm.verdicts(mixed)
    assert not v.noetherian and not v.depicted_by_S


def test_constancy_check(three_lines, R2):
    x, y = R2.var("x"), R2.var("y")
    f = x * (x - 1) * (x - 2) * y + 7
    report = sm.smeared_constancy_check(
        f, 0, [(0, 0), (0, 1), (0, -5)], three_lines
    )
    assert report.ok
    assert report.expected == 7
    assert report.values == (7, 7, 7)

    rng = random.Random(73)
    points = [(2, Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(6)]
    report = sm.smeared_constancy_check(x, 2, points, three_lines)
    assert report.ok and report.expected == 2

    with pytest.raises(ValueError):
        sm.smeared_constancy_check(f, 0, [(1, 0)], three_lines)


def test_constancy_point_off_zero_set_is_typed(three_lines, R2):
    x = R2.var("x")
    with pytest.raises(
        sm.OffZeroSetError,
        match=r"^point 1 is not on the zero set of ideal 0: generator x does not vanish there$",
    ) as e:
        sm.smeared_constancy_check(x + 7, 0, [(0, 3), (1, 0)], three_lines)
    assert (e.value.point, e.value.index, e.value.generator) == (1, 0, x)
    assert e.value.render(1) == "point 2 is not on the zero set of ideal 1: generator x does not vanish there"


def test_refusals_name_their_ideal_from_a_base(three_lines, R2):
    # the texts number from 0, as the API does; `render(1)` is the CLI's
    x, y = R2.var("x"), R2.var("y")
    with pytest.raises(
        sm.NotMemberError,
        match=r"^polynomial is not in the subring: normal form modulo ideal 0 is y$",
    ) as e:
        sm.evaluate_at_smeared_point(y, 2, three_lines)
    assert (e.value.index, e.value.remainder) == (0, y)
    assert e.value.render(1) == "polynomial is not in the subring: normal form modulo ideal 1 is y"

    config = SmearedRingConfig(R2, (Ideal(R2, (x - 1,)), Ideal(R2, (x, y))))
    with pytest.raises(sm.NoChainError, match=r"^dim of the quotient by ideal 1 is 0;") as e:
        sm.chain_witness(1, 3, config)
    assert e.value.index == 1
    assert e.value.render(1).startswith("dim of the quotient by ideal 2 is 0;")

    config = SmearedRingConfig(R2, (Ideal(R2, (x,)), Ideal(R2, (x - y**2,))))
    tail = "are not coprime (their zero sets meet), so no partition of unity separates ideal"
    with pytest.raises(sm.NotCoprimeError) as e:
        sm.partition_of_unity(0, config)
    assert e.value.pair == (0, 1)
    assert str(e.value) == f"ideals 0 and 1 {tail} 0 from the rest"
    assert e.value.render(1) == f"ideals 1 and 2 {tail} 1 from the rest"


def _counting(monkeypatch, module, name):
    """Count calls to `module.name` through a wrapper; returns the list of
    calls' first arguments."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("make", [lines_config, curves_config], ids=["lines", "curves"])
def test_r_basis_divides_each_monomial_once(make, monkeypatch):
    divisions = _counting(monkeypatch, groebner, "divide")
    once = make()
    top = sm.r_basis(6, once)
    alone = len(divisions)

    divisions.clear()
    ascending = make()
    bases = [sm.r_basis(d, ascending) for d in range(7)]
    assert len(divisions) == alone
    assert bases[-1] == top

    # every normal form is in the tables now: a repeat divides nothing
    divisions.clear()
    assert sm.r_basis(6, ascending) == top
    assert sm.r_basis(3, ascending) == bases[3]
    assert divisions == []

    descending = make()
    assert [sm.r_basis(d, descending) for d in range(6, -1, -1)] == bases[::-1]


@pytest.mark.parametrize("make", [lines_config, four_curves_config], ids=["lines", "curves"])
@pytest.mark.parametrize("sliced", [False, True], ids=["cold", "after_slices"])
def test_chain_evidence_is_read_off_the_leads(make, sliced, monkeypatch):
    # no lead divides a power of h, so the evidence h^k needs no division
    # and no rank test, whether or not slices have filled the tables of
    # normal forms; the bases come first, as Buchberger divides S-pairs
    config = make()
    if sliced:
        sm.r_basis(5, config)
    for ideal in config.ideals:
        ideal.groebner()
    divisions = _counting(monkeypatch, groebner, "divide")
    rank_adds = _counting(monkeypatch, linalg.IncrementalRank, "add")
    for i in range(config.n):
        for length in (1, 6, 50):
            w = sm.chain_witness(i, length, config)
            assert w.evidence == tuple(w.h**k for k in range(length + 1))
    assert divisions == [] and rank_adds == []


def test_validate_builds_each_pair_sum_once(monkeypatch):
    def no_coprime(self, other):
        raise AssertionError("validate built a fresh pair sum")

    monkeypatch.setattr(Ideal, "is_coprime", no_coprime)
    config = four_curves_config()
    bases = _counting(monkeypatch, ideals_module, "groebner_basis")
    assert sm.validate(config).ok
    n = config.n
    # one basis per ideal and one per unordered pair, in the first call only
    assert len(bases) == n + n * (n - 1) // 2
    assert sm.validate(config).ok
    assert len(bases) == n + n * (n - 1) // 2
    # one handle per unordered pair, keyed i < j, I_i's generators first
    assert len(config.pair_sums) == n * (n - 1) // 2
    for (i, j), pair_sum in config.pair_sums.items():
        assert i < j
        assert pair_sum.generators == config.ideals[i].generators + config.ideals[j].generators


def test_validate_report_is_computed_once(monkeypatch):
    # the Jacobian criterion builds a basis of I + J_c per ideal; the report
    # is kept on the configuration, so a second call builds none
    base = four_curves_config()
    config = SmearedRingConfig(base.ring, base.ideals, check_radicality=True)
    bases = _counting(monkeypatch, ideals_module, "groebner_basis")
    report = sm.validate(config)
    assert report.ok and report.radicality_checked and bases
    bases.clear()
    assert sm.validate(config) is report
    assert bases == []


def test_partitions_reuse_the_validated_pair_sums(monkeypatch):
    config = four_curves_config()
    bases = _counting(monkeypatch, ideals_module, "groebner_basis")
    assert sm.validate(config).ok
    for i in range(config.n):
        w = sm.partition_of_unity(i, config)
        assert w.a + w.b == config.ring.one()
    # one basis per ideal and one per unordered pair: I_i + I_j serves both
    # partition i and partition j
    n = config.n
    assert len(bases) == n + n * (n - 1) // 2 == 10


def katsura3_config():
    return load_problem(str(Path(__file__).parent / "data" / "katsura3.json"))[0]


# the four curves of curves.json, three lines and Katsura-3 with a linear companion
THREE_CONFIGS = pytest.mark.parametrize(
    "make", [four_curves_config, lines_config, katsura3_config], ids=["curves", "lines", "katsura3"]
)


@THREE_CONFIGS
def test_unit_certificate_is_the_basis_row(make):
    # a pair sum's reduced basis is [1], so its transform row is the
    # certificate that dividing 1 by the basis and lifting the quotients gives
    config = make()
    for pair_sum in config.pair_sums.values():
        gb = pair_sum.groebner()
        want = gb.lift_to_generators(gb.divide(config.ring.one()))
        assert pair_sum.unit_certificate() == want
        assert sum(c * g for c, g in zip(want, pair_sum.generators)) == config.ring.one()


@THREE_CONFIGS
def test_eliminate_leaves_the_cached_basis(make):
    config = make()
    ring = config.ring
    kept = range(1, ring.nvars)
    for ideal in config.ideals:
        gb = ideal.groebner()
        contraction = ideal.eliminate(kept)
        assert ideal.groebner() is gb
        assert all(0 not in g.support() for g in contraction.generators)
        # an elimination before the first request is not the ideal's basis
        fresh = Ideal(ring, ideal.generators)
        fresh.eliminate(kept)
        assert fresh.groebner().ring == ring
        assert fresh.groebner().elements == gb.elements


def test_shared_tables_under_threads():
    want = {}
    for i in range(2):
        want["basis", i] = sm.r_basis(4 + i, curves_config())
        want["chain", i] = sm.chain_witness(i, 7, curves_config())
    config = curves_config()
    results, errors = [], []

    def work(t):
        try:
            for step in range(4):
                k = (t + step) % 4
                if k < 2:
                    results.append((("basis", k), sm.r_basis(4 + k, config)))
                else:
                    results.append((("chain", k - 2), sm.chain_witness(k - 2, 7, config)))
        except Exception as e:  # reported after the join
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert len(results) == 32
    for key, got in results:
        assert got == want[key], key

