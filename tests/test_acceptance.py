"""End-to-end acceptance suite.

One test per criterion, each a single pass/fail line under `pytest -v`.
Every assertion is exact; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

import pytest

import smeared.groebner as groebner
from smeared import (
    Ideal,
    NoChainError,
    Polynomial,
    PolyRing,
    SmearedRingConfig,
    chain_witness,
    groebner_basis,
    locus_member,
    member,
    partition_of_unity,
    r_basis,
    validate,
    verdicts,
)
from oracle import oracle_member, oracle_r_slice_dim
from smeared.poly import monomials_up_to_degree, sum_of_products


def rand_poly(rng, ring, deg, nterms=3):
    monos = monomials_up_to_degree(ring.nvars, deg)
    terms = {
        m: Fraction(rng.randint(-4, 4))
        for m in rng.sample(monos, min(nterms, len(monos)))
    }
    return Polynomial(ring, terms)


def rand_nonzero(rng, ring, deg, nterms=3):
    while True:
        f = rand_poly(rng, ring, deg, nterms)
        if not f.is_zero():
            return f


def three_lines_config():
    ring = PolyRing(("x", "y"))
    x = ring.var("x")
    ideals = (Ideal(ring, (x,)), Ideal(ring, (x - 1,)), Ideal(ring, (x - 2,)))
    return SmearedRingConfig(ring, ideals)


def test_criterion_1_three_lines_end_to_end():
    started = time.perf_counter()
    config = three_lines_config()
    report = validate(config)
    v = verdicts(config)
    elapsed = time.perf_counter() - started

    assert report.ok
    assert v.noetherian is False
    assert v.depicted_by_S is True
    assert v.per_ideal_dims == (1, 1, 1)
    assert elapsed < 1.0


def test_criterion_2_membership_suite():
    config = three_lines_config()
    ring = config.ring
    x = ring.var("x")

    cert = member(x, config)
    assert cert.member and cert.constants == (0, 1, 2)
    assert not member(ring.var("y"), config).member

    vanishing = x * (x - 1) * (x - 2)
    rng = random.Random(101)
    for _ in range(25):
        f = rand_poly(rng, ring, deg=3, nterms=4)
        cert = member(vanishing * f, config)
        assert cert.member and cert.constants == (0, 0, 0)

    basis = r_basis(5, config)
    for _ in range(100):
        u = sum(
            (b.scale(Fraction(rng.randint(-2, 2))) for b in basis), ring.zero()
        )
        v = sum(
            (b.scale(Fraction(rng.randint(-2, 2))) for b in basis), ring.zero()
        )
        cu, cv = member(u, config), member(v, config)
        assert cu.member and cv.member
        csum = member(u + v, config)
        cprod = member(u * v, config)
        assert csum.member and cprod.member
        assert csum.constants == tuple(a + b for a, b in zip(cu.constants, cv.constants))
        assert cprod.constants == tuple(a * b for a, b in zip(cu.constants, cv.constants))


def test_criterion_3_graded_slice_dimensions():
    config = three_lines_config()
    gens = [ideal.generators for ideal in config.ideals]
    for d, expected in ((0, 1), (3, 4), (4, 6)):
        assert len(r_basis(d, config)) == expected
        assert oracle_r_slice_dim(gens, config.ring, d) == expected

    started = time.perf_counter()
    r_basis(6, config)
    assert time.perf_counter() - started < 5.0


def test_criterion_4_partition_of_unity():
    config = three_lines_config()
    one = config.ring.one()

    def combine(cofactors, ideal):
        return sum_of_products(config.ring, [(1, c, g) for c, g in zip(cofactors, ideal.generators)])
    for i in range(config.n):
        w = partition_of_unity(i, config)
        assert w.a + w.b == one
        assert config.ideals[i].normal_form(w.a).is_zero()
        for j in range(config.n):
            if j != i:
                assert config.ideals[j].normal_form(w.b).is_zero()
        # the cofactors combine the generators to the pieces they certify
        assert combine(w.a_cofactors, config.ideals[i]) == w.a
        for j in range(config.n):
            if j != i:
                assert combine(w.b_cofactors[j], config.ideals[j]) == w.b
        # membership, an oracle here, reads the constants the identities force
        a_cert, b_cert = member(w.a, config), member(w.b, config)
        assert a_cert.member and b_cert.member
        for j in range(config.n):
            assert a_cert.constants[j] == (0 if j == i else 1)
            assert b_cert.constants[j] == (1 if j == i else 0)


def test_criterion_5_chain_witnesses():
    ring = PolyRing(("x", "y"))
    x, y = ring.var("x"), ring.var("y")

    w = chain_witness(0, 25, three_lines_config())
    assert w.h == y and w.length == 25
    assert len(w.evidence) == 26

    hyperbola = SmearedRingConfig(ring, (Ideal(ring, (x * y - 1,)),))
    w = chain_witness(0, 25, hyperbola)
    assert w.h == x and w.length == 25

    points = SmearedRingConfig(ring, (Ideal(ring, (x**2 - x, y)),))
    with pytest.raises(NoChainError):
        chain_witness(0, 1, points)

    # chain success is exactly positive-dimensionality of the zero set
    rng = random.Random(103)
    kept = 0
    while kept < 50:
        gens = [rand_nonzero(rng, ring, deg=3) for _ in range(rng.choice((1, 2)))]
        ideal = Ideal(ring, tuple(gens))
        if ideal.contains_one():
            continue
        kept += 1
        config = SmearedRingConfig(ring, (ideal,))
        try:
            chain_witness(0, 5, config)
            succeeded = True
        except NoChainError:
            succeeded = False
        assert succeeded == (ideal.krull_dim() >= 1)


def test_criterion_6_single_point_verdicts():
    ring = PolyRing(("x", "y"))
    x, y = ring.var("x"), ring.var("y")

    line = SmearedRingConfig(ring, (Ideal(ring, (x,)),))
    v = verdicts(line)
    assert v.noetherian is False and v.depicted_by_S is True

    pair = SmearedRingConfig(ring, (Ideal(ring, (x**2 - x, y)),))
    v = verdicts(pair)
    assert v.noetherian is True and v.depicted_by_S is False

    mixed = SmearedRingConfig(
        ring, (Ideal(ring, (x**2 - x, y)), Ideal(ring, (y - 1,)))
    )
    assert validate(mixed).ok
    v = verdicts(mixed)
    assert v.noetherian is False and v.depicted_by_S is False
    assert v.per_ideal_dims == (0, 1)


def test_criterion_7_locus_membership():
    config = three_lines_config()
    rng = random.Random(107)
    for _ in range(100):
        point = tuple(
            Fraction(rng.randint(-3, 4), rng.choice((1, 1, 2))) for _ in range(2)
        )
        on_some_variety = any(
            all(g.evaluate(point) == 0 for g in ideal.generators)
            for ideal in config.ideals
        )
        assert locus_member(point, config).in_locus == (not on_some_variety)

    assert locus_member((3, 5), config).in_locus
    assert not locus_member((0, 7), config).in_locus
    assert not locus_member((1, -2), config).in_locus


def test_criterion_8_engine_soundness():
    # conftest turns on per-call division checking for the whole suite: every
    # normal form recomputes the identity f = sum(q_i d_i) + r exactly
    assert groebner.VERIFY_DIVISION is True

    ring = PolyRing(("x", "y"))
    rng = random.Random(109)
    for _ in range(10):
        gens = [rand_nonzero(rng, ring, deg=3) for _ in range(rng.randint(2, 3))]
        base = groebner_basis(gens).elements
        for _ in range(20):
            shuffled = rng.sample(gens, len(gens))
            scaled = [
                g.scale(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))) for g in shuffled
            ]
            assert groebner_basis(scaled).elements == base

    for _ in range(200):
        gens = [rand_poly(rng, ring, deg=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        f = rand_poly(rng, ring, deg=3)
        bound = f.degree() + max(g.degree() for g in gens) + 4
        assert oracle_member(f, gens, bound) == Ideal(ring, tuple(gens)).contains(f)


def test_criterion_9_dimension_cross_validation():
    # positive dimension is equivalent to some variable having a zero
    # elimination ideal; no radicality assumption enters on either side
    rng = random.Random(113)
    rings = (PolyRing(("x", "y")), PolyRing(("x", "y", "z")))
    kept = 0
    while kept < 50:
        ring = rng.choice(rings)
        gens = tuple(
            rand_nonzero(rng, ring, deg=2, nterms=rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        )
        ideal = Ideal(ring, gens)
        if ideal.contains_one():
            continue
        kept += 1
        has_free_variable = any(
            ideal.eliminate((v,)).is_zero() for v in range(ring.nvars)
        )
        assert (ideal.krull_dim() >= 1) == has_free_variable
