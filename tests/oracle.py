"""Brute-force cross-checks for the test suite.

Everything here decides questions by degree-bounded linear algebra in the
monomial basis, with its own elimination (sparse fraction-free integer rows
for ranks and membership, `Fraction` Gauss-Jordan for null spaces), so that
it shares no reduction code with the division/basis engine it is checking.
The degree truncation makes `oracle_member` a lower approximation of true
ideal membership; callers pick the bound high enough that answers
stabilize (degree of the candidate plus the largest generator degree plus 4
is the working heuristic, and tests re-check stabilization at two
consecutive bounds where it matters).

Not part of the public API.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from smeared.poly import Polynomial, PolyRing, monomials_up_to_degree


def _eliminate(rows: list) -> list:
    """Gauss-Jordan elimination; returns (pivot column, row) pairs with each
    pivot column holding a lone 1."""
    echelon = []
    for row in rows:
        row = list(row)
        for piv_col, piv_row in echelon:
            if row[piv_col]:
                f = row[piv_col]
                row = [a - f * b for a, b in zip(row, piv_row)]
        for col, x in enumerate(row):
            if x:
                inv = 1 / x
                row = [a * inv for a in row]
                for k, (pc, pr) in enumerate(echelon):
                    if pr[col]:
                        f = pr[col]
                        echelon[k] = (pc, [a - f * b for a, b in zip(pr, row)])
                echelon.append((col, row))
                break
    return echelon


def _integer_row(row: list) -> dict:
    """A dense row of rationals as a sparse {column: int} row with the same
    span: the entries times the lcm of their denominators."""
    entries = {j: Fraction(x) for j, x in enumerate(row) if x}
    den = lcm(*(x.denominator for x in entries.values()))
    return {j: int(x * den) for j, x in entries.items()}


def _reduce_row(row: dict, echelon: dict) -> dict:
    """Fraction-free forward reduction of a sparse integer row against an
    echelon {pivot column: row whose leftmost entry is there}: while the
    row's leftmost column holds a pivot, row <- a * row - b * pivot row
    clears it, and the gcd of the entries is divided out."""
    while row:
        col = min(row)
        pivot = echelon.get(col)
        if pivot is None:
            break
        a, b = pivot[col], row[col]
        row = {j: a * v for j, v in row.items()}
        for j, v in pivot.items():
            s = row.get(j, 0) - b * v
            if s:
                row[j] = s
            else:
                del row[j]
        g = gcd(*row.values())
        if g > 1:
            row = {j: v // g for j, v in row.items()}
    return row


def _echelon(rows: list) -> dict:
    echelon = {}
    for row in rows:
        row = _reduce_row(_integer_row(row), echelon)
        if row:
            echelon[min(row)] = row
    return echelon


def _rank(rows: list) -> int:
    return len(_echelon(rows))


def _nullspace(rows: list, ncols: int) -> list:
    """Basis of {v : A v = 0} for the matrix with the given rows."""
    echelon = sorted(_eliminate(rows), key=lambda e: e[0])
    pivots = [col for col, _ in echelon]
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for col, row in echelon:
            v[col] = -row[free]
        basis.append(v)
    return basis


def _vector(f: Polynomial, index: dict, ncols: int) -> list:
    v = [Fraction(0)] * ncols
    for m, c in f.terms.items():
        v[index[m]] = c
    return v


def _slice_rows(generators: Sequence[Polynomial], d: int, index: dict, ncols: int) -> list:
    """Coefficient vectors of every product (monomial * generator) of total
    degree at most d: a spanning set of the degree slice of the ideal, up to
    the multiplier-degree truncation."""
    if not generators:
        return []
    ring = generators[0].ring
    rows = []
    for g in generators:
        if g.is_zero():
            continue
        room = d - g.degree()
        if room < 0:
            continue
        for m in monomials_up_to_degree(ring.nvars, room):
            rows.append(_vector(g.mul_term(m, Fraction(1)), index, ncols))
    return rows


def _monomial_index(nvars: int, d: int):
    monos = sorted(monomials_up_to_degree(nvars, d))
    return {m: i for i, m in enumerate(monos)}, len(monos)


def oracle_member(f: Polynomial, generators: Sequence[Polynomial], d: int) -> bool:
    """Is f in the span of {m * g : deg(m * g) <= d}?"""
    if f.degree() > d:
        raise ValueError(f"degree overflow: candidate has degree {f.degree()} > {d}")
    index, ncols = _monomial_index(f.ring.nvars, d)
    rows = _slice_rows(generators, d, index, ncols)
    target = _integer_row(_vector(f, index, ncols))
    return not _reduce_row(target, _echelon(rows))


def oracle_span_rank(polys: Sequence[Polynomial], gb) -> int:
    """Rank over QQ of the normal forms of the given polynomials."""
    nfs = [gb.normal_form(p) for p in polys]
    monos = sorted({m for nf in nfs for m in nf.terms})
    index = {m: i for i, m in enumerate(monos)}
    return _rank([_vector(nf, index, len(monos)) for nf in nfs])


def oracle_r_slice_dim(
    ideal_generators: Sequence[Sequence[Polynomial]],
    ring: PolyRing,
    d: int,
    multiplier_bound: int = None,
) -> int:
    """Dimension of {f : deg f <= d, f constant modulo every ideal}.

    Solves directly for the coefficient vector of f together with one
    unknown constant per ideal: f minus its constant must fall in the
    degree-bounded slice of each ideal, which is a linear condition (the
    vector has to be orthogonal to the slice's null space).
    """
    max_gen_deg = max(
        (g.degree() for gens in ideal_generators for g in gens if not g.is_zero()),
        default=0,
    )
    if multiplier_bound is None:
        multiplier_bound = d + max_gen_deg + 4
    if multiplier_bound < d:
        raise ValueError("multiplier bound below the candidate degree")
    index, ncols = _monomial_index(ring.nvars, multiplier_bound)
    const = index[(0,) * ring.nvars]
    unknown_monos = sorted(monomials_up_to_degree(ring.nvars, d))
    n = len(ideal_generators)
    constraints = []
    for i, gens in enumerate(ideal_generators):
        rows = _slice_rows(gens, multiplier_bound, index, ncols)
        for nv in _nullspace(rows, ncols):
            row = [nv[index[m]] for m in unknown_monos]
            alphas = [Fraction(0)] * n
            alphas[i] = -nv[const]
            constraints.append(row + alphas)
    return len(unknown_monos) + n - _rank(constraints)
