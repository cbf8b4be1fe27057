"""Exact linear algebra over the rationals.

Row reduction for ranks and canonical kernel bases.  Rows are kept sparse,
as `{column: int}` dicts scaled to integers, and eliminated fraction-free
(Bareiss 1968; the sparse-row form is the one F4 uses): a row update
`b*row - a*pivot` stays integral, and dividing every updated row by the gcd
of its entries keeps the numbers small.  `Fraction`s come back only in the
final back-substitution.  A reduced row echelon form is unique, so the
choice of pivot rows changes the work but never the result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Sequence

Row = Dict[int, int]

_ZERO = Fraction(0)


def _int_row(vector: Sequence) -> Row:
    """The nonzero entries of `vector`, scaled by the lcm of their
    denominators and divided by the gcd of the result."""
    entries = {}
    for col, x in enumerate(vector):
        q = x if isinstance(x, (int, Fraction)) else Fraction(x)
        if q:
            entries[col] = q
    if not entries:
        return {}
    den = lcm(*(q.denominator for q in entries.values()))
    row = {col: q.numerator * (den // q.denominator) for col, q in entries.items()}
    return _primitive(row)


def _primitive(row: Row) -> Row:
    g = gcd(*row.values())
    if g == 1:
        return row
    return {col: v // g for col, v in row.items()}


def _eliminate(row: Row, col: int, pivot: Row) -> Row:
    """`row` with column `col` cleared by an integer multiple of `pivot`,
    made primitive; both rows are nonzero at `col`."""
    a, b = row[col], pivot[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {c: v * b for c, v in row.items() if c != col}
    for c, v in pivot.items():
        if c != col:
            s = out.get(c, 0) - a * v
            if s:
                out[c] = s
            else:
                out.pop(c, None)
    return _primitive(out) if out else out


def _check_lengths(rows: Sequence[Sequence], ncols: int):
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError(f"row {i} has length {len(row)}, expected {ncols}")


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple:
    """(reduced row echelon form, pivot column indices).

    The form has one row per input row: the pivot rows in pivot order, then
    zero rows.  Forward elimination is sparse and fraction-free; the pivot
    for each column is the shortest remaining row that is nonzero there.
    The reduced row echelon form of a matrix is unique, so that choice does
    not change the result.  Rows of differing lengths raise `ValueError`.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    _check_lengths(rows, ncols)
    # each row waits in the bucket of its leading column; once the columns
    # left of c are eliminated, the rows nonzero at c are exactly bucket c
    buckets: Dict[int, List[Row]] = {}
    for vector in rows:
        row = _int_row(vector)
        if row:
            buckets.setdefault(min(row), []).append(row)
    echelon: List[Row] = []
    pivots: List[int] = []
    for col in range(ncols):
        bucket = buckets.pop(col, None)
        if not bucket:
            continue
        pivot = min(bucket, key=len)
        for row in bucket:
            if row is not pivot:
                row = _eliminate(row, col, pivot)
                if row:
                    buckets.setdefault(min(row), []).append(row)
        echelon.append(pivot)
        pivots.append(col)

    # back-substitution, last pivot first, so each row subtracts only rows
    # that are already fully reduced
    reduced: Dict[int, Dict[int, Fraction]] = {}
    for row, p in zip(reversed(echelon), reversed(pivots)):
        lead = row[p]
        out = {c: Fraction(v, lead) for c, v in row.items()}
        for s in [c for c in out if c in reduced]:
            f = out[s]
            for c, v in reduced[s].items():
                x = out.get(c, 0) - f * v
                if x:
                    out[c] = x
                else:
                    del out[c]
        reduced[p] = out

    mat = []
    for p in pivots:
        dense = [_ZERO] * ncols
        for c, v in reduced[p].items():
            dense[c] = v
        mat.append(dense)
    mat.extend([_ZERO] * ncols for _ in range(len(rows) - len(pivots)))
    return mat, pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


def kernel_basis(rows: Sequence[Sequence[Fraction]], ncols: int) -> list:
    """Canonical basis of the null space of the matrix.

    One vector per free column, in ascending free-column order: entry 1 at the
    free column, pivot entries filled in from the reduced rows, zeros
    elsewhere.  Rows whose length is not `ncols` raise `ValueError`.
    """
    _check_lengths(rows[:1], ncols)  # rref checks the other rows against row 0
    mat, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [_ZERO] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            if mat[r][f]:
                v[p] = -mat[r][f]
        basis.append(v)
    return basis


class IncrementalRank:
    """Streaming independence test over the rationals.

    Feeds vectors one at a time; `add` reports whether the vector enlarged the
    span of everything fed so far.  The span is kept as sparse integer rows
    in echelon form, keyed by their leading column; a new vector is reduced
    against them with the same fraction-free step as `rref`.  Every vector
    must have the length of the first one, or `add` raises `ValueError`.
    """

    def __init__(self):
        self._rows: Dict[int, Row] = {}
        self._length = None

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, vector: Sequence[Fraction]) -> bool:
        if self._length is None:
            self._length = len(vector)
        elif len(vector) != self._length:
            raise ValueError(
                f"vector has length {len(vector)}, expected {self._length}"
            )
        row = _int_row(vector)
        while row:
            lead = min(row)
            pivot = self._rows.get(lead)
            if pivot is None:
                self._rows[lead] = row
                return True
            row = _eliminate(row, lead, pivot)
        return False
