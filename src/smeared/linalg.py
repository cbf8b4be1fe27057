"""Exact linear algebra over the rationals, on sparse rows.

A row is a `{column: int}` dict of its nonzero entries, and the results come
back as `{column: Fraction}` dicts, so no zero is ever stored.  Rows are
eliminated fraction-free (Bareiss 1968; the sparse-row form is the one F4
uses): a row update `b*row - a*pivot` stays integral, and dividing every
updated row by the gcd of its entries keeps the numbers small.  `Fraction`s
come back only in the final back-substitution.  A reduced row echelon form is
unique, so neither the order of the rows nor the choice of pivot rows changes
the result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Hashable, Iterable, List, Sequence

Row = Dict[Hashable, int]


def _primitive(row: Row) -> Row:
    g = gcd(*row.values())
    if g == 1:
        return row
    return {col: v // g for col, v in row.items()}


def _eliminate(row: Row, col, pivot: Row) -> Row:
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


def rref(rows: Iterable[Row]) -> tuple:
    """(reduced rows, pivot columns) of the matrix with the given rows.

    Rows are `{column: int}` maps of nonzero entries over mutually comparable
    columns.  There is one reduced row per pivot, in ascending pivot order,
    as a `{column: Fraction}` map whose pivot entry is 1; zero rows are
    dropped.  Forward elimination is sparse and fraction-free; the pivot for
    each column is the shortest remaining row that is nonzero there.
    """
    # each row waits in the bucket of its leading column; once the columns
    # left of c are eliminated, the rows nonzero at c are exactly bucket c
    buckets: Dict[Hashable, List[Row]] = {}
    for row in rows:
        if row:
            buckets.setdefault(min(row), []).append(_primitive(row))
    echelon: List[Row] = []
    pivots: list = []
    while buckets:
        col = min(buckets)
        bucket = buckets.pop(col)
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
    reduced: Dict[Hashable, Dict[Hashable, Fraction]] = {}
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
    return [reduced[p] for p in pivots], pivots


def kernel_basis(rows: Sequence[Row], ncols: int) -> list:
    """Canonical basis of the null space of the matrix with `ncols` columns.

    Rows are `{column: int}` maps of nonzero entries over the columns
    `0..ncols-1`; any other column raises `ValueError`.  There is one
    `{column: Fraction}` vector per free column, in ascending free-column
    order: entry 1 at the free column, and the pivot entries that cancel it.
    """
    for i, row in enumerate(rows):
        if row and (min(row) < 0 or max(row) >= ncols):
            raise ValueError(f"row {i} has a column outside 0..{ncols - 1}")
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = {f: {f: Fraction(1)} for f in range(ncols) if f not in pivot_set}
    # a reduced row is zero at every other pivot, so its other entries all
    # sit in free columns
    for p, row in zip(pivots, reduced):
        for c, x in row.items():
            if c != p:
                basis[c][p] = -x
    return list(basis.values())


class IncrementalRank:
    """Streaming independence test over the rationals.

    Feeds rows one at a time; `add` reports whether the row enlarged the
    span of everything fed so far.  A row is a `{column: int}` map of nonzero
    entries, and the columns of all rows fed must be mutually comparable
    (monomials, say).  The span is kept as sparse integer rows in echelon
    form, keyed by their leading column; a new row is reduced against them
    with the same fraction-free step as `rref`.
    """

    def __init__(self):
        self._rows: Dict[Hashable, Row] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, row: Row) -> bool:
        row = _primitive(row)
        while row:
            lead = min(row)
            pivot = self._rows.get(lead)
            if pivot is None:
                self._rows[lead] = row
                return True
            row = _eliminate(row, lead, pivot)
        return False
