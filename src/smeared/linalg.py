"""Exact linear algebra over the rationals, on sparse integer rows.

A row is a `{column: int}` dict of its nonzero entries.  Rows are
eliminated and back-substituted fraction-free (Bareiss 1968; the sparse-row
form is the one F4 uses): a row update `b*row - a*pivot` stays integral, and
dividing every updated row by the gcd of its entries keeps the numbers
small; a kernel vector's content is its one `Fraction`.  A reduced row
echelon form is unique, and so is its primitive integer form with positive
pivots, so the order, scaling and repetition of the rows do not change it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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
    columns.  There is one reduced row per pivot, in ascending pivot order:
    the reduced row echelon form's row as a primitive `{column: int}` map
    with a positive pivot entry; zero rows are dropped.  The pivot for each
    column is the shortest remaining row that is nonzero there.
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

    # back-substitution, last pivot first, so each row clears its later
    # pivot columns with rows that are already fully reduced
    reduced: Dict[Hashable, Row] = {}
    for row, p in zip(reversed(echelon), reversed(pivots)):
        for s in [c for c in row if c in reduced]:
            row = _eliminate(row, s, reduced[s])
        reduced[p] = row if row[p] > 0 else {c: -v for c, v in row.items()}
    return [reduced[p] for p in pivots], pivots


def kernel_basis(rows: Sequence[Row], ncols: int) -> list:
    """Canonical basis of the null space of the matrix with `ncols` columns.

    Rows are `{column: int}` maps of nonzero entries over the columns
    `0..ncols-1`; any other column raises `ValueError`.  There is one vector
    per free column, in ascending free-column order: entry 1 at the free
    column, then the pivot entries that cancel it.  Each comes as the pair
    (primitive `{column: int}` map, positive `Fraction` content) that
    `Polynomial.integer_form` returns.
    """
    for i, row in enumerate(rows):
        if row and (min(row) < 0 or max(row) >= ncols):
            raise ValueError(f"row {i} has a column outside 0..{ncols - 1}")
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    # a reduced row is zero at every other pivot, so its other entries all
    # sit in free columns: (pivot, pivot entry, entry) per row touching f
    touching = {f: [] for f in range(ncols) if f not in pivot_set}
    for p, row in zip(pivots, reduced):
        for c, x in row.items():
            if c != p:
                touching[c].append((p, row[p], x))
    basis = []
    for f, entries in touching.items():
        den = lcm(*[a for _, a, _ in entries])
        vec = {f: den, **{p: -x * (den // a) for p, a, x in entries}}
        g = gcd(*vec.values())
        basis.append(({c: v // g for c, v in vec.items()}, Fraction(g, den)))
    return basis


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
