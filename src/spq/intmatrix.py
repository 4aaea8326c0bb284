"""Sparse integer matrices and exact rank over the rationals.

One step, ``eliminate``, does all elimination: it clears a column's entry
at a pivot row with a column owning that row. When the owner's entry there
is +-1 (a unit pivot, the common case on subgroup lattices) a multiple of
it is subtracted as is; otherwise the column is cross-multiplied with it,
so every intermediate value is an integer, and renormalized by its gcd to
keep coefficients small. Two reductions drive it: ``reduce_columns`` here,
the lowest-pivot column reduction of persistent homology, and the
coboundary pairing of ``homology.betti_numbers``, whose pivot is the
oldest row. Rank is the number of columns left nonzero. No floating point
anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Container
from math import gcd

from .errors import InvariantViolation


class SparseIntMatrix(namedtuple("SparseIntMatrix", "rows cols entries")):
    """Immutable sparse integer matrix as sorted (row, col, value) triples."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[tuple[int, int, int], ...]):
        seen = set()
        for r, c, v in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) out of bounds")
            if v == 0:
                raise ValueError("zero coefficients must not be stored")
            if (r, c) in seen:
                raise ValueError(f"duplicate entry at ({r},{c})")
            seen.add((r, c))
        return super().__new__(cls, rows, cols, entries)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks the entries too
        return cls(*iterable)

    def columns(self) -> list[dict[int, int]]:
        """Every column as a row -> value dict, in one pass over the entries."""
        out: list[dict[int, int]] = [{} for _ in range(self.cols)]
        for r, c, v in self.entries:
            out[c][r] = v
        return out


def eliminate(col: dict[int, int], other: dict[int, int], pivot: int) -> None:
    """Clear col's entry at ``pivot`` with ``other``, in place; other is not modified.

    With o, other's entry at the pivot, equal to +-1 the step is
    col -= (c*o) * other, c being col's entry there: no scaling and no gcd.
    Otherwise col = b*col - a*other, with a/b = c/o in lowest terms, then
    divided by the gcd of its entries. Entries that cancel are deleted.
    """
    o = other[pivot]
    unit = o == 1 or o == -1
    if unit:
        a = col[pivot] * o
    else:
        g = gcd(col[pivot], o)
        a, b = col[pivot] // g, o // g
        if b != 1:
            for r in col:
                col[r] *= b
    for r, v in other.items():
        nv = col.get(r, 0) - a * v
        if nv:
            col[r] = nv
        else:
            del col[r]
    if not unit:
        g = gcd(*col.values())
        if g > 1:
            for r in col:
                col[r] //= g


def reduce_columns(columns: list[dict[int, int]], cleared: Container[int] = frozenset(),
                   degree: int | None = None) -> list[int]:
    """Lowest-pivot reduction; returns each column's low row, or -1.

    Column j is reduced, in order, by the earlier reduced column owning its
    lowest nonzero row (``eliminate``). Only earlier columns are added to
    later ones, so the lows of every prefix of columns are those of the
    prefix alone. Columns listed in ``cleared`` are known to reduce to zero
    and are skipped (low -1). The input columns are not modified. Each step
    must lower the low, as the owner's rows lie at or below it; a step that
    does not raises InvariantViolation, naming the boundary's ``degree``
    when given, instead of looping for ever.
    """
    owner: dict[int, dict[int, int]] = {}
    lows = []
    for j, column in enumerate(columns):
        col = {} if j in cleared else dict(column)
        low = max(col, default=-1)
        while low in owner:
            eliminate(col, owner[low], low)
            fallen = max(col, default=-1)
            if fallen >= low:
                where = "" if degree is None else f" of d_{degree}"
                raise InvariantViolation(
                    f"column {j}{where}: eliminating at pivot row {low} left low {fallen}")
            low = fallen
        if low >= 0:
            owner[low] = col
        lows.append(low)
    return lows


def rank_exact(M: SparseIntMatrix) -> int:
    """Rank of M over the rationals: its nonzero columns after reduction."""
    return sum(low >= 0 for low in reduce_columns(M.columns()))
