"""Exact arithmetic over prime fields GF(p) and ranks of column submatrices.

Only prime moduli are supported; arithmetic is plain modular integer
arithmetic, so no lookup tables and no floating point anywhere.  Rank
computation is Gaussian elimination with exact modular inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field of integers modulo a prime ``p``.

    Composite (or otherwise non-prime) moduli are rejected at construction,
    so every operation below may assume invertibility of nonzero residues.
    """

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise ValueError(
                f"modulus {self.p!r} is not prime; only prime fields GF(p) are supported"
            )

    def reduce(self, a: int) -> int:
        return a % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"zero division: 0 is not invertible in GF({self.p})")
        # Fermat: a^(p-2) is the inverse for prime p.
        return pow(a, self.p - 2, self.p)


def as_field(field) -> PrimeField:
    """Coerce an int modulus to a PrimeField; pass PrimeField through."""
    if isinstance(field, PrimeField):
        return field
    return PrimeField(int(field))


class FieldMatrix:
    """An exact matrix over GF(p), stored row-major with reduced entries."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: PrimeField, rows: Iterable[Sequence[int]], cols: int | None = None):
        field = as_field(field)
        row_tuples = []
        for row in rows:
            row_tuples.append(tuple(field.reduce(int(v)) for v in row))
        if row_tuples:
            width = len(row_tuples[0])
            if any(len(r) != width for r in row_tuples):
                raise ValueError("matrix rows have inconsistent lengths")
            if cols is not None and cols != width:
                raise ValueError(f"cols={cols} does not match row length {width}")
        else:
            if cols is None:
                raise ValueError("a matrix with no rows needs an explicit column count")
            width = cols
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(row_tuples))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", tuple(row_tuples))

    def __setattr__(self, name, value):
        raise AttributeError("FieldMatrix is immutable")

    def __eq__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.cols, self.entries))

    def __repr__(self):
        return f"FieldMatrix(GF({self.field.p}), {self.rows}x{self.cols})"


def matrix_rank(m: FieldMatrix, cols: Iterable[int] | None = None) -> int:
    """Rank over GF(p) of the submatrix formed by the given columns.

    ``cols`` are 0-based column indices; ``None`` means all columns.  The
    rank of an empty column selection is 0.
    """
    if cols is None:
        sel = list(range(m.cols))
    else:
        sel = sorted(set(int(c) for c in cols))
        for c in sel:
            if c < 0 or c >= m.cols:
                raise ValueError(f"column index {c} out of range for a {m.rows}x{m.cols} matrix")
    if not sel or m.rows == 0:
        return 0
    p = m.field.p
    work = [[row[c] for c in sel] for row in m.entries]
    nrows, ncols = m.rows, len(sel)
    rank = 0
    for c in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], p - 2, p)
        prow = work[rank] = [(v * inv) % p for v in work[rank]]
        for i in range(rank + 1, nrows):
            f = work[i][c]
            if f:
                ri = work[i]
                work[i] = [(a - f * b) % p for a, b in zip(ri, prow)]
        rank += 1
        if rank == nrows:
            break
    return rank
