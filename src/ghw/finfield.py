"""Exact arithmetic over prime fields GF(p) and the one GF(p) elimination kernel.

Only prime moduli below 2^64 are supported; arithmetic is plain modular
integer arithmetic, so no lookup tables and no floating point anywhere.
Every rank in ghw comes from ``column_rank``: sparse column reduction with
exact modular inverses.  It ranks the boundary maps behind the Hochster
homology oracle (``ghw.simplicial``) and the column submatrices behind
``matrix_rank``, the per-subset rank oracle the checks compare a matrix
matroid's rank table with.  Given a matrix's rows as sparse vectors keyed
by column, it returns an echelon basis of the row space, whose words a
matrix matroid's rank table counts (``ghw.matroid``).  Started from a given echelon basis, it also tells
whether one more column raises the rank: the test the rank-table search
makes at each node when the row space has too many words to count.

Most columns it gets take a free pivot: no stored column has their largest
row.  Such a column is stored as it comes when its coefficient there is
already 1, as every boundary column's is, and only a column that has to be
reduced is copied.  Stored columns are therefore shared with the caller's
input, and nothing ever writes to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

MAX_MODULUS = 1 << 64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin with the primes up to 37 as bases.

    Exact for every p below 3.3 * 10^24, so for every modulus below MAX_MODULUS.
    """
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for a in _WITNESSES:
        if pow(a, d, p) != 1 and all(pow(a, d << i, p) != p - 1 for i in range(s)):
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field of integers modulo a prime ``p``.

    Composite (or otherwise non-prime) moduli and moduli of 2^64 or more are
    rejected at construction, so every operation below may assume
    invertibility of nonzero residues.
    """

    p: int

    def __post_init__(self):
        if isinstance(self.p, int) and self.p >= MAX_MODULUS:
            raise ValueError(f"modulus {self.p} is too large; GF(p) needs p < 2^64")
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
    """An exact matrix over GF(p), stored row-major with reduced entries.

    ``columns`` holds the same matrix as sparse columns (row -> nonzero
    residue), built once here for ``column_rank``.
    """

    __slots__ = ("field", "rows", "cols", "entries", "columns")

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
        columns = tuple(
            {r: row[c] for r, row in enumerate(row_tuples) if row[c]} for c in range(width)
        )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(row_tuples))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", tuple(row_tuples))
        object.__setattr__(self, "columns", columns)

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


def column_rank(
    columns: Iterable[Mapping[int, int]], p: int, pivots: dict[int, dict[int, int]] | None = None
) -> int:
    """Rank over GF(p) of sparse columns, each a mapping row -> nonzero residue.

    A column's pivot is its largest row.  Each column is cleared against the
    stored column with its pivot until it gets a free pivot or vanishes; the
    number of stored columns is the rank.

    A column whose pivot is free as given is stored without a copy when its
    coefficient there is 1, and as a scaled copy otherwise; only a column
    that has to be reduced is copied first.  A stored column may thus be an
    input column, and the rule that keeps this safe is that nothing writes
    to a stored column: the kernel reads them only, and so do the callers
    that read ``pivots`` back.  The input columns are not changed.

    ``pivots``, if given, is an echelon basis to start from: pivot row ->
    stored column scaled to 1 at that row, its largest row.  The columns are
    reduced against it, it is extended in place, and the number of pivots
    added is returned, so the result is the rank the columns add to it.
    A stored column that fails to lower a column's largest row raises
    ValueError instead of reducing forever.
    """
    if pivots is None:
        pivots = {}
    start = len(pivots)
    for col in columns:
        low = max(col) if col else None
        other = pivots.get(low)
        if other is not None:
            col = dict(col)  # only a column that is reduced is copied
            while other is not None:
                f = col[low]
                for r, v in other.items():
                    x = (col.get(r, 0) - f * v) % p
                    if x:
                        col[r] = x
                    else:
                        del col[r]
                top = max(col) if col else None
                if top is not None and top >= low:
                    raise ValueError(
                        f"the stored column at pivot row {low} is not 1 there,"
                        f" or has a larger row: it does not reduce the column"
                    )
                low, other = top, pivots.get(top)
        if low is None:  # the column was empty or vanished
            continue
        f = col[low]
        if f != 1:
            scale = pow(f, p - 2, p)
            col = {r: v * scale % p for r, v in col.items()}
        pivots[low] = col
    return len(pivots) - start


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
    return column_rank((m.columns[c] for c in sel), m.field.p)
