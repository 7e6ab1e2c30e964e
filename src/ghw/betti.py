"""Betti numbers of Stanley-Reisner rings: finely graded, graded, global.

Three computation paths:

* ``betti_fine_matroid`` works for independence complexes only and never
  builds a chain complex; it reads everything off the matroid's rank table.
  A subset carries a nonzero Betti number exactly when it equals the union
  of the circuits it contains, i.e. when none of its elements is a coloop
  of the restriction to it (rank(sigma - x) == rank(sigma) for every x in
  sigma).  The homological degree is its nullity, and the value is the
  reduced Euler characteristic of the restriction up to sign.
* ``betti_fine_alexander`` is its counterpart for the Alexander dual of an
  independence complex: by Hochster's dual formula every entry is the
  reduced homology of a link, and links of matroid complexes are matroid
  complexes, so each entry is an Euler characteristic read off one
  superset-sum of the rank table's independence indicator.
* ``betti_fine_hochster`` works for any complex (Alexander duals included):
  beta_{i,sigma} is the reduced homology dimension of the induced
  subcomplex on sigma in degree |sigma| - i - 1.  Each restriction selects
  its faces once and ranks its coboundary maps from the smallest faces up,
  with clearing (``ghw.simplicial``).  A map whose kept columns have
  pairwise distinct largest rows is ranked by counting them, once for
  every field asked for; only a map where two share a largest row builds
  signed columns and ranks them per field.  So the GF(2)/GF(3)/GF(5)
  comparison of ``verify`` costs one sweep.

On matroid complexes and their Alexander duals the oracle agrees with the
two fast paths entry for entry, which the test suite uses as a standing
cross-check.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .finfield import PrimeField, as_field
from .matroid import CapExceeded, Matroid, bit_halves, each_element, elements, popcounts
from .simplicial import SimplicialComplex, faces_by_cardinality, homology_from_buckets

# Full Hochster sweeps cost 2^n homology computations; refuse larger ground
# sets unless the caller raises the cap explicitly.
DEFAULT_HOCHSTER_MAX_N = 14


class BettiTable:
    """Finely graded Betti numbers: (homological degree, subset mask) -> value.

    Zero entries are never stored.  Graded and global views are exact sums
    of the fine entries, computed on demand and cached.
    """

    def __init__(self, n: int, fine: dict[tuple[int, int], int]):
        for (i, mask), v in fine.items():
            if v <= 0:
                raise ValueError(f"Betti numbers are positive; got beta[{i}, {elements(mask)}] = {v}")
        self.n = n
        self.fine = dict(fine)
        self._graded: dict[tuple[int, int], int] | None = None

    def __eq__(self, other):
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self.n == other.n and self.fine == other.fine

    def __repr__(self):
        return f"BettiTable(n={self.n}, {len(self.fine)} fine entries, global={self.global_betti()})"

    def graded(self) -> dict[tuple[int, int], int]:
        """Total-degree view: (i, d) -> sum of beta_{i,sigma} over |sigma| = d."""
        if self._graded is None:
            out: dict[tuple[int, int], int] = {}
            for (i, mask), v in self.fine.items():
                key = (i, mask.bit_count())
                out[key] = out.get(key, 0) + v
            self._graded = out
        return dict(self._graded)

    def global_betti(self) -> tuple[int, ...]:
        """(beta_0, beta_1, ...) up to the largest homological degree present."""
        top = max((i for (i, _) in self.fine), default=0)
        out = [0] * (top + 1)
        for (i, _), v in self.fine.items():
            out[i] += v
        return tuple(out)

    def max_index(self) -> int:
        return max((i for (i, _) in self.fine), default=0)

    def min_degree(self, i: int) -> int | None:
        """Smallest total degree with a nonzero entry in homological degree i."""
        degrees = [d for (j, d) in self.graded() if j == i]
        return min(degrees) if degrees else None

    def max_degree(self, i: int) -> int | None:
        degrees = [d for (j, d) in self.graded() if j == i]
        return max(degrees) if degrees else None

    def to_json_dict(self) -> dict:
        """JSON view with 1-based sorted subsets and stable ordering."""
        fine = [
            {"i": i, "sigma": [e + 1 for e in elements(mask)], "beta": v}
            for (i, mask), v in sorted(self.fine.items(), key=lambda kv: (kv[0][0], kv[0][1]))
        ]
        return {"fine": fine, **self.coarse_json_dict()}

    def coarse_json_dict(self) -> dict:
        """The JSON view without its "fine" list: graded and global entries."""
        graded = [[i, d, v] for (i, d), v in sorted(self.graded().items())]
        return {"graded": graded, "global": list(self.global_betti())}

    @classmethod
    def from_json_dict(cls, obj: dict, n: int) -> "BettiTable":
        fine: dict[tuple[int, int], int] = {}
        for entry in obj["fine"]:
            mask = 0
            for e in entry["sigma"]:
                mask |= 1 << (int(e) - 1)
            fine[(int(entry["i"]), mask)] = int(entry["beta"])
        return cls(n, fine)


def _signed_independent_sums(rank: np.ndarray, pop: np.ndarray, supersets: bool) -> np.ndarray:
    """Per mask, the sum of (-1)^|T| over the independent sets T inside it,
    or with ``supersets`` over the independent sets T containing it: one
    subset-sum or superset-sum sweep of the signed independence indicator."""
    sums = np.where(rank == pop, np.where(pop % 2 == 1, -1, 1), 0).astype(np.int64)
    for with_bit, without in bit_halves(sums):
        if supersets:
            without += with_bit
        else:
            with_bit += without
    return sums


def betti_fine_matroid(M: Matroid) -> BettiTable:
    """Finely graded Betti numbers of the independence complex, homology-free.

    Every sweep reads the matroid's rank table.  sigma contributes exactly
    when it is the union of the circuits it contains, that is when no
    element x of sigma is a coloop of the restriction to sigma:
    rank(sigma - x) == rank(sigma) for every x in sigma.  The entry sits in
    homological degree nullity(sigma), with value (-1)^(rank(sigma)-1)
    times the reduced Euler characteristic of the restriction.  The Euler
    characteristics of all restrictions come from one subset-sum transform
    of the signed independence indicator.
    """
    n = M.n
    rank = M.rank_table()
    pop = popcounts(n)

    # sums[mask] is minus the reduced Euler characteristic of the
    # restriction to mask: that is a sum of (-1)^(|tau|-1) over the same tau.
    sums = _signed_independent_sums(rank, pop, supersets=False)

    sigmas = np.flatnonzero(each_element(rank, np.equal))
    ranks = rank[sigmas]
    values = np.where(ranks % 2 == 1, -1, 1) * sums[sigmas]
    fine = {
        (size - r, mask): value
        for mask, size, r, value in zip(
            sigmas.tolist(), pop[sigmas].tolist(), ranks.tolist(), values.tolist()
        )
    }
    return BettiTable(n, fine)


def betti_fine_alexander(M: Matroid) -> BettiTable:
    """Finely graded Betti numbers of the Alexander dual of the independence
    complex, homology-free.

    By Hochster's dual formula (Eagon & Reiner), beta_{i,sigma} of the dual
    is the reduced homology of the link of tau = E - sigma in degree
    |sigma| - i - 1, or 0 when tau is not independent.  That link is a
    matroid complex of rank r - |tau|, hence shellable (Bjorner), so its
    homology sits in top degree r - |tau| - 1 alone, where its dimension is
    the absolute reduced Euler characteristic: |sum of (-1)^|T| over the
    independent T containing tau|.  So beta_{r-|tau|+1, sigma} is that
    value, read off one superset-sum of the signed independence indicator,
    beta_{0,empty} = 1, and every other entry is 0.  A free matroid has a
    void Alexander dual, whose table is empty.
    """
    n = M.n
    rank = M.rank_table()
    pop = popcounts(n)
    r = int(rank[-1])
    if r == n:
        return BettiTable(n, {})
    sums = _signed_independent_sums(rank, pop, supersets=True)
    taus = np.flatnonzero((rank == pop) & (sums != 0))
    degrees = (r + 1 - pop[taus]).tolist()
    sigmas = (M.full ^ taus).tolist()
    fine = {(0, 0): 1}
    fine.update(zip(zip(degrees, sigmas), np.abs(sums[taus]).tolist()))
    return BettiTable(n, fine)


def betti_fine_hochster(
    cx: SimplicialComplex,
    field: PrimeField | int | Sequence[PrimeField | int] = 2,
    max_n: int = DEFAULT_HOCHSTER_MAX_N,
) -> BettiTable | dict[int, BettiTable]:
    """Finely graded Betti numbers of any complex via restriction homology.

    beta_{i,sigma} = dim of reduced homology of the induced subcomplex on
    sigma in degree |sigma| - i - 1.  Cost is a homology computation for
    every subset; for independence complexes prefer ``betti_fine_matroid``
    (this path then serves as its oracle).

    ``field`` is one field, or a sequence of fields; then the result maps
    each modulus p to its table.  Every field is ranked on one sweep over
    the restrictions: each selects its faces once, and its coboundary maps
    are counted once for all fields until one needs the elimination kernel,
    and ranked per field from there (``homology_from_buckets``).
    """
    if cx.n > max_n:
        raise CapExceeded(
            f"ground set size {cx.n} exceeds the Hochster cap {max_n}; use the matroid"
            f" fast path (betti_fine_matroid) or raise max_n explicitly"
        )
    several = isinstance(field, (list, tuple))
    primes = [as_field(f).p for f in (field if several else (field,))]
    feasible = cx.feasible()
    fines: list[dict[tuple[int, int], int]] = [{} for _ in primes]
    for sigma in range(1 << cx.n):
        buckets = faces_by_cardinality(cx, sigma)
        size = sigma.bit_count()
        by_field = homology_from_buckets(buckets, sigma, feasible, primes)
        for fine, p in zip(fines, primes):
            for degree, value in by_field[p].items():
                fine[(size - degree - 1, sigma)] = value
    tables = {p: BettiTable(cx.n, fine) for p, fine in zip(primes, fines)}
    return tables if several else tables[primes[0]]


def render_diagram(table: BettiTable) -> str:
    """Deterministic text Betti diagram (blank cells for zeros).

    beta_{i,d} sits in column i >= 1, row d - i; beta_0 is omitted.
    """
    rows: dict[int, dict[int, int]] = {}
    max_col = 0
    for (i, d), v in table.graded().items():
        if i == 0:
            continue
        rows.setdefault(d - i, {})[i] = v
        max_col = max(max_col, i)
    if not rows:
        return "(empty diagram)"
    labels = range(min(rows), max(rows) + 1)
    cells = [str(v) for row in rows.values() for v in row.values()]
    width = max(len(c) for c in cells + [str(max_col)])
    label_width = max(len(str(l)) for l in labels)
    lines = [
        " " * label_width + " | " + " ".join(str(i).rjust(width) for i in range(1, max_col + 1))
    ]
    for label in labels:
        row = rows.get(label, {})
        body = " ".join(
            (str(row[i]) if i in row else "").rjust(width) for i in range(1, max_col + 1)
        )
        lines.append((str(label).rjust(label_width) + " | " + body).rstrip())
    return "\n".join(lines)
