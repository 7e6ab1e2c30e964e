"""Weight hierarchies, Wei duality, MDS profiling, Whitney polynomial, Clifford data.

The generalized Hamming weights of a matroid are d_i = min{|sigma| :
nullity(sigma) = i} for i = 1..k with k = n - rank.  They can be read off a
Betti table as the minimum total degree with a nonzero entry per homological
degree; ``weights_bruteforce`` is the independent oracle that minimizes over
all subsets directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .betti import BettiTable
from .matroid import Matroid, elements, impure_restriction, popcounts


def weights_from_betti(table: BettiTable, k: int) -> tuple[int, ...]:
    """d_i = min{d : beta_{i,d} != 0} for i = 1..k, from the matroid's own table."""
    out = []
    for i in range(1, k + 1):
        d = table.min_degree(i)
        if d is None:
            raise ValueError(
                f"no Betti entry in homological degree {i} <= k={k}: "
                f"inconsistent table (the resolution must have length exactly k)"
            )
        out.append(d)
    return tuple(out)


def weights_bruteforce(M: Matroid) -> tuple[int, ...]:
    """Direct minimization of |sigma| over nullity classes; the oracle path.

    One bincount over (nullity, |sigma|) pairs marks the sizes each nullity
    class takes; d_i is the smallest size marked for nullity i.
    """
    n = M.n
    size = popcounts(n)
    nullity = size - M.rank_table()
    k = int(nullity[-1])
    keys = nullity.astype(np.int16) * (n + 1) + size
    seen = np.bincount(keys, minlength=(k + 1) * (n + 1))
    return tuple((seen.reshape(k + 1, n + 1)[1:] > 0).argmax(axis=1).tolist())


def support_size(M: Matroid) -> int:
    """Number of elements lying in some circuit (d_k equals this)."""
    union = 0
    for c in M.circuits():
        union |= c
    return union.bit_count()


def wei_duality_check(M: Matroid) -> bool | None:
    """Check that the hierarchies of M and its dual partition {1..n}.

    Classical statement: {d_i(M)} and {n+1-d_j(dual)} are disjoint with
    union {1..n}.  Returns None ("not applicable") when M has loops or
    isthmuses, where the classical statement need not hold as stated.
    """
    if M.loops() or M.isthmuses():
        return None
    n = M.n
    primal = set(weights_bruteforce(M))
    dual = {n + 1 - d for d in weights_bruteforce(M.dual())}
    return not (primal & dual) and (primal | dual) == set(range(1, n + 1))


@dataclass(frozen=True)
class MdsProfile:
    """Diagnostics around the Singleton bound d_i <= n - k + i."""

    k: int
    rank: int
    weights: tuple[int, ...]
    mds_level: int | None  # smallest h with d_h = n - k + h; 1 means MDS
    is_mds: bool
    linear_resolution: bool  # all graded entries (i >= 1) on a single diagram row
    tail_is_linear: bool | None  # entries for i >= mds_level sit in degree rank + i
    isthmus_free: bool
    isthmuses: tuple[int, ...]
    alexander_dual_is_matroid: bool | None  # evaluated only for MDS candidates


def mds_level(weights: tuple[int, ...], rank: int) -> int | None:
    """The smallest h with d_h = rank + h (Singleton's bound met), or None."""
    return next((h for h, d in enumerate(weights, start=1) if d == rank + h), None)


def alexander_dual_is_matroid(M: Matroid) -> bool:
    """Is the Alexander dual of M's independence complex a matroid complex?

    Its faces are the complements of M's dependent sets, so its indicator
    is the dependent-set indicator reversed, and the check is one purity
    test on it.  With no dependent set it is the void complex: not one.
    """
    dependent = M.rank_table() != popcounts(M.n)
    return bool(dependent[-1]) and impure_restriction(dependent[::-1]) is None


def mds_profile(M: Matroid, table: BettiTable) -> MdsProfile:
    """Profile h-MDS-ness of the matroid from its own Betti table.

    ``table`` must be the matroid's own table (not a dual or Alexander
    one).  The Alexander-dual matroid-axiom check is only run for genuine
    MDS candidates (linear resolution and no isthmus), since it sweeps all
    faces of the dual complex.
    """
    r = M.rank(M.full)
    k = M.n - r
    ws = weights_from_betti(table, k)
    level = mds_level(ws, r)
    rows = {d - i for (i, d) in table.graded() if i >= 1}
    linear = len(rows) <= 1
    if level is None:
        tail_linear = None
    else:
        tail_linear = all(
            d == r + i for (i, d) in table.graded() if i >= level
        )
    isthmus_mask = M.isthmuses()
    isthmus_free = isthmus_mask == 0
    dual_check = None
    if linear and isthmus_free and k >= 1:
        dual_check = alexander_dual_is_matroid(M)
    return MdsProfile(
        k=k,
        rank=r,
        weights=ws,
        mds_level=level,
        is_mds=level == 1,
        linear_resolution=linear,
        tail_is_linear=tail_linear,
        isthmus_free=isthmus_free,
        isthmuses=elements(isthmus_mask),
        alexander_dual_is_matroid=dual_check,
    )


def whitney_polynomial(M: Matroid) -> dict[tuple[int, int], int]:
    """Coefficients of W(x, y) = sum over subsets X of x^(r(E)-r(X)) y^(|X|-r(X))."""
    n, table = M.n, M.rank_table()
    keys = (table[-1] - table).astype(np.int16) * (n + 1) + (popcounts(n) - table)
    counts = np.bincount(keys)
    return {divmod(key, n + 1): counts.item(key) for key in np.flatnonzero(counts).tolist()}


def whitney_terms(coeffs: dict[tuple[int, int], int]) -> list[list[int]]:
    """[[x-exponent, y-exponent, coefficient], ...] sorted by falling exponents."""
    return [
        [ex, ey, c]
        for (ex, ey), c in sorted(coeffs.items(), key=lambda kv: (-kv[0][0], -kv[0][1]))
    ]


def whitney_text(coeffs: dict[tuple[int, int], int]) -> str:
    parts = []
    for ex, ey, c in whitney_terms(coeffs):
        factors = []
        if c != 1 or (ex == 0 and ey == 0):
            factors.append(str(c))
        if ex == 1:
            factors.append("x")
        elif ex > 1:
            factors.append(f"x^{ex}")
        if ey == 1:
            factors.append("y")
        elif ey > 1:
            factors.append(f"y^{ey}")
        parts.append(" ".join(factors))
    return " + ".join(parts) if parts else "0"


def clifford_and_gonality(
    M: Matroid, weights: tuple[int, ...]
) -> tuple[tuple[int, ...], int | None]:
    """Gonality sequence (t-gonality is d_t) and the matroid Clifford index.

    The Clifford index is min{d_i - 2i : i >= 1, d_i <= rank - 2 + i}, and
    is undefined (None) when no i qualifies, which happens exactly when
    d_1 > rank - 1 (so for MDS and almost-MDS matroids).
    """
    r = M.rank(M.full)
    candidates = [d - 2 * i for i, d in enumerate(weights, start=1) if d <= r - 2 + i]
    return tuple(weights), (min(candidates) if candidates else None)


@dataclass(frozen=True)
class WeightReport:
    """Everything the weights pipeline knows about one matroid."""

    n: int
    k: int
    weights: tuple[int, ...]
    support: int
    mds_level: int | None
    degenerate: bool
    whitney: dict[tuple[int, int], int]
    clifford: int | None
    gonality: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "weights": list(self.weights),
            "support": self.support,
            "mds_level": self.mds_level,
            "degenerate": self.degenerate,
            "whitney": whitney_terms(self.whitney),
            "clifford": self.clifford,
            "gonality": list(self.gonality),
        }


def weight_report(M: Matroid, table: BettiTable) -> WeightReport:
    r = M.rank(M.full)
    k = M.n - r
    ws = weights_from_betti(table, k)
    gon, cliff = clifford_and_gonality(M, ws)
    return WeightReport(
        n=M.n,
        k=k,
        weights=ws,
        support=support_size(M),
        mds_level=mds_level(ws, r),
        degenerate=M.isthmuses() != 0,
        whitney=whitney_polynomial(M),
        clifford=cliff,
        gonality=gon,
    )
