"""Expected CLI outputs computed independently of the ghw package.

Everything here starts from a rank table (numpy array indexed by subset
bitmask) and uses different algorithms from the program under test:

* ranks of a matrix matroid come from counting left-kernel vectors:
  |{y in GF(p)^m : y.H_S = 0}| = p^(m - rank S), summed over supersets;
* weights are a brute-force minimisation over nullity classes;
* fine Betti numbers use the coloop criterion for cyclic sets and a
  vectorised subset-sum of the signed independence indicator;
* the Alexander-dual diagram uses the Eagon-Reiner theorem (matroid
  complexes are Cohen-Macaulay, so the dual's ideal has a linear
  resolution and its Betti numbers are read off the K-polynomial);
* "is the Alexander dual a matroid complex" tests local submodularity of
  the dual's rank function.

Only numpy is imported, so a defect in ghw cannot leak into its own check.
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property
from math import comb

import numpy as np


def popcounts(n: int) -> np.ndarray:
    """Number of set bits of every mask below 2^n (NumPy 1.x has no bitwise_count)."""
    pop = np.zeros(1 << n, dtype=np.int64)
    for bit in range(n):
        pop[1 << bit : 2 << bit] = pop[: 1 << bit] + 1
    return pop


def _subset_sum(values: np.ndarray, n: int) -> np.ndarray:
    out = values.copy()
    for j in range(n):
        view = out.reshape(-1, 2, 1 << j)
        view[:, 1, :] += view[:, 0, :]
    return out


def _superset_sum(values: np.ndarray, n: int) -> np.ndarray:
    out = values.copy()
    for j in range(n):
        view = out.reshape(-1, 2, 1 << j)
        view[:, 0, :] += view[:, 1, :]
    return out


def _subset_max(values: np.ndarray, n: int) -> np.ndarray:
    out = values.copy()
    for j in range(n):
        view = out.reshape(-1, 2, 1 << j)
        np.maximum(view[:, 1, :], view[:, 0, :], out=view[:, 1, :])
    return out


def matrix_rank_table(p: int, rows: list[list[int]], n: int) -> np.ndarray:
    """Ranks over GF(p) of all 2^n column subsets of an m x n matrix."""
    m = len(rows)
    H = np.array(rows, dtype=np.int64).reshape(m, n) % p
    weights = np.int64(1) << np.arange(n, dtype=np.int64)
    hist = np.zeros(1 << n, dtype=np.int64)
    chunk = max(1, (1 << 16) // max(m, 1))
    ys = itertools.product(range(p), repeat=m)
    while True:
        block = np.array(list(itertools.islice(ys, chunk)), dtype=np.int64).reshape(-1, m)
        if block.shape[0] == 0:
            break
        zero_cols = (block @ H) % p == 0
        hist += np.bincount(zero_cols @ weights, minlength=1 << n)
    kernel = _superset_sum(hist, n)
    powers = np.array([p**i for i in range(m + 1)], dtype=np.int64)
    exponent = np.searchsorted(powers, kernel)
    if not np.array_equal(powers[exponent], kernel):
        raise AssertionError("left-kernel sizes must be powers of p")
    return (m - exponent).astype(np.int64)


def uniform_rank_table(r: int, n: int) -> np.ndarray:
    return np.minimum(popcounts(n), r)


def bases_rank_table(n: int, bases: list[int]) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.int64)
    pop = popcounts(n)
    rank = np.zeros(1 << n, dtype=np.int64)
    for b in bases:
        np.maximum(rank, pop[idx & b], out=rank)
    return rank


class Reference:
    """Expected invariants of the matroid with the given rank table."""

    def __init__(self, n: int, rank: np.ndarray):
        self.n = n
        self.r = rank
        self.idx = np.arange(1 << n, dtype=np.int64)
        self.pop = popcounts(n)
        self.top = int(rank[-1])
        self.k = n - self.top

    def dual(self) -> "Reference":
        return Reference(self.n, self.pop + self.r[::-1] - self.top)

    # -- elementwise structure ------------------------------------------

    @cached_property
    def loops(self) -> list[int]:
        return [e for e in range(self.n) if self.r[1 << e] == 0]

    @cached_property
    def coloops(self) -> list[int]:
        full = (1 << self.n) - 1
        return [e for e in range(self.n) if self.r[full ^ (1 << e)] == self.top - 1]

    @cached_property
    def circuits(self) -> np.ndarray:
        """Bitmasks of minimal dependent sets."""
        minimal = (self.pop - self.r) == 1
        for e in range(self.n):
            has = (self.idx >> e) & 1 == 1
            sub = self.idx ^ (1 << e)
            minimal &= ~has | (self.r[sub] == self.pop[sub])
        return self.idx[minimal]

    @cached_property
    def bases(self) -> np.ndarray:
        return self.idx[(self.pop == self.top) & (self.r == self.top)]

    def properties(self) -> dict:
        return {
            "n": self.n,
            "rank": self.top,
            "circuits": int(self.circuits.size),
            "bases": int(self.bases.size),
        }

    # -- weights ---------------------------------------------------------

    @cached_property
    def weights(self) -> list[int]:
        nullity = self.pop - self.r
        return [int(self.pop[nullity == i].min()) for i in range(1, self.k + 1)]

    @cached_property
    def mds_level(self) -> int | None:
        for h, d in enumerate(self.weights, start=1):
            if d == self.top + h:
                return h
        return None

    def whitney_terms(self) -> list[list[int]]:
        keys = (self.top - self.r) * (self.n + 1) + (self.pop - self.r)
        counts = np.bincount(keys)
        terms = [
            [int(key) // (self.n + 1), int(key) % (self.n + 1), int(c)]
            for key, c in enumerate(counts)
            if c
        ]
        return sorted(terms, key=lambda t: (-t[0], -t[1]))

    def whitney_text(self) -> str:
        parts = []
        for ex, ey, c in self.whitney_terms():
            factors = []
            if c != 1 or (ex == 0 and ey == 0):
                factors.append(str(c))
            for var, e in (("x", ex), ("y", ey)):
                if e == 1:
                    factors.append(var)
                elif e > 1:
                    factors.append(f"{var}^{e}")
            parts.append(" ".join(factors))
        return "W(x,y) = " + " + ".join(parts)

    def weight_report(self) -> dict:
        ws = self.weights
        cliff = [d - 2 * i for i, d in enumerate(ws, start=1) if d <= self.top - 2 + i]
        return {
            "n": self.n,
            "k": self.k,
            "weights": ws,
            "support": self.n - len(self.coloops),
            "mds_level": self.mds_level,
            "degenerate": bool(self.coloops),
            "whitney": self.whitney_terms(),
            "clifford": min(cliff) if cliff else None,
            "gonality": ws,
        }

    # -- Betti numbers ---------------------------------------------------

    @cached_property
    def fine(self) -> list[tuple[int, int, int]]:
        """(i, mask, beta) for every nonzero fine Betti number, sorted by (i, mask)."""
        independent = self.r == self.pop
        signed = np.where(independent, np.where(self.pop % 2 == 1, 1, -1), 0).astype(np.int64)
        chi = _subset_sum(signed, self.n)
        cyclic = np.ones(1 << self.n, dtype=bool)
        for e in range(self.n):
            has = (self.idx >> e) & 1 == 1
            cyclic &= ~has | (self.r[self.idx ^ (1 << e)] == self.r)
        values = np.where(self.r % 2 == 1, 1, -1) * chi
        masks = self.idx[cyclic]
        if (values[masks] <= 0).any():
            raise AssertionError("Betti numbers of cyclic sets are positive")
        nullity = (self.pop - self.r)[masks]
        return sorted(zip(nullity.tolist(), masks.tolist(), values[masks].tolist()))

    def graded(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for i, mask, v in self.fine:
            key = (i, int(mask).bit_count())
            out[key] = out.get(key, 0) + v
        return out

    def betti_json(self) -> dict:
        graded = self.graded()
        top = max(i for i, _, _ in self.fine)
        global_ = [0] * (top + 1)
        for i, _, v in self.fine:
            global_[i] += v
        fine = [
            {"i": i, "sigma": [e + 1 for e in range(self.n) if mask >> e & 1], "beta": v}
            for i, mask, v in self.fine
        ]
        return {
            "fine": fine,
            "graded": [[i, d, v] for (i, d), v in sorted(graded.items())],
            "global": global_,
        }

    def alexander_graded(self) -> dict[tuple[int, int], int]:
        """Graded Betti numbers of the Alexander dual of the independence complex."""
        n = self.n
        dependent_by_size = np.bincount(self.pop[self.r < self.pop], minlength=n + 1)
        if not dependent_by_size.any():
            return {}
        # Faces of the dual are complements of dependent sets; its ideal is
        # generated by complements of bases, all of size q.
        q = n - self.top
        kpoly = [0] * (n + 1)
        for j in range(n + 1):
            f = int(dependent_by_size[n - j])
            for t in range(n - j + 1):
                kpoly[j + t] += f * (-1) ** t * comb(n - j, t)
        out = {}
        for i in range(1, n + 1):
            d = i + q - 1
            if d <= n and kpoly[d]:
                out[(i, d)] = (-1) ** i * kpoly[d]
        return out

    def alexander_dual_is_matroid(self) -> bool:
        """Local submodularity of rho(W) = largest face of the dual inside W."""
        face = self.r[::-1] < self.pop[::-1]
        rho = _subset_max(np.where(face, self.pop, -1), self.n)
        for a in range(self.n):
            for b in range(a + 1, self.n):
                ab = (1 << a) | (1 << b)
                base = self.idx[(self.idx & ab) == 0]
                if (rho[base | 1 << a] + rho[base | 1 << b] < rho[base | ab] + rho[base]).any():
                    return False
        return True

    def mds_json(self) -> dict:
        graded = self.graded()
        rows = {d - i for (i, d) in graded if i >= 1}
        linear = len(rows) <= 1
        level = self.mds_level
        tail = None
        if level is not None:
            tail = all(d == self.top + i for (i, d) in graded if i >= level)
        dual_check = None
        if linear and not self.coloops and self.k >= 1:
            dual_check = self.alexander_dual_is_matroid()
        return {
            "k": self.k,
            "rank": self.top,
            "weights": self.weights,
            "mds_level": level,
            "is_mds": level == 1,
            "linear_resolution": linear,
            "tail_is_linear": tail,
            "isthmus_free": not self.coloops,
            "isthmuses": [e + 1 for e in self.coloops],
            "alexander_dual_is_matroid": dual_check,
        }

    def verify_text(self) -> str:
        wei = "not applicable" if self.loops or self.coloops else "ok"
        return (
            "fast path vs Hochster over GF(2): ok\n"
            "homology field independence GF(2)/GF(3)/GF(5): ok\n"
            "weights from Betti vs brute force: ok\n"
            f"Wei duality partition: {wei}\n"
            "d_k equals support size: ok\n"
        )


def render_diagram(graded: dict[tuple[int, int], int]) -> str:
    """Betti diagram text: beta_{i,d} in column i >= 1, row d - i."""
    rows: dict[int, dict[int, int]] = {}
    for (i, d), v in graded.items():
        if i >= 1:
            rows.setdefault(d - i, {})[i] = v
    if not rows:
        return "(empty diagram)"
    max_col = max(i for row in rows.values() for i in row)
    labels = range(min(rows), max(rows) + 1)
    cells = [str(v) for row in rows.values() for v in row.values()] + [str(max_col)]
    width = max(len(c) for c in cells)
    label_width = max(len(str(label)) for label in labels)
    cols = range(1, max_col + 1)
    lines = [" " * label_width + " | " + " ".join(str(i).rjust(width) for i in cols)]
    for label in labels:
        row = rows.get(label, {})
        body = " ".join((str(row[i]) if i in row else "").rjust(width) for i in cols)
        lines.append((str(label).rjust(label_width) + " | " + body).rstrip())
    return "\n".join(lines)


def expected_stdout(ref: Reference, form: str) -> str:
    """Exact stdout of ``ghw <form>`` on the matroid ``ref`` describes."""
    if form == "weights":
        return "d: " + " ".join(map(str, ref.weights)) + "\n"
    if form == "weights --json":
        return json.dumps(ref.weight_report(), indent=2) + "\n"
    if form == "weights --json --complex dual":
        return json.dumps(ref.dual().weight_report(), indent=2) + "\n"
    if form == "betti --fine --json":
        return json.dumps(ref.betti_json(), indent=2) + "\n"
    if form == "diagram":
        return render_diagram(ref.graded()) + "\n"
    if form == "diagram --complex dual":
        return render_diagram(ref.dual().graded()) + "\n"
    if form == "diagram --complex alexander":
        return render_diagram(ref.alexander_graded()) + "\n"
    if form == "whitney":
        return ref.whitney_text() + "\n"
    if form == "mds --json":
        return json.dumps(ref.mds_json(), indent=2) + "\n"
    if form == "verify":
        return ref.verify_text()
    raise ValueError(f"unknown command form {form!r}")
