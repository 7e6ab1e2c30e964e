"""Simplicial complexes as face indicators, and reduced homology over GF(p).

A complex on ground set {0..n-1} is stored as its face indicator: one
read-only bool per subset, indexed by bitmask.  The empty complex
{emptyset} marks only mask 0; the void complex, with no faces at all, marks
nothing.  Facets, minimal non-faces, f-vectors, Alexander duals and
induced subcomplexes are each a bit sweep, a ``bincount`` or an elementwise
operation on that array.

Reduced homology uses the chain complex with the incidence sign
(-1)^(r-1) for the r-th smallest element of a face, and is read off the
ranks of the coboundary maps, which equal the boundary ranks; dimensions
are reported as a sparse mapping degree -> dimension (degree -1 is the
empty-face slot).  A restriction to sigma selects its faces
(``faces_by_cardinality``); the complex's ``feasible`` table gives, per
face g, the elements that extend g to a face.

The coboundary column of a face g has its rows at g + e for e in
feasible[g] & sigma, so its largest row in bitmask order is g plus the
highest such e, at coefficient +-1.  The maps are ranked from the smallest
faces up, with clearing (Chen & Kerber's "twist", in the cohomology form
of de Silva, Morozov & Vejdemo-Johansson): a face that is a pivot row of
the map one dimension down gets no column.  The stored column there is a
coboundary, hence a cocycle, whose largest face h sits at a unit
coefficient; so the coboundary of h is a combination of the coboundaries
of faces below h, and by induction on h it lies in the span of the columns
kept.  When the kept columns' largest rows are pairwise distinct, the
columns are independent, the rank is their count and the pivot rows are
those rows: no column is built, and the answer holds in every field.  Only
a map in which two kept columns share a largest row builds its signed
columns for each field and ranks them with ``finfield.column_rank``; from
there each field goes on with its own pivot rows.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .finfield import PrimeField, as_field, column_rank
from .matroid import (
    DEFAULT_MAX_GROUND,
    bit_halves,
    check_cap,
    downward_closure,
    each_element,
    elements,
    impure_restriction,
    one_based,
    popcounts,
)


# Above this many elements a restriction's faces are selected from the
# complex's face array instead of by walking the 2^|within| submasks.
SUBMASK_WALK_MAX = 6


class FaceLists(NamedTuple):
    """A complex's faces sorted by (cardinality, bitmask)."""

    masks: np.ndarray
    starts: list[int]  # the card-c faces are masks[starts[c]:starts[c + 1]]


def _by_size(n: int, marks: np.ndarray) -> tuple[int, ...]:
    """The marked masks in (cardinality, bitmask) order."""
    masks = np.flatnonzero(marks)
    return tuple(masks[np.argsort(popcounts(n)[masks], kind="stable")].tolist())


class SimplicialComplex:
    """A simplicial complex, stored as the indicator of its faces."""

    def __init__(self, n: int, facets: Iterable[int], max_n: int = DEFAULT_MAX_GROUND):
        """The complex generated by ``facets`` (bitmasks; need not be maximal)."""
        if n < 0:
            raise ValueError("ground set size must be >= 0")
        check_cap(n, max_n, "face sweeps")
        facets = tuple(facets)
        for f in facets:
            if f < 0 or f >> n:
                raise ValueError(f"facet {one_based(f)} is not inside the ground set of size {n}")
        self._adopt(downward_closure(n, facets))

    @classmethod
    def of_faces(cls, face: np.ndarray) -> "SimplicialComplex":
        """The complex whose faces ``face`` marks: a bool array over the 2^n
        masks that is already closed under taking subsets."""
        cx = cls.__new__(cls)
        cx._adopt(face)
        return cx

    def _adopt(self, face: np.ndarray) -> None:
        face.setflags(write=False)
        self.n = face.size.bit_length() - 1
        self._face = face
        self._face_lists: FaceLists | None = None
        self._feasible: list[int] | None = None

    @property
    def facets(self) -> tuple[int, ...]:
        """The maximal faces, in (cardinality, bitmask) order."""
        maximal = self._face.copy()
        for (_, without), (face_with, _) in zip(bit_halves(maximal), bit_halves(self._face)):
            without &= ~face_with
        return _by_size(self.n, maximal)

    @property
    def is_void(self) -> bool:
        return not self._face[0]

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._face, other._face)

    def __hash__(self):
        return hash((self.n, self._face.tobytes()))

    def __repr__(self):
        facets = self.facets
        shown = [elements(f) for f in facets[:6]]
        more = "..." if len(facets) > 6 else ""
        return f"SimplicialComplex(n={self.n}, facets={shown}{more})"

    def dim(self) -> int:
        """Dimension: one less than the largest facet size; -1 for {emptyset}."""
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return len(self.f_vector()) - 2

    def face_table(self) -> np.ndarray:
        """Indicator of all faces, indexed by bitmask (read-only bool)."""
        return self._face

    def face_lists(self) -> FaceLists:
        """All faces sorted by (cardinality, bitmask), computed once."""
        if self._face_lists is None:
            masks = np.flatnonzero(self.face_table())
            size = popcounts(self.n)[masks]
            masks = masks[np.argsort(size, kind="stable")]
            starts = [0, *np.cumsum(np.bincount(size)).tolist()]
            self._face_lists = FaceLists(masks, starts)
        return self._face_lists

    def feasible(self) -> list[int]:
        """Per mask g, the mask of the elements e outside g such that g + e is
        a face (0 when g is no face), computed once: one sweep per element."""
        if self._feasible is None:
            feasible = np.zeros(self._face.size, dtype=np.int64)
            for bit, ((_, without), (face_with, _)) in enumerate(
                zip(bit_halves(feasible), bit_halves(self._face))
            ):
                without |= face_with * (1 << bit)
            self._feasible = feasible.tolist()
        return self._feasible

    def f_vector(self) -> tuple[int, ...]:
        """Face counts (f_-1, f_0, ..., f_dim); () for the void complex."""
        return tuple(np.bincount(popcounts(self.n)[self._face]).tolist())

    def restrict(self, sigma: int) -> "SimplicialComplex":
        """Faces inside sigma, i.e. the induced subcomplex on sigma (same labels)."""
        inside = (np.arange(1 << self.n) & ~sigma) == 0
        return self.of_faces(self._face & inside)

    def minimal_nonfaces(self) -> tuple[int, ...]:
        """Minimal non-faces; these generate the Stanley-Reisner ideal."""
        below = each_element(self._face, lambda _, smaller: smaller)
        return _by_size(self.n, ~self._face & below)

    def alexander_dual(self) -> "SimplicialComplex":
        """Complex whose faces are complements of the non-faces of this one.

        Its facets are the complements of the minimal non-faces; for an
        independence complex those are the complements of the circuits.
        Mask E - G sits at index 2^n - 1 - G, so the dual's indicator is the
        non-face indicator reversed.
        """
        return self.of_faces((~self._face)[::-1].copy())

    def is_matroid_complex(self) -> bool:
        """Is every induced subcomplex pure (the matroid complex criterion)?"""
        return not self.is_void and impure_restriction(self._face) is None


def independence_complex(M) -> SimplicialComplex:
    """The complex of independent sets of a matroid; facets are the bases."""
    return SimplicialComplex.of_faces(M.rank_table() == popcounts(M.n))


def faces_by_cardinality(cx: SimplicialComplex, within: int) -> list[list[int]]:
    """Faces of the induced subcomplex on ``within``, bucketed by cardinality.

    Returns [] for a void complex; otherwise bucket k holds the k-element
    faces in increasing bitmask order, and trailing empty buckets are trimmed.
    A small ``within`` walks its submasks; a larger one selects from the
    complex's sorted face array, whose cost does not double with |within|.
    """
    if cx.is_void:
        return []
    if within.bit_count() > SUBMASK_WALK_MAX:
        faces = cx.face_lists()
        picked = np.flatnonzero((faces.masks & ~within) == 0)
        masks = faces.masks[picked].tolist()
        cuts = np.searchsorted(picked, faces.starts).tolist()
        buckets = [masks[a:b] for a, b in zip(cuts, cuts[1:])]
    else:
        table = memoryview(cx.face_table())
        buckets = [[] for _ in range(within.bit_count() + 1)]
        sub = within  # every submask, in decreasing order
        while True:
            if table[sub]:
                buckets[sub.bit_count()].append(sub)
            if not sub:
                break
            sub = (sub - 1) & within
        for b in buckets:
            b.reverse()
    while buckets and not buckets[-1]:
        buckets.pop()
    return buckets


def boundary_matrix(lower: list[int], upper: list[int], p: int) -> list[dict[int, int]]:
    """Boundary map from the span of ``upper`` faces to the span of ``lower`` faces,
    the map the coboundary sweep transposes, built in full for checks.

    Returns sparse columns: column j maps the row of each face of upper[j]
    with one element removed to its sign, (-1)^(r-1) mod p for the r-th
    smallest element.
    """
    index = {m: i for i, m in enumerate(lower)}
    columns = []
    for face in upper:
        col = {}
        sign = 1
        m = face
        while m:
            b = m & -m
            m ^= b
            col[index[face ^ b]] = sign
            sign = p - sign
        columns.append(col)
    return columns


def _largest_rows(faces: list[int], feasible: list[int], sigma: int) -> list[int]:
    """The largest row of each nonzero coboundary column of ``faces`` in the
    restriction to sigma: the face plus the largest element that extends it
    inside sigma."""
    rows = []
    for g in faces:
        m = feasible[g] & sigma
        if m:
            rows.append(g | 1 << (m.bit_length() - 1))
    return rows


def _coboundary(faces: list[int], feasible: list[int], sigma: int, p: int):
    """The coboundary columns of ``faces`` in the restriction to sigma over
    GF(p), keyed by face: g + e has coefficient (-1)^(r-1), r the rank of e
    in g + e, the coefficient of g in the boundary of g + e."""
    for g in faces:
        col = {}
        m = feasible[g] & sigma
        while m:
            e = m & -m
            m ^= e
            col[g | e] = p - 1 if (g & (e - 1)).bit_count() & 1 else 1
        yield col


def homology_from_buckets(
    buckets: list[list[int]], sigma: int, feasible: list[int], primes: Sequence[int]
) -> dict[int, dict[int, int]]:
    """Reduced homology dimensions over every GF(p) in ``primes`` of the
    restriction to sigma, whose faces ``buckets`` holds by cardinality
    (``faces_by_cardinality``); ``feasible`` is the complex's table.

    The coboundary maps are ranked from the smallest faces up, with
    clearing, as the module docstring sets out: a map whose kept columns
    have pairwise distinct largest rows is counted once for all fields that
    have not parted, and a map where two share one is ranked by
    ``column_rank`` in each of its fields, which go on apart from there.

    Returns p -> a sparse mapping degree -> dim, zero entries omitted; the
    void complex gives {} for every p.  Fields that never part share one
    mapping.
    """
    # (fields, the pivot rows of their last map, ranks): ranks[c] is the
    # rank of the map from card-(c-1) to card-c faces
    groups = [(tuple(primes), (), [0] * (len(buckets) + 1))]
    for c in range(1, len(buckets)):
        split = []
        for fields, cleared, ranks in groups:
            kept = [g for g in buckets[c - 1] if g not in cleared]
            rows = _largest_rows(kept, feasible, sigma)
            pivots = set(rows)
            if len(pivots) == len(rows):
                ranks[c] = len(rows)
                split.append((fields, pivots, ranks))
                continue
            for p in fields:
                basis: dict[int, dict[int, int]] = {}
                field_ranks = ranks.copy()
                field_ranks[c] = column_rank(_coboundary(kept, feasible, sigma, p), p, basis)
                split.append(((p,), basis, field_ranks))
        groups = split
    sizes = [len(faces) for faces in buckets]
    out = {}
    for fields, _, ranks in groups:
        found = {c - 1: size - ranks[c] - ranks[c + 1] for c, size in enumerate(sizes)}
        dims = {d: h for d, h in found.items() if h}
        out.update(dict.fromkeys(fields, dims))
    return out


def reduced_homology(cx: SimplicialComplex, field: PrimeField | int = 2) -> dict[int, int]:
    """Reduced homology dimensions of the complex over GF(p), sparse by degree:
    the restriction to the whole ground set."""
    p = as_field(field).p
    full = (1 << cx.n) - 1
    return homology_from_buckets(faces_by_cardinality(cx, full), full, cx.feasible(), (p,))[p]


def reduced_euler_char(cx: SimplicialComplex) -> int:
    """Alternating face-count sum including the empty face: sum (-1)^i f_i, i >= -1."""
    total = 0
    for j, count in enumerate(cx.f_vector()):
        total += count if j % 2 == 1 else -count
    return total


def h_vector(cx: SimplicialComplex, rank: int) -> tuple[int, ...]:
    """h-vector (h_0..h_rank) from the f-vector via sum f_{i-1} (t-1)^(rank-i).

    ``rank`` must be at least dim+1 (for a matroid complex it is the matroid
    rank, supplied by the caller).
    """
    f = cx.f_vector()
    if len(f) > rank + 1:
        raise ValueError(f"rank {rank} is smaller than the complex allows (dim {cx.dim()})")
    coeffs = [0] * (rank + 1)  # coefficient of t^j at index j
    for i in range(rank + 1):
        fi = f[i] if i < len(f) else 0
        if fi == 0:
            continue
        m = rank - i
        for j in range(m + 1):
            term = fi * comb(m, j)
            coeffs[j] += term if (m - j) % 2 == 0 else -term
    return tuple(coeffs[rank - i] for i in range(rank + 1))
