"""Simplicial complexes as face indicators, and reduced homology over GF(p).

A complex on ground set {0..n-1} is stored as its face indicator: one
read-only bool per subset, indexed by bitmask.  The empty complex
{emptyset} marks only mask 0; the void complex, with no faces at all, marks
nothing.  Facets, minimal non-faces, f-vectors, Alexander duals and
induced subcomplexes are each a bit sweep, a ``bincount`` or an elementwise
operation on that array.

Reduced homology uses the chain complex with the incidence sign
(-1)^(r-1) for the r-th smallest element of a face.  Boundary maps are
built as sparse columns and ranked by ``finfield.column_rank``, the same
GF(p) elimination kernel behind matrix ranks; dimensions are reported as a
sparse mapping degree -> dimension (degree -1 is the empty-face slot).

The maps are built once per complex and field (``BoundaryMaps``), on all
of the complex's faces sorted by (cardinality, bitmask).  An induced
subcomplex selects its faces (``faces_by_cardinality``) and ranks their
stored columns: its rows keep their order, so each column has the pivot
it would have in the subcomplex's own map.  Only the signs depend on p, so
the faces selected for one restriction serve every field.

The maps are ranked from the largest faces down, with clearing (the
"twist" of persistent-homology codes): a face whose row is a pivot of the
map one dimension up gets no column in its own map.  The pivot column
there is a boundary, hence a cycle, whose largest face is that face, so
the face's boundary is a combination of the boundaries of smaller faces
and cannot add to the rank.

Restrictions are reduced in pairs: with top the largest element of a
restriction, its faces without top form the restriction one element
smaller, and they come first in every bucket.  So one top-down reduction
ranks their columns first and then extends that basis by the rest, and
gives both homologies; 2^n restrictions take 2^(n-1) reductions.  Clearing
by the larger restriction's pivots stays valid for the smaller one: a
cleared face without top is the largest face of a cycle, whose other faces
are smaller in bitmask order, so they lack top too.
"""

from __future__ import annotations

from bisect import bisect_left
from math import comb
from typing import Iterable, NamedTuple

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
    """A complex's faces sorted by (cardinality, bitmask), in three forms."""

    buckets: list[list[int]]  # bucket c: the card-c faces in bitmask order
    masks: np.ndarray  # the buckets concatenated
    starts: list[int]  # bucket c is masks[starts[c]:starts[c + 1]]
    position: dict[int, int]  # face -> its index in its bucket


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
            flat = masks.tolist()
            buckets = [flat[a:b] for a, b in zip(starts, starts[1:])]
            position = {m: i for bucket in buckets for i, m in enumerate(bucket)}
            self._face_lists = FaceLists(buckets, masks, starts, position)
        return self._face_lists

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
    """Boundary map from the span of ``upper`` faces to the span of ``lower`` faces.

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


class BoundaryMaps:
    """Every boundary map of a complex over GF(p), built once on all its faces.

    ``columns[c][j]`` is the boundary of the j-th card-c face of the complex
    (``boundary_matrix`` over the full card-(c-1) and card-c face lists),
    and ``position`` gives each face's place in its cardinality bucket.  A
    restriction's faces keep their relative bitmask order among all the
    complex's faces, so the columns of its card-c faces, with rows keyed by
    these global positions, form its own map with the same largest row in
    every column: the same pivots and the same clearing.  Only the signs
    depend on p; the face lists are the complex's, shared by every field.
    """

    def __init__(self, cx: SimplicialComplex, p: int):
        faces = cx.face_lists()
        self.p = p
        self.position = faces.position
        pairs = zip(faces.buckets, faces.buckets[1:])
        self.columns = [[], *(boundary_matrix(lower, upper, p) for lower, upper in pairs)]


def homology_from_buckets(
    buckets: list[list[int]], maps: BoundaryMaps, top: int | None = None
) -> dict[int, int] | tuple[dict[int, int], dict[int, int]]:
    """Reduced homology dimensions over GF(maps.p) of a subcomplex given by
    face buckets, ranking the columns ``maps`` stores for its faces.

    The boundary maps are ranked from the largest faces down, with clearing:
    the pivot rows left by the map on card-(c+1) faces index card-c faces,
    and those faces are left out of the map on card-c faces.  A stored pivot
    column is a boundary, hence a cycle, with its largest face sigma (in
    bitmask order, the order of the rows) at coefficient 1.  So the boundary
    of sigma is a combination of the boundaries of faces below sigma, and by
    induction on sigma it lies in the span of the columns kept: leaving it
    out does not change the rank.

    With ``top``, a one-bit mask at or above every element of the faces,
    the same sweep also gives the homology of the subcomplex of the
    faces without top, and the pair (dims, dims without top) is returned.
    In every bucket those faces come first, below the cut
    ``bisect_left(bucket, top)``; their kept columns are ranked first, into
    an empty basis, and the rest then extend it, so the count after the
    first call is the smaller complex's rank and the total is the larger
    one's.  Clearing with the larger complex's pivots stays valid for the
    smaller one: a cleared face tau without top is the largest face of a
    cycle, every other face of that cycle is smaller in bitmask order, so it
    has no top either and lies in the smaller complex, and the argument
    above runs there unchanged.

    Returns a sparse mapping degree -> dim with zero entries omitted; the
    void complex gives {}.
    """
    cuts = [len(b) if top is None else bisect_left(b, top) for b in buckets]
    # ranks[c], low_ranks[c]: rank of the boundary map from card-c faces to
    # card-(c-1) faces, of the whole subcomplex and of its faces below the cut
    ranks = [0] * (len(buckets) + 1)
    low_ranks = [0] * (len(buckets) + 1)
    pivots: dict[int, dict[int, int]] = {}
    position, p = maps.position, maps.p
    for c in range(len(buckets) - 1, 0, -1):
        # pivots still holds the echelon basis of the map on card-(c+1) faces
        columns, faces, cut = maps.columns[c], buckets[c], cuts[c]
        low = [columns[j] for j in map(position.__getitem__, faces[:cut]) if j not in pivots]
        high = [columns[j] for j in map(position.__getitem__, faces[cut:]) if j not in pivots]
        pivots = {}
        low_ranks[c] = column_rank(low, p, pivots)
        ranks[c] = low_ranks[c] + column_rank(high, p, pivots)

    def dims(sizes, rank):
        found = {c - 1: size - rank[c] - rank[c + 1] for c, size in enumerate(sizes)}
        return {d: h for d, h in found.items() if h}

    whole = dims(map(len, buckets), ranks)
    return whole if top is None else (whole, dims(cuts, low_ranks))


def reduced_homology(cx: SimplicialComplex, field: PrimeField | int = 2) -> dict[int, int]:
    """Reduced homology dimensions of the complex over GF(p), sparse by degree:
    the restriction to the whole ground set."""
    p = as_field(field).p
    if cx.is_void:
        return {}
    return homology_from_buckets(faces_by_cardinality(cx, (1 << cx.n) - 1), BoundaryMaps(cx, p))


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
