"""Facet-represented simplicial complexes and reduced homology over GF(p).

A complex on ground set {0..n-1} is stored as its antichain of facets
(bitmasks).  The empty complex {emptyset} has the single facet 0; a complex
with no faces at all (the void complex) has no facets.

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
"""

from __future__ import annotations

from math import comb
from typing import Iterable, NamedTuple

import numpy as np

from .finfield import PrimeField, as_field, column_rank
from .matroid import (
    DEFAULT_MAX_GROUND,
    bit_halves,
    check_cap,
    elements,
    popcounts,
    subset_max,
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


def _maximalize(masks: Iterable[int]) -> tuple[int, ...]:
    uniq = sorted(set(masks), key=lambda m: (-m.bit_count(), m))
    kept: list[int] = []
    for m in uniq:
        if not any(m & ~k == 0 for k in kept):
            kept.append(m)
    return tuple(sorted(kept, key=lambda m: (m.bit_count(), m)))


class SimplicialComplex:
    """A simplicial complex given by its facets (maximal faces) as bitmasks."""

    def __init__(self, n: int, facets: Iterable[int], max_n: int = DEFAULT_MAX_GROUND):
        if n < 0:
            raise ValueError("ground set size must be >= 0")
        check_cap(n, max_n, "face sweeps")
        facets = tuple(facets)
        for f in facets:
            if f < 0 or f >> n:
                raise ValueError(f"facet {elements(f)} is not inside the ground set of size {n}")
        self.n = n
        self.facets = _maximalize(facets)
        self._face_table: bytearray | None = None
        self._face_lists: FaceLists | None = None

    @property
    def is_void(self) -> bool:
        return not self.facets

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.n == other.n and self.facets == other.facets

    def __hash__(self):
        return hash((self.n, self.facets))

    def __repr__(self):
        shown = [elements(f) for f in self.facets[:6]]
        more = "..." if len(self.facets) > 6 else ""
        return f"SimplicialComplex(n={self.n}, facets={shown}{more})"

    def dim(self) -> int:
        """Dimension: one less than the largest facet size; -1 for {emptyset}."""
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return max(f.bit_count() for f in self.facets) - 1

    def face_table(self) -> bytearray:
        """Indicator of all faces, indexed by bitmask (downward closure of facets)."""
        if self._face_table is None:
            table = bytearray(1 << self.n)
            for f in self.facets:
                table[f] = 1
            for mask in range((1 << self.n) - 1, -1, -1):
                if table[mask]:
                    m = mask
                    while m:
                        b = m & -m
                        m ^= b
                        table[mask ^ b] = 1
            self._face_table = table
        return self._face_table

    def face_lists(self) -> FaceLists:
        """All faces sorted by (cardinality, bitmask), computed once."""
        if self._face_lists is None:
            masks = np.flatnonzero(np.frombuffer(self.face_table(), dtype=np.uint8))
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
        if self.is_void:
            return ()
        counts = [0] * (self.dim() + 2)
        table = self.face_table()
        for mask in range(1 << self.n):
            if table[mask]:
                counts[mask.bit_count()] += 1
        return tuple(counts)

    def restrict(self, sigma: int) -> "SimplicialComplex":
        """Faces meeting sigma, i.e. the induced subcomplex on sigma (same labels)."""
        return SimplicialComplex(self.n, (f & sigma for f in self.facets), max_n=self.n)

    def minimal_nonfaces(self) -> tuple[int, ...]:
        """Minimal non-faces; these generate the Stanley-Reisner ideal."""
        table = self.face_table()
        out = []
        for mask in range(1 << self.n):
            if table[mask]:
                continue
            m = mask
            minimal = True
            while m:
                b = m & -m
                m ^= b
                if not table[mask ^ b]:
                    minimal = False
                    break
            if minimal:
                out.append(mask)
        return tuple(sorted(out, key=lambda m: (m.bit_count(), m)))

    def alexander_dual(self) -> "SimplicialComplex":
        """Complex whose faces are complements of the non-faces of this one.

        Its facets are the complements of the minimal non-faces; for an
        independence complex those are the complements of the circuits.
        """
        full = (1 << self.n) - 1
        return SimplicialComplex(
            self.n, (full ^ m for m in self.minimal_nonfaces()), max_n=self.n
        )

    def is_matroid_complex(self) -> bool:
        """Is every induced subcomplex pure (the matroid complex criterion)?

        A face F is maximal in the subcomplex induced on S exactly when S
        avoids ext(F), the elements x outside F with F + x a face.  So all
        such subcomplexes are pure iff every face F has the largest face
        size r(S) over S = E - ext(F) equal to |F|.  r comes from one
        subset-max sweep and ext from one sweep per element.
        """
        if self.is_void:
            return False
        n = self.n
        face = np.frombuffer(self.face_table(), dtype=bool)
        size = popcounts(n)
        r = subset_max(size * face)
        ext = np.zeros(1 << n, dtype=np.int64)
        for j, ((face_with, _), (_, ext_without)) in enumerate(
            zip(bit_halves(face), bit_halves(ext))
        ):
            ext_without[face_with] |= 1 << j
        faces = np.flatnonzero(face)
        return bool((r[((1 << n) - 1) & ~ext[faces]] == size[faces]).all())


def independence_complex(M) -> SimplicialComplex:
    """The complex of independent sets of a matroid; facets are the bases."""
    return SimplicialComplex(M.n, M.bases(), max_n=M.max_n)


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
        table = cx.face_table()
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


def homology_from_buckets(buckets: list[list[int]], maps: BoundaryMaps) -> dict[int, int]:
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

    Returns a sparse mapping degree -> dim with zero entries omitted; the
    void complex gives {}.
    """
    # ranks[c]: rank of the boundary map from card-c faces to card-(c-1) faces
    ranks = [0] * (len(buckets) + 1)
    pivots: dict[int, dict[int, int]] = {}
    position = maps.position
    for c in range(len(buckets) - 1, 0, -1):
        # pivots still holds the echelon basis of the map on card-(c+1) faces
        columns = maps.columns[c]
        kept = [columns[j] for j in map(position.__getitem__, buckets[c]) if j not in pivots]
        pivots = {}
        ranks[c] = column_rank(kept, maps.p, pivots)
    dims = {c - 1: len(faces) - ranks[c] - ranks[c + 1] for c, faces in enumerate(buckets)}
    return {d: h for d, h in dims.items() if h}


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
