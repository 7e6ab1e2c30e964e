"""Matroids on bitmask ground sets: rank/nullity, circuits, duality, restriction.

Subsets of the ground set {0, ..., n-1} are bitmasks throughout; element i
corresponds to bit ``1 << i``.  A matroid's one source of truth is its dense
rank table, one int8 per subset, indexed by bitmask.  A matrix matroid
whose row space has at most WORD_TABLE_MAX words builds it from those
words: the words vanishing on a subset S number p^(k - r(S)), so one
histogram of zero sets, one superset-sum and a count of powers of p give
every rank at once (``_word_table``).  A matrix matroid above that bound
builds it by a depth-first search over the independent sets, each node
carrying the echelon basis of its set's columns, so testing one more
element reduces that one column (``_echelon_search_table``).  Bases,
circuits and uniform matroids are built table first: their independence
indicator over the 2^n subsets is a bit sweep over the given sets, their
axioms are one purity check on it (``impure_restriction``), and the table
is one subset-max of |I| over the independent I.  Circuits, bases, loops,
isthmuses, duals and restrictions are all read off the table.  It costs
2^n bytes and O(n 2^n) sweeps, so ground sets are capped (default 20)
instead of silently hanging.

Beyond the usual matroid calculus this module implements the non-redundant
circuit machinery: a family of circuits is non-redundant when each member
owns an element private to it, and the maximum size of such a family inside
a subset equals the subset's nullity.  ``nonredundant_witness`` constructs a
family of exactly that size.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

from .finfield import FieldMatrix, column_rank

DEFAULT_MAX_GROUND = 20


class CapExceeded(ValueError):
    """Ground set larger than the configured bitmask cap."""


def sweep_cost(n: int) -> str:
    """The work and memory of one subset sweep over n elements, for messages."""
    if n > 64:
        return f"2^{n} subsets, with a rank table of 2^{n} bytes"
    shift, unit = next((s, u) for s, u in ((20, "MiB"), (10, "KiB"), (0, "bytes")) if n >= s)
    return f"2^{n} = {1 << n} subsets, with a {1 << (n - shift)} {unit} rank table"


def check_cap(n: int, max_n: int, sweeps: str = "subset sweeps") -> None:
    """Refuse a ground set above the cap before anything sized by it is built."""
    if n > max_n:
        raise CapExceeded(
            f"ground set size {n} exceeds the cap {max_n}; {sweeps} cover {sweep_cost(n)};"
            f" raise max_n explicitly to proceed"
        )


def mask_of(elems: Iterable[int]) -> int:
    """Bitmask of a collection of 0-based elements."""
    m = 0
    for e in elems:
        if e < 0:
            raise ValueError(f"negative element {e}")
        m |= 1 << e
    return m


def elements(mask: int) -> tuple[int, ...]:
    """Sorted 0-based elements of a bitmask."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def bit_halves(values: np.ndarray):
    """Per bit j, views of a per-subset array at the masks holding bit j and
    at the same masks without it: one reshape into blocks of 2^(j+1) masks."""
    step = 1
    while step < values.size:
        blocks = values.reshape(-1, 2 * step)
        yield blocks[:, step:], blocks[:, :step]
        step *= 2


def subset_max(values: np.ndarray) -> np.ndarray:
    """Per mask, the largest value at any of its submasks (in place)."""
    for with_bit, without in bit_halves(values):
        np.maximum(with_bit, without, out=with_bit)
    return values


def popcounts(n: int) -> np.ndarray:
    """|mask| for every mask below 2^n, as int8."""
    pop = np.zeros(1 << n, dtype=np.int8)
    for with_bit, _ in bit_halves(pop):
        with_bit += 1
    return pop


def each_element(values: np.ndarray, holds) -> np.ndarray:
    """Per mask: does ``holds(values[mask], values[mask ^ bit])`` hold for
    every bit of mask?  The empty mask holds vacuously."""
    out = np.ones(values.size, dtype=bool)
    for (out_with, _), (with_bit, without) in zip(bit_halves(out), bit_halves(values)):
        out_with &= holds(with_bit, without)
    return out


def downward_closure(n: int, masks: Iterable[int]) -> np.ndarray:
    """Per mask below 2^n: does it lie inside one of ``masks``?"""
    out = np.zeros(1 << n, dtype=bool)
    out[list(masks)] = True
    for with_bit, without in bit_halves(out):
        without |= with_bit
    return out


def one_based(mask: int) -> str:
    """A subset as its 1-based elements, the way users number them: {1,3,4}."""
    return "{" + ",".join(str(e + 1) for e in elements(mask)) + "}"


def impure_restriction(face: np.ndarray) -> tuple[int, int] | None:
    """A face F and a set S such that F is a facet of the subcomplex induced
    on S but smaller than its largest face, or None if every induced
    subcomplex is pure, i.e. ``face`` indicates a matroid complex.

    F is maximal on S exactly when S avoids ext(F), the elements x outside F
    with F + x a face.  So it is enough to try S = E - ext(F) for each face F,
    the largest such set, against r(S), the largest face size over S.  r
    comes from one subset-max sweep and ext from one sweep per element.
    """
    n = face.size.bit_length() - 1
    size = popcounts(n)
    r = subset_max(size * face)
    ext = np.zeros(1 << n, dtype=np.int64)
    for j, ((face_with, _), (_, ext_without)) in enumerate(
        zip(bit_halves(face), bit_halves(ext))
    ):
        ext_without[face_with] |= 1 << j
    faces = np.flatnonzero(face)
    spans = ((1 << n) - 1) & ~ext[faces]
    bad = np.flatnonzero(r[spans] != size[faces])
    return (int(faces[bad[0]]), int(spans[bad[0]])) if bad.size else None


def _require_pure(independent: np.ndarray, axiom: str) -> None:
    if (bad := impure_restriction(independent)) is not None:
        raise ValueError(
            f"{axiom} fails: {one_based(bad[0])} is a maximal independent subset of"
            f" {one_based(bad[1])}, but not a largest one"
        )


# A matrix matroid whose row space has at most this many words (p^k, with
# k = rank H) gets its rank table from the zero sets of those words; above
# it, from the echelon-extending search, whose cost follows the number of
# independent sets instead.  2^22 covers GF(2) with k = 22, GF(3) with
# k = 12 and GF(5) with k = 8, and keeps the int32 counts below 2^31.
WORD_TABLE_MAX = 1 << 22
# Head words compared per tail: bounds the word builder's working arrays
# (int64 while built, so 1 MB at n = 16).
_HEAD_WORDS = 1 << 12


def _echelon_search_table(H: FieldMatrix) -> np.ndarray:
    """Rank table of H's column matroid from a depth-first search over the
    independent sets.

    The search tests only whether I + x is independent, for x above max(I),
    and so reaches each independent set once from its parent I - max(I).
    Each node carries the echelon basis of its set's columns, so I + x is
    independent iff column x adds a pivot to that basis.  A subset-max
    transform then gives every subset S its rank, the largest |I| over
    independent I inside S.
    """
    n, columns, p = H.cols, H.columns, H.field.p
    found = bytearray(1 << n)  # |I| at each independent I, 0 elsewhere
    # (independent set, smallest element that may extend it, its echelon basis)
    stack = [(0, 0, {})]
    while stack:
        indep, start, pivots = stack.pop()
        size = found[indep] + 1
        for x in range(start, n):
            child = dict(pivots)
            if column_rank((columns[x],), p, child):
                cand = indep | 1 << x
                found[cand] = size
                stack.append((cand, x + 1, child))
    return subset_max(np.frombuffer(found, dtype=np.int8))


def _span(rows: np.ndarray, p: int) -> np.ndarray:
    """All p^len(rows) combinations of ``rows`` over GF(p), one per row."""
    n = rows.shape[1]
    words = np.zeros((1, n), dtype=np.int64)
    for row in rows:
        words = np.arange(p)[:, None, None] * row + words
        words %= p
        words = words.reshape(words.shape[0] * words.shape[1], n)
    return words


def _points(rows: np.ndarray, p: int) -> np.ndarray:
    """One combination of ``rows`` per point of the projective space over
    them: those whose first nonzero coefficient is 1."""
    return np.concatenate(
        [np.zeros((0, rows.shape[1]), dtype=np.int64)]
        + [(row + _span(rows[i + 1 :], p)) % p for i, row in enumerate(rows)]
    )


def _word_table(H: FieldMatrix) -> np.ndarray | None:
    """Rank table of H's column matroid from the words of its row space, or
    None when that space has more than WORD_TABLE_MAX words.

    With k = rank H, the words y.H (y in GF(p)^k, over an echelon basis of
    H's rows) that vanish on a subset S form the left kernel of the columns
    in S, of p^(k - r(S)) words.  A word's zero set is that of every nonzero
    multiple, so one word per projective point y is enumerated, and S is
    hit by (p^(k - r(S)) - 1) / (p - 1) of them.  Zero sets are binned by
    mask and superset-summed, and r(S) is k minus the number of j >= 1 with
    at least (p^j - 1) / (p - 1) hits.

    The points are enumerated as heads times tails: y splits into a tail on
    the first rows and a head on the last h, with p^h <= _HEAD_WORDS.  A
    point has a normalized nonzero tail and any head, or a zero tail and a
    normalized head.  The word tail + head vanishes where head == -tail; as
    the heads run over a whole span, comparing with +tail counts the same.
    """
    p, n = H.field.p, H.cols
    pivots: dict[int, dict[int, int]] = {}
    column_rank(({c: v for c, v in enumerate(row) if v} for row in H.entries), p, pivots)
    k = len(pivots)
    if p**k > WORD_TABLE_MAX:
        return None
    basis = np.zeros((k, n), dtype=np.int64)
    for i, row in enumerate(pivots.values()):
        basis[i, list(row)] = list(row.values())
    h = k
    while p**h > _HEAD_WORDS:
        h -= 1
    word = np.min_scalar_type(p - 1)
    heads = _span(basis[k - h :], p).astype(word)
    tails = _points(basis[: k - h], p).astype(word)
    zero_sets = itertools.chain([_points(basis[k - h :], p) == 0], (heads == tail for tail in tails))
    # Zero sets packed into little-endian int64 masks, binned a buffer at a
    # time, so that a bincount of 2^n runs per 2^(n-2) points, not per tail.
    points = (p**k - 1) // (p - 1)
    buffer = np.zeros((min(points, max(_HEAD_WORDS, (1 << n) >> 2)), 8), dtype=np.uint8)
    hits = np.zeros(1 << n, dtype=np.int32)
    filled = 0
    for chunk in zero_sets:
        if filled + len(chunk) > len(buffer):
            hits += np.bincount(buffer[:filled].view("<i8").ravel(), minlength=1 << n)
            filled = 0
        buffer[filled : filled + len(chunk), : (n + 7) // 8] = np.packbits(
            chunk, axis=1, bitorder="little"
        )
        filled += len(chunk)
    hits += np.bincount(buffer[:filled].view("<i8").ravel(), minlength=1 << n)
    for with_bit, without in bit_halves(hits):
        without += with_bit
    table = np.full(1 << n, k, dtype=np.int8)
    for j in range(1, k + 1):
        table -= hits >= (p**j - 1) // (p - 1)
    return table


class Matroid:
    """A matroid on bitmask subsets of {0..n-1}, given by its rank table.

    Every query reads the dense rank table.  A matrix matroid builds it on
    first use, from the zero sets of its row space's words or, with more
    than WORD_TABLE_MAX words, by extending echelon bases.  Bases, circuits,
    uniform matroids, duals and restrictions build it at construction.  A
    bare ``Matroid(n, rank_fn)`` asks its rank oracle once per subset, on
    first use.  Instances are immutable after construction, and the table
    is read-only.
    """

    def __init__(
        self,
        n: int,
        rank_fn: Callable[[int], int] | None,
        max_n: int = DEFAULT_MAX_GROUND,
    ):
        if n < 0:
            raise ValueError("ground set size must be >= 0")
        check_cap(n, max_n)
        self.n = n
        self.max_n = max_n
        self._rank_fn = rank_fn
        # Builds the rank table; None asks rank_fn for every subset.
        self._build: Callable[[], np.ndarray] | None = None
        self._table: np.ndarray | None = None
        self._circuits: tuple[int, ...] | None = None
        self._bases: tuple[int, ...] | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_matrix(cls, H: FieldMatrix, max_n: int = DEFAULT_MAX_GROUND) -> "Matroid":
        """Column matroid of a matrix over GF(p): rank(sigma) = rank of those columns."""

        def build() -> np.ndarray:
            table = _word_table(H)
            return _echelon_search_table(H) if table is None else table

        M = cls(H.cols, None, max_n)
        M.matrix = H
        M._build = build
        return M

    @classmethod
    def from_bases(
        cls, n: int, bases: Iterable[Iterable[int]], max_n: int = DEFAULT_MAX_GROUND
    ) -> "Matroid":
        """Matroid with the given bases; the exchange axiom is validated: it
        holds exactly when the bases' subsets form a matroid complex."""
        check_cap(n, max_n)
        base_masks = sorted({mask_of(b) for b in bases})
        if not base_masks:
            raise ValueError("a matroid needs at least one basis")
        for b in base_masks:
            if b >> n:
                raise ValueError(f"basis {one_based(b)} is not inside the ground set of size {n}")
        sizes = {b.bit_count() for b in base_masks}
        if len(sizes) != 1:
            raise ValueError(f"bases are not equicardinal: sizes {sorted(sizes)}")
        independent = downward_closure(n, base_masks)
        _require_pure(independent, "basis exchange axiom")
        return cls._of_table(n, subset_max(popcounts(n) * independent), max_n)

    @classmethod
    def from_circuits(
        cls, n: int, circuits: Iterable[Iterable[int]], max_n: int = DEFAULT_MAX_GROUND
    ) -> "Matroid":
        """Matroid with the given circuit collection; circuit axioms are validated.

        An antichain of circuits satisfies elimination exactly when the sets
        holding none of them form a matroid complex."""
        check_cap(n, max_n)
        circ_masks = sorted({mask_of(c) for c in circuits}, key=lambda m: (m.bit_count(), m))
        for c in circ_masks:
            if c == 0:
                raise ValueError("the empty set cannot be a circuit")
            if c >> n:
                raise ValueError(f"circuit {one_based(c)} is not inside the ground set of size {n}")
        # S holds a circuit C exactly when E - S lies inside E - C.
        dependent = downward_closure(n, (((1 << n) - 1) ^ c for c in circ_masks))[::-1]
        minimal = each_element(dependent, lambda _, smaller: ~smaller)
        for c in circ_masks:
            if not minimal[c]:
                inner = next(d for d in circ_masks if d != c and d & ~c == 0)
                raise ValueError(
                    f"circuits must form an antichain: {one_based(inner)} and {one_based(c)}"
                )
        independent = ~dependent
        _require_pure(independent, "circuit elimination axiom")
        return cls._of_table(n, subset_max(popcounts(n) * independent), max_n)

    @classmethod
    def uniform(cls, r: int, n: int, max_n: int = DEFAULT_MAX_GROUND) -> "Matroid":
        """The uniform matroid U(r, n): every r-subset is a basis."""
        if not 0 <= r <= n:
            raise ValueError(f"uniform matroid needs 0 <= r <= n, got r={r}, n={n}")
        check_cap(n, max_n)
        return cls._of_table(n, np.minimum(popcounts(n), r), max_n)

    @classmethod
    def _of_table(cls, n: int, table: np.ndarray, max_n: int) -> "Matroid":
        """The matroid on n elements with this rank table, built at construction."""
        table.setflags(write=False)
        M = cls(n, None, max_n)
        M._table = table
        return M

    # -- the rank table --------------------------------------------------

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def rank_table(self) -> np.ndarray:
        """Ranks of all 2^n subsets as a read-only int8 array indexed by bitmask.

        Built once.  A matrix matroid builds it on first use: with at most
        WORD_TABLE_MAX words in its row space it counts, per subset, the
        words vanishing there (``_word_table``); otherwise a depth-first
        search over its independent sets extends echelon bases
        (``_echelon_search_table``).  Every other constructor builds it at
        construction, except a bare oracle matroid, which asks its rank
        oracle once per subset here.
        """
        if self._table is None:
            if self._build is None:
                size = 1 << self.n
                table = np.fromiter(map(self._rank_fn, range(size)), dtype=np.int8, count=size)
            else:
                table = self._build()
            table.setflags(write=False)
            self._table = table
        return self._table

    def rank(self, mask: int) -> int:
        if mask < 0 or mask > self.full:
            raise ValueError("subset is not inside the ground set")
        return self.rank_table().item(mask)

    def nullity(self, mask: int) -> int:
        return mask.bit_count() - self.rank(mask)

    def is_independent(self, mask: int) -> bool:
        return self.rank(mask) == mask.bit_count()

    # -- derived structure ----------------------------------------------

    def circuits(self) -> tuple[int, ...]:
        """All circuits (minimal dependent sets) as bitmasks, by (size, mask).

        A circuit is a dependent set whose one-smaller subsets are all
        independent.
        """
        if self._circuits is None:
            independent = self.rank_table() == popcounts(self.n)
            minimal = each_element(independent, lambda _, smaller: smaller)
            found = np.flatnonzero(~independent & minimal).tolist()
            self._circuits = tuple(sorted(found, key=lambda m: (m.bit_count(), m)))
        return self._circuits

    def bases(self) -> tuple[int, ...]:
        """All bases (independent sets of full rank) as increasing bitmasks."""
        if self._bases is None:
            table = self.rank_table()
            top = table[-1]
            self._bases = tuple(np.flatnonzero((table == top) & (popcounts(self.n) == top)).tolist())
        return self._bases

    def loops(self) -> int:
        """Bitmask of rank-zero elements."""
        table = self.rank_table()
        return mask_of(x for x in range(self.n) if table[1 << x] == 0)

    def isthmuses(self) -> int:
        """Bitmask of elements lying in no circuit (loops of the dual)."""
        table = self.rank_table()
        return mask_of(x for x in range(self.n) if table[self.full ^ (1 << x)] < table[-1])

    def dual(self) -> "Matroid":
        """Matroid whose bases are the complements of this one's bases:
        rank*(S) = |S| + rank(E - S) - rank(E)."""
        table = self.rank_table()
        dual = popcounts(self.n) + table[::-1] - table[-1]
        return self._of_table(self.n, dual, self.max_n)

    def restrict(self, mask: int) -> "Matroid":
        """Restriction to ``mask``, reindexed onto {0..|mask|-1}."""
        if mask < 0 or mask > self.full:
            raise ValueError("subset is not inside the ground set")
        elems = elements(mask)
        parent_mask = np.zeros(1 << len(elems), dtype=np.int64)
        for j, e in enumerate(elems):
            parent_mask[1 << j : 2 << j] = parent_mask[: 1 << j] | (1 << e)
        table = self.rank_table()[parent_mask]
        return self._of_table(len(elems), table, self.max_n)


# -- non-redundant circuit calculus -------------------------------------


def _validate_circuit(M: Matroid, mask: int) -> None:
    if M.nullity(mask) != 1:
        raise ValueError(f"{one_based(mask)} is not a circuit (nullity != 1)")
    m = mask
    while m:
        b = m & -m
        m ^= b
        if not M.is_independent(mask ^ b):
            raise ValueError(f"{one_based(mask)} is not a circuit (a proper subset is dependent)")


def _private_parts(family: Sequence[int]) -> list[int]:
    """Per member, the elements of it that no other member holds."""
    seen = shared = 0  # elements in at least one / at least two members
    for c in family:
        shared |= seen & c
        seen |= c
    return [c & ~shared for c in family]


def is_nonredundant(M: Matroid, circuits: Sequence[int]) -> bool:
    """Does every given circuit own an element private to it within the family?"""
    circs = list(circuits)
    for c in circs:
        _validate_circuit(M, c)
    return all(_private_parts(circs))


def circuit_within(M: Matroid, mask: int) -> int | None:
    """Some circuit contained in ``mask``, or None if the set is independent.

    Deterministic: repeatedly drops the smallest element whose removal keeps
    the set dependent.
    """
    if M.is_independent(mask):
        return None
    tau = mask
    for x in elements(mask):
        cand = tau & ~(1 << x)
        if tau & (1 << x) and M.nullity(cand) >= 1:
            tau = cand
    return tau


def nonredundant_witness(M: Matroid, sigma: int) -> tuple[int, ...]:
    """A family of exactly nullity(sigma) non-redundant circuits inside sigma.

    Built by peeling one circuit element at a time and re-extending: among
    the circuits inside sigma through the freed element, the one meeting the
    fewest private markers of the current family is added (smallest bitmask
    first on ties).  The extension step always finds a circuit avoiding all
    markers, which keeps the family non-redundant.
    """
    d = M.nullity(sigma)
    if d == 0:
        return ()
    tau = circuit_within(M, sigma)
    xbit = tau & -tau
    fam = nonredundant_witness(M, sigma & ~xbit)
    if len(fam) != d - 1:
        raise AssertionError("peeling a circuit element must drop the nullity by exactly 1")
    markers = 0
    for priv in _private_parts(fam):
        markers |= priv & -priv
    cands = [c for c in M.circuits() if c & ~sigma == 0 and c & xbit]
    best = min(cands, key=lambda c: ((c & markers).bit_count(), c))
    if best & markers:
        raise AssertionError("circuit elimination guarantees a marker-free extension")
    return fam + (best,)


def nonredundancy_degree(M: Matroid, sigma: int) -> int:
    """Maximum size of a non-redundant circuit family inside ``sigma``.

    Computed constructively via ``nonredundant_witness``; equals the nullity.
    """
    return len(nonredundant_witness(M, sigma))
