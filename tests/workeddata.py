"""Worked-example data shared by the test modules (element labels 1-based)."""

from pathlib import Path

from ghw.matroid import mask_of

DATA = Path(__file__).resolve().parent.parent / "data"


def pm(*elems):
    """Bitmask of 1-based elements."""
    return mask_of(e - 1 for e in elems)


def pset(groups):
    return {pm(*g) for g in groups}


BASES_M1 = [
    (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 3, 6),
    (2, 4, 5), (2, 4, 6), (2, 5, 6), (3, 4, 5), (3, 4, 6), (3, 5, 6),
]
CIRCUITS_M1 = [(1, 2, 3, 4), (1, 4, 5), (1, 6), (2, 3, 4, 6), (2, 3, 5), (4, 5, 6)]
ALEXANDER_FACETS_M1 = [(1, 2, 3), (1, 4, 6), (1, 5), (2, 3, 4, 5), (2, 3, 6), (5, 6)]

BASES_M2 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
BASES_M3 = [(1, 2), (1, 3), (2, 4), (3, 4)]
BASES_M4 = [(1, 2), (1, 3), (1, 4)]
BASES_M5 = [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]

# The listed basis sets of the GF(2) matroid of h6.txt and the GF(5) matroid
# of h8.txt coincide: same matroid represented over two fields.
BASES_M6 = [
    (1, 2, 3), (1, 2, 4), (1, 2, 6), (1, 3, 5), (1, 3, 6), (1, 4, 5), (1, 4, 6),
    (1, 5, 6), (2, 3, 4), (2, 3, 5), (2, 4, 5), (2, 4, 6), (2, 5, 6), (3, 4, 5),
    (3, 4, 6), (3, 5, 6),
]
BASES_M8 = BASES_M6

BASES_M9 = [
    (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 3, 6),
    (1, 4, 5), (1, 4, 6), (1, 5, 6), (2, 3, 6), (2, 4, 6), (2, 5, 6), (3, 4, 6),
    (3, 5, 6), (4, 5, 6),
]

# all 3-subsets of {1..6} containing 2
BASES_M7 = [
    (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (2, 3, 4), (2, 3, 5), (2, 3, 6),
    (2, 4, 5), (2, 4, 6), (2, 5, 6),
]

GRADED_M1 = {(0, 0): 1, (1, 2): 1, (1, 3): 3, (1, 4): 2, (2, 4): 2, (2, 5): 7, (3, 6): 4}
GRADED_M6 = {(0, 0): 1, (1, 3): 4, (1, 4): 3, (2, 5): 12, (3, 6): 6}
GRADED_M7 = {(0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6}
DUAL_GRADED_M1 = {(0, 0): 1, (1, 3): 13, (2, 4): 25, (3, 5): 17, (4, 6): 4}
DUAL_GRADED_M8_M9 = {(0, 0): 1, (1, 3): 16, (2, 4): 33, (3, 5): 24, (4, 6): 6}
DUAL_GRADED_M2 = {(0, 0): 1, (1, 2): 5, (2, 3): 6, (3, 4): 2}
DUAL_GRADED_M3 = {(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1}

# Two triangulations whose homology sits in more than one degree.  The
# 6-vertex real projective plane has 2-torsion, so its homology depends on the
# field (Reisner's example); the 7-vertex torus has the same homology over
# every field.
RP2_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
    (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
]
TORUS_FACETS = [
    tuple(sorted((i + s) % 7 + 1 for s in shape)) for shape in ((0, 1, 3), (0, 2, 3)) for i in range(7)
]

WHITNEY_M1 = {
    (3, 0): 1, (2, 1): 1, (2, 0): 6, (1, 2): 1, (1, 1): 7, (1, 0): 14,
    (0, 3): 1, (0, 2): 6, (0, 1): 14, (0, 0): 13,
}


def diagram_rows(text):
    """Diagram body lines with runs of spaces collapsed, header dropped."""
    return [" ".join(line.split()) for line in text.splitlines()[1:]]
