"""Weight hierarchies of linear codes and matroids via Stanley-Reisner Betti numbers.

The pipeline: a parity check matrix over GF(p) (or an abstract matroid given
by bases or circuits) determines a matroid; the independent sets form a
simplicial complex; the minimal free resolution of its Stanley-Reisner ring
has graded Betti numbers whose minimal degrees are exactly the generalized
Hamming weights.  Everything is computed twice: a combinatorial fast path
that never touches homology, and an independent reduced-homology oracle.
"""

from .finfield import FieldMatrix, PrimeField, matrix_rank
from .matroid import CapExceeded, Matroid, mask_of, elements
from .simplicial import SimplicialComplex, independence_complex, reduced_homology
from .betti import (
    BettiTable,
    betti_fine_alexander,
    betti_fine_hochster,
    betti_fine_matroid,
    render_diagram,
)
from .weights import (
    clifford_and_gonality,
    mds_profile,
    support_size,
    wei_duality_check,
    weight_report,
    weights_bruteforce,
    weights_from_betti,
    whitney_polynomial,
)

__all__ = [
    "BettiTable",
    "CapExceeded",
    "FieldMatrix",
    "Matroid",
    "PrimeField",
    "SimplicialComplex",
    "betti_fine_alexander",
    "betti_fine_hochster",
    "betti_fine_matroid",
    "clifford_and_gonality",
    "elements",
    "independence_complex",
    "mask_of",
    "matrix_rank",
    "mds_profile",
    "reduced_homology",
    "render_diagram",
    "support_size",
    "wei_duality_check",
    "weight_report",
    "weights_bruteforce",
    "weights_from_betti",
    "whitney_polynomial",
]

__version__ = "0.1.0"
