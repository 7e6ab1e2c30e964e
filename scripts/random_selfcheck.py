#!/usr/bin/env python3
"""Cross-check the fast Betti paths against the homology oracle on random matroids.

The oracle runs over GF(2), GF(3), GF(5) and the matrix's own field in one
sweep over the restrictions, and every one of its tables must equal the fast
path's: a matroid complex's homology does not depend on the field.  The same
sweep on the Alexander dual of the independence complex of the matroid and
of its dual must equal ``betti_fine_alexander`` of each.

Each matroid's rank table is also checked against ``matrix_rank`` (column
elimination) on every subset: the fast path, the oracle's complex and
``weights_bruteforce`` all read that one table.  So are the tables of the
same matroid rebuilt from its bases and from its circuits, which come from
independence indicators instead of the matrix.  Fields are drawn from
GF(2), GF(3), GF(5) and GF(7); GF(7) matrices of rank 8 or more have more
than ``WORD_TABLE_MAX`` row-space words, so their tables come from the
echelon search instead of the word count.

Usage: python scripts/random_selfcheck.py [count] [max_n] [seed]
"""

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ghw.betti import (  # noqa: E402
    betti_fine_alexander,
    betti_fine_hochster,
    betti_fine_matroid,
)
from ghw.finfield import FieldMatrix, PrimeField, matrix_rank  # noqa: E402
from ghw.matroid import Matroid, elements  # noqa: E402
from ghw.simplicial import independence_complex  # noqa: E402
from ghw.weights import weights_bruteforce, weights_from_betti  # noqa: E402


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    max_n = int(sys.argv[2]) if len(sys.argv) > 2 else 9
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 0
    rng = random.Random(seed)
    start = time.perf_counter()
    bad = 0
    for idx in range(count):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(3, max_n)
        m = rng.randint(1, n - 1)
        entries = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
        H = FieldMatrix(PrimeField(p), entries)
        M = Matroid.from_matrix(H)
        ranks = [matrix_rank(H, elements(mask)) for mask in range(1 << n)]
        fast = betti_fine_matroid(M)
        # One oracle sweep ranks every field: GF(2), GF(3), GF(5) and the
        # matrix's own (GF(7) is the only one not already among them).
        fields = sorted({2, 3, 5, p})
        hoch = betti_fine_hochster(independence_complex(M), fields)
        alexander = [
            (betti_fine_alexander(N), betti_fine_hochster(independence_complex(N).alexander_dual(), fields))
            for N in (M, M.dual())
        ]
        k = M.n - M.rank(M.full)
        rebuilt = (
            Matroid.from_bases(n, map(elements, M.bases())),
            Matroid.from_circuits(n, map(elements, M.circuits())),
        )
        ok = (
            all(R.rank_table().tolist() == ranks for R in (M, *rebuilt))
            and all(fast == table for table in hoch.values())
            and all(closed == table for closed, tables in alexander for table in tables.values())
            and weights_from_betti(fast, k) == weights_bruteforce(M)
        )
        if not ok:
            bad += 1
            print(f"MISMATCH on GF({p}) {m}x{n}: {entries}")
    elapsed = time.perf_counter() - start
    print(f"{count} matroids, {bad} mismatches, {elapsed:.1f}s")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
