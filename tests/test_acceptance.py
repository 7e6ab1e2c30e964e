"""Acceptance suite: one numbered criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Criterion 6 drives a seeded sweep of 200 random matrix matroids
shared with criterion 7 through a module fixture.
"""

import random
import time
from contextlib import contextmanager
from math import comb

import pytest

from ghw.betti import (
    betti_fine_alexander,
    betti_fine_hochster,
    betti_fine_matroid,
    render_diagram,
)
from ghw.finfield import FieldMatrix, PrimeField
from ghw.matroid import Matroid, nonredundancy_degree
from ghw.simplicial import h_vector, independence_complex
from ghw.weights import (
    mds_profile,
    support_size,
    wei_duality_check,
    weights_bruteforce,
    weights_from_betti,
    whitney_polynomial,
)

from workeddata import (
    CIRCUITS_M1,
    ALEXANDER_FACETS_M1,
    WHITNEY_M1,
    diagram_rows,
    pset,
)


@contextmanager
def criterion(num, desc, limit):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({desc}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"criterion {num}: {elapsed:.2f}s over the {limit}s budget"
    print(f"ACCEPTANCE {num} ({desc}): PASS ({elapsed:.2f}s)")


def test_criterion_1_running_example(m1):
    with criterion(1, "running example end to end", 1.0):
        assert set(m1.circuits()) == pset(CIRCUITS_M1)
        table = betti_fine_matroid(m1)
        assert diagram_rows(render_diagram(table)) == ["1 | 1", "2 | 3 2", "3 | 2 7 4"]
        assert weights_from_betti(table, 3) == (2, 4, 6)


def test_criterion_2_alexander_dual(m1):
    with criterion(2, "Alexander dual of the running example", 1.0):
        dual_cx = independence_complex(m1).alexander_dual()
        assert set(dual_cx.facets) == pset(ALEXANDER_FACETS_M1)
        table = betti_fine_hochster(dual_cx, 2)
        assert diagram_rows(render_diagram(table)) == ["2 | 13 25 17 4"]
        assert betti_fine_alexander(m1) == table
        w = whitney_polynomial(m1)
        assert w == WHITNEY_M1
        x_part = {ex: c for (ex, ey), c in w.items() if ey == 0}
        assert x_part == {3: 1, 2: 6, 1: 14, 0: 13}


def test_criterion_3_negative_results(m2, m3, m4, m5, m8, m9):
    with criterion(3, "negative-results regression", 5.0):
        # same weights, different global Betti numbers
        assert betti_fine_matroid(m2).global_betti() == (1, 3, 2)
        assert betti_fine_matroid(m3).global_betti() == (1, 2, 1)
        assert weights_bruteforce(m2) == weights_bruteforce(m3) == (2, 4)
        # same global Betti numbers, different weights
        assert betti_fine_matroid(m4).global_betti() == (1, 3, 2)
        assert betti_fine_matroid(m5).global_betti() == (1, 3, 2)
        assert weights_bruteforce(m4) == (2, 3)
        assert weights_bruteforce(m5) == (2, 4)
        # same Alexander-dual diagram, different weight hierarchies; the
        # hierarchy pair as printed belongs to the duals of these matroids
        rows8 = diagram_rows(render_diagram(betti_fine_hochster(independence_complex(m8).alexander_dual(), 2)))
        rows9 = diagram_rows(render_diagram(betti_fine_hochster(independence_complex(m9).alexander_dual(), 2)))
        assert rows8 == rows9 == ["2 | 16 33 24 6"]
        assert weights_bruteforce(m8.dual()) == (3, 5, 6)
        assert weights_bruteforce(m9.dual()) == (2, 5, 6)
        assert weights_bruteforce(m8) == (3, 5, 6)
        assert weights_bruteforce(m9) == (3, 4, 6)
        # same weights, different Alexander-dual diagrams
        rows2 = diagram_rows(render_diagram(betti_fine_hochster(independence_complex(m2).alexander_dual(), 2)))
        rows3 = diagram_rows(render_diagram(betti_fine_hochster(independence_complex(m3).alexander_dual(), 2)))
        assert rows2 == ["1 | 5 6 2"]
        assert rows3 == ["1 | 4 4 1"]


def test_criterion_4_mds_suite(m6, m7):
    with criterion(4, "MDS suite", 2.0):
        t6 = betti_fine_matroid(m6)
        assert diagram_rows(render_diagram(t6)) == ["2 | 4", "3 | 3 12 6"]
        p6 = mds_profile(m6, t6)
        assert p6.weights == (3, 5, 6)
        assert p6.mds_level == 2 and not p6.is_mds
        assert p6.tail_is_linear
        t7 = betti_fine_matroid(m7)
        assert diagram_rows(render_diagram(t7)) == ["2 | 10 15 6"]
        p7 = mds_profile(m7, t7)
        assert p7.weights == (3, 4, 5)
        assert p7.linear_resolution and not p7.is_mds and p7.mds_level is None
        assert p7.isthmuses == (1,)  # element 2 in 1-based labels
        for r, n in [(2, 4), (2, 5), (3, 6)]:
            U = Matroid.uniform(r, n)
            pu = mds_profile(U, betti_fine_matroid(U))
            assert pu.mds_level == 1 and pu.is_mds
            assert pu.alexander_dual_is_matroid is True


def test_criterion_5_uniform_closed_form():
    with criterion(5, "uniform matroid closed form", 30.0):
        for n in range(2, 11):
            for r in range(1, n):
                M = Matroid.uniform(r, n)
                table = betti_fine_matroid(M)
                k = n - r
                expected = {(0, 0): 1}
                for s in range(1, k + 1):
                    expected[(s, r + s)] = comb(r + s - 1, r) * comb(n, r + s)
                assert table.graded() == expected
                assert weights_from_betti(table, k) == tuple(range(r + 1, n + 1))
                h = h_vector(independence_complex(M), r)
                s_top = max(i for i, v in enumerate(h) if v)
                assert table.graded()[(k, n)] == comb(n - 1, r) == h[s_top]


SWEEP_SIZE = 200


@pytest.fixture(scope="module")
def random_sweep():
    rng = random.Random(20260808)
    sizes = [4, 5, 6, 7, 8, 9, 10]
    fields = [2, 3, 5]
    failures = []
    levelness = []
    start = time.perf_counter()
    for idx in range(SWEEP_SIZE):
        n = sizes[idx % len(sizes)]
        p = fields[idx % len(fields)]
        m = rng.randint(1, n - 1)
        entries = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
        M = Matroid.from_matrix(FieldMatrix(PrimeField(p), entries))
        label = f"#{idx} GF({p}) {m}x{n}"
        fast = betti_fine_matroid(M)
        cx = independence_complex(M)
        tables = {q: betti_fine_hochster(cx, q) for q in (2, 3, 5)}
        if not all(t == fast for t in tables.values()):
            failures.append(f"{label}: fast path != Hochster")
        if not (tables[2] == tables[3] == tables[5]):
            failures.append(f"{label}: homology depends on the field")
        r = M.rank(M.full)
        k = n - r
        ws = weights_bruteforce(M)
        if weights_from_betti(fast, k) != ws:
            failures.append(f"{label}: weights mismatch")
        if fast.max_index() != k:
            failures.append(f"{label}: resolution length != n - r")
        if k and ws[-1] != support_size(M):
            failures.append(f"{label}: d_k != support size")
        if wei_duality_check(M) is False:
            failures.append(f"{label}: Wei duality fails")
        if n <= 8:
            bad = next(
                (s for s in range(1 << n) if nonredundancy_degree(M, s) != M.nullity(s)),
                None,
            )
            if bad is not None:
                failures.append(f"{label}: nonredundancy degree != nullity at mask {bad}")
        h = h_vector(cx, r)
        s_top = max(i for i, v in enumerate(h) if v)
        d_top = ws[-1] if k else 0
        levelness.append(fast.graded().get((k, d_top)) == h[s_top])
    elapsed = time.perf_counter() - start
    return {"failures": failures, "levelness": levelness, "elapsed": elapsed}


def test_criterion_6_random_oracle_suite(random_sweep):
    try:
        assert random_sweep["failures"] == []
        assert random_sweep["elapsed"] < 300.0
    except BaseException:
        print(f"ACCEPTANCE 6 (property suite, {SWEEP_SIZE} random matroids): FAIL")
        raise
    print(
        f"ACCEPTANCE 6 (property suite, {SWEEP_SIZE} random matroids): "
        f"PASS ({random_sweep['elapsed']:.2f}s)"
    )


def test_criterion_7_h_vector(m1, random_sweep):
    try:
        h = h_vector(independence_complex(m1), 3)
        assert h == (1, 3, 5, 4)
        table = betti_fine_matroid(m1)
        assert table.graded()[(3, 6)] == 4 == h[3]
        assert all(random_sweep["levelness"])
    except BaseException:
        print("ACCEPTANCE 7 (h-vector and levelness identity): FAIL")
        raise
    print("ACCEPTANCE 7 (h-vector and levelness identity): PASS")
