"""Hypothesis property checks on random matrix matroids (kept small and fast;
the seeded 200-matroid sweep lives in test_acceptance)."""

from dataclasses import asdict

import numpy as np
from hypothesis import given, settings, strategies as st

from ghw.betti import betti_fine_alexander, betti_fine_hochster, betti_fine_matroid
from ghw.finfield import FieldMatrix, PrimeField, matrix_rank
from ghw.matroid import (
    WORD_TABLE_MAX,
    Matroid,
    _echelon_search_table,
    _word_table,
    elements,
    mask_of,
    nonredundancy_degree,
)
from ghw.simplicial import h_vector, independence_complex
from ghw.weights import (
    alexander_dual_is_matroid,
    mds_profile,
    support_size,
    wei_duality_check,
    weight_report,
    weights_bruteforce,
    weights_from_betti,
    whitney_polynomial,
)


@st.composite
def matrix_matroids(draw, max_n=5):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=n))
    entries = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    return Matroid.from_matrix(FieldMatrix(PrimeField(p), entries))


@settings(max_examples=40, deadline=None)
@given(matrix_matroids())
def test_rank_table_matches_matrix_rank_oracle(M):
    size = 1 << M.n
    ranks = [matrix_rank(M.matrix, elements(mask)) for mask in range(size)]
    assert M.rank_table().tolist() == ranks
    dependent = [m for m in range(size) if ranks[m] < m.bit_count()]
    minimal = {m for m in dependent if not any(d != m and d & ~m == 0 for d in dependent)}
    assert set(M.circuits()) == minimal
    top = ranks[M.full]
    full_rank_independent = {m for m in range(size) if ranks[m] == m.bit_count() == top}
    assert set(M.bases()) == full_rank_independent
    dual = [m.bit_count() + ranks[M.full ^ m] - top for m in range(size)]
    assert M.dual().rank_table().tolist() == dual
    for sigma in range(size):
        elems = elements(sigma)
        restricted = [ranks[mask_of(elems[e] for e in elements(sub))] for sub in range(1 << len(elems))]
        assert M.restrict(sigma).rank_table().tolist() == restricted


@st.composite
def awkward_matrices(draw):
    """Matrices over small and large prime fields, up to 8 columns, with zero
    columns (loops), repeated and rescaled columns (parallel elements), no
    rows at all, or more rows than columns.  Entries over GF(131) and
    GF(257) overflow a signed and an unsigned byte."""
    p = draw(st.sampled_from([2, 3, 5, 7, 131, 257, (1 << 61) - 1]))
    n = draw(st.integers(min_value=0, max_value=8))
    m = draw(st.integers(min_value=0, max_value=n + 3))
    entry = st.one_of(st.just(0), st.integers(1, p - 1))
    columns = []
    for _ in range(n):
        kind = draw(st.sampled_from(["zero", "repeat", "fresh"] if columns else ["zero", "fresh"]))
        if kind == "zero":
            columns.append([0] * m)
        elif kind == "repeat":
            scale = draw(st.integers(1, p - 1))
            columns.append([v * scale % p for v in draw(st.sampled_from(columns))])
        else:
            columns.append(draw(st.lists(entry, min_size=m, max_size=m)))
    rows = [[col[r] for col in columns] for r in range(m)]
    return FieldMatrix(PrimeField(p), rows, cols=n)


@settings(max_examples=80, deadline=None)
@given(awkward_matrices())
def test_echelon_search_matches_matrix_rank(H):
    # Both table builders, called directly, and the one from_matrix picks.
    ranks = [matrix_rank(H, elements(mask)) for mask in range(1 << H.cols)]
    assert _echelon_search_table(H).tolist() == ranks
    words = _word_table(H)
    assert (words is None) == (H.field.p ** matrix_rank(H) > WORD_TABLE_MAX)
    if words is not None:
        assert words.dtype == np.int8
        assert words.tolist() == ranks
    assert Matroid.from_matrix(H).rank_table().tolist() == ranks


def _assert_python_values(obj):
    """Every leaf is a plain Python int, bool, str or None (no numpy scalars)."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            _assert_python_values(key)
            _assert_python_values(value)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _assert_python_values(item)
    else:
        assert type(obj) in (int, bool, str, type(None)), (type(obj), obj)


@settings(max_examples=20, deadline=None)
@given(matrix_matroids())
def test_results_carry_python_ints(M):
    table = betti_fine_matroid(M)
    _assert_python_values(
        [
            M.rank(M.full),
            M.dual().rank(M.full),
            M.circuits(),
            M.bases(),
            M.loops(),
            M.isthmuses(),
            table.fine,
            table.to_json_dict(),
            weight_report(M, table).to_json_dict(),
            asdict(mds_profile(M, table)),
            whitney_polynomial(M),
        ]
    )


@settings(max_examples=40, deadline=None)
@given(matrix_matroids())
def test_rank_axioms(M):
    size = 1 << M.n
    for a in range(size):
        ra = M.rank(a)
        assert 0 <= ra <= a.bit_count()
        for x in range(M.n):
            assert ra <= M.rank(a | (1 << x)) <= ra + 1
    for a in range(size):
        for b in range(size):
            assert M.rank(a | b) + M.rank(a & b) <= M.rank(a) + M.rank(b)


@settings(max_examples=30, deadline=None)
@given(matrix_matroids())
def test_fast_path_matches_hochster_all_fields(M):
    fast = betti_fine_matroid(M)
    cx = independence_complex(M)
    for p in (2, 3, 5):
        assert betti_fine_hochster(cx, p) == fast


@settings(max_examples=30, deadline=None)
@given(matrix_matroids(max_n=8))
def test_alexander_closed_form_matches_hochster_all_fields(M):
    for N in (M, M.dual()):
        tables = betti_fine_hochster(independence_complex(N).alexander_dual(), (2, 3, 5))
        fast = betti_fine_alexander(N)
        assert all(fast == table for table in tables.values())


@settings(max_examples=40, deadline=None)
@given(matrix_matroids(max_n=7))
def test_alexander_dual_check_matches_the_complex(M):
    # The table-only check against the dual complex built and tested as a
    # SimplicialComplex.  mds_profile runs it only on MDS candidates, where
    # it holds every time; the direct call also meets duals that fail it.
    for N in (M, M.dual()):
        expected = independence_complex(N).alexander_dual().is_matroid_complex()
        assert alexander_dual_is_matroid(N) == expected
        verdict = mds_profile(N, betti_fine_matroid(N)).alexander_dual_is_matroid
        assert verdict in (None, expected)


@settings(max_examples=40, deadline=None)
@given(matrix_matroids())
def test_weights_match_bruteforce(M):
    k = M.n - M.rank(M.full)
    table = betti_fine_matroid(M)
    assert weights_from_betti(table, k) == weights_bruteforce(M)
    assert table.max_index() == k
    if k:
        assert weights_bruteforce(M)[-1] == support_size(M)


@settings(max_examples=30, deadline=None)
@given(matrix_matroids())
def test_nonredundancy_degree_is_nullity(M):
    for sigma in range(1 << M.n):
        assert nonredundancy_degree(M, sigma) == M.nullity(sigma)


@settings(max_examples=30, deadline=None)
@given(matrix_matroids())
def test_dual_involution_and_reconstruction(M):
    DD = M.dual().dual()
    assert all(DD.rank(m) == M.rank(m) for m in range(1 << M.n))
    from_b = Matroid.from_bases(M.n, [tuple(e for e in range(M.n) if b >> e & 1) for b in M.bases()])
    assert all(from_b.rank(m) == M.rank(m) for m in range(1 << M.n))
    if M.circuits():
        from_c = Matroid.from_circuits(
            M.n, [tuple(e for e in range(M.n) if c >> e & 1) for c in M.circuits()]
        )
        assert all(from_c.rank(m) == M.rank(m) for m in range(1 << M.n))


@settings(max_examples=30, deadline=None)
@given(matrix_matroids())
def test_wei_duality_random(M):
    assert wei_duality_check(M) is not False


@settings(max_examples=25, deadline=None)
@given(matrix_matroids())
def test_alexander_dual_resolution_is_linear(M):
    dual_cx = independence_complex(M).alexander_dual()
    table = betti_fine_hochster(dual_cx, 2)
    rows = {d - i for (i, d) in table.graded() if i >= 1}
    r = M.rank(M.full)
    if M.n - r >= 1:
        # generators sit in degree n - r, so the one diagram row is n - r - 1
        assert rows == {M.n - r - 1}
    else:
        assert rows == set()


@settings(max_examples=30, deadline=None)
@given(matrix_matroids())
def test_top_degrees_strictly_increasing(M):
    table = betti_fine_matroid(M)
    tops = [table.max_degree(i) for i in range(1, table.max_index() + 1)]
    assert all(a < b for a, b in zip(tops, tops[1:]))


@settings(max_examples=30, deadline=None)
@given(matrix_matroids())
def test_levelness_identity(M):
    r = M.rank(M.full)
    k = M.n - r
    table = betti_fine_matroid(M)
    h = h_vector(independence_complex(M), r)
    s = max(i for i, v in enumerate(h) if v)
    d_top = weights_from_betti(table, k)[-1] if k else 0
    assert table.graded()[(k, d_top)] == h[s]


@settings(max_examples=40, deadline=None)
@given(matrix_matroids())
def test_whitney_mass_and_f_vector(M):
    w = whitney_polynomial(M)
    assert sum(w.values()) == 2**M.n
    r = M.rank(M.full)
    f = independence_complex(M).f_vector()
    x_part = {ex: c for (ex, ey), c in w.items() if ey == 0}
    assert x_part == {r - j: f[j] for j in range(len(f)) if f[j]}
