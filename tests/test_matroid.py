import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghw import matroid
from ghw.finfield import FieldMatrix, PrimeField, matrix_rank
from ghw.matroid import (
    WORD_TABLE_MAX,
    CapExceeded,
    Matroid,
    _echelon_search_table,
    _word_table,
    circuit_within,
    elements,
    impure_restriction,
    is_nonredundant,
    mask_of,
    nonredundancy_degree,
    nonredundant_witness,
)

from workeddata import BASES_M1, BASES_M3, BASES_M8, CIRCUITS_M1, pm, pset

GF2 = PrimeField(2)


def test_matrix_matroid_running_example(m1):
    assert set(m1.bases()) == pset(BASES_M1)
    assert set(m1.circuits()) == pset(CIRCUITS_M1)
    assert m1.rank(m1.full) == 3


def test_matrix_matroid_h4(m4):
    assert set(m4.bases()) == pset([(1, 2), (1, 3), (1, 4)])


def test_zero_matrix_all_loops():
    M = Matroid.from_matrix(FieldMatrix(GF2, [[0, 0, 0]]))
    assert all(M.rank(m) == 0 for m in range(8))
    assert M.loops() == 0b111


def _all_ranks(H):
    return [matrix_rank(H, elements(mask)) for mask in range(1 << H.cols)]


def test_empty_matrix_tables():
    H = FieldMatrix(GF2, [], cols=0)
    assert _word_table(H).tolist() == _echelon_search_table(H).tolist() == [0]
    assert Matroid.from_matrix(H).rank_table().tolist() == [0]


def test_zero_matrix_over_large_field():
    # Rank 0, so one word even though p is far above WORD_TABLE_MAX.
    H = FieldMatrix(PrimeField(2**61 - 1), [[0] * 5, [0] * 5])
    assert _word_table(H).tolist() == [0] * 32
    assert Matroid.from_matrix(H).loops() == 0b11111


def test_word_table_redundant_rows():
    # Rank 3 from repeated, scaled and summed rows.  The words come from an
    # echelon basis: with 14 rows, 3^14 would be over WORD_TABLE_MAX.
    a, b, c = [1, 0, 2, 1, 0, 1, 1], [0, 1, 1, 2, 0, 0, 1], [0, 0, 0, 1, 1, 2, 2]

    def add(*rows):
        return [sum(col) % 3 for col in zip(*rows)]

    rows = [a, b, a, c, add(a, b), [2 * v % 3 for v in c], add(a, c), add(b, c, c)]
    for H in (FieldMatrix(PrimeField(3), rows), FieldMatrix(PrimeField(3), rows + [a] * 6)):
        assert matrix_rank(H) == 3
        assert _word_table(H).tolist() == _all_ranks(H)
        assert Matroid.from_matrix(H).rank_table().tolist() == _all_ranks(H)
    assert 3**H.rows > WORD_TABLE_MAX


def test_large_word_count_takes_the_search():
    # GF(7) of rank 8: 7^8 words is over WORD_TABLE_MAX.
    rng = random.Random(8)
    H = FieldMatrix(PrimeField(7), [[rng.randrange(7) for _ in range(9)] for _ in range(8)])
    assert matrix_rank(H) == 8 and 7**8 > WORD_TABLE_MAX
    assert _word_table(H) is None
    assert Matroid.from_matrix(H).rank_table().tolist() == _all_ranks(H)


def test_word_table_at_n20():
    rng = random.Random(20)
    H = FieldMatrix(PrimeField(3), [[rng.randrange(3) for _ in range(20)] for _ in range(10)])
    table = Matroid.from_matrix(H).rank_table()
    assert table.dtype.name == "int8" and not table.flags.writeable
    for mask in (rng.randrange(1 << 20) for _ in range(2000)):
        assert table[mask] == matrix_rank(H, elements(mask))


def test_rank_nullity_examples(m1):
    assert m1.nullity(m1.full) == 3
    assert m1.rank(0) == 0 and m1.nullity(0) == 0
    assert m1.rank(pm(1, 6)) == 1
    assert m1.nullity(pm(1, 6)) == 1


def test_rank_outside_ground_set(m2):
    with pytest.raises(ValueError):
        m2.rank(1 << 10)


def test_circuits_h2(m2):
    assert set(m2.circuits()) == pset([(3, 4), (1, 2, 3), (1, 2, 4)])


def test_from_bases_matches_matrix(m3):
    B = Matroid.from_bases(4, [[e - 1 for e in b] for b in BASES_M3])
    assert all(B.rank(m) == m3.rank(m) for m in range(1 << 4))


def test_from_bases_trivial():
    M = Matroid.from_bases(3, [[]])
    assert all(M.rank(m) == 0 for m in range(8))


def test_from_bases_exchange_violation():
    with pytest.raises(ValueError, match="exchange"):
        Matroid.from_bases(4, [[0, 1], [2, 3]])


def test_from_bases_not_equicardinal():
    with pytest.raises(ValueError, match="equicardinal"):
        Matroid.from_bases(3, [[0], [1, 2]])


def test_from_bases_empty():
    with pytest.raises(ValueError, match="at least one basis"):
        Matroid.from_bases(3, [])


def test_from_bases_range_error_names_one_based_elements():
    with pytest.raises(ValueError, match=r"basis \{1,4\} is not inside the ground set of size 3"):
        Matroid.from_bases(3, [[0, 3]])


def test_from_bases_b8_weights():
    from ghw.weights import weights_bruteforce

    M = Matroid.from_bases(6, [[e - 1 for e in b] for b in BASES_M8])
    assert weights_bruteforce(M) == (3, 5, 6)


def test_from_circuits_matches_matrix(m1):
    M = Matroid.from_circuits(6, [[e - 1 for e in c] for c in CIRCUITS_M1])
    assert all(M.rank(m) == m1.rank(m) for m in range(1 << 6))


def test_from_circuits_validation():
    with pytest.raises(ValueError, match="antichain"):
        Matroid.from_circuits(3, [[0], [0, 1]])
    with pytest.raises(ValueError, match="empty"):
        Matroid.from_circuits(3, [[]])
    with pytest.raises(ValueError, match="elimination"):
        Matroid.from_circuits(3, [[0, 1], [1, 2]])


def test_from_circuits_range_error_names_one_based_elements():
    with pytest.raises(ValueError, match=r"circuit \{2,4\} is not inside the ground set of size 3"):
        Matroid.from_circuits(3, [[1, 3]])


def _exchange_holds(bases):
    """Basis exchange, pair by pair: for bases A != B and x in A - B, some
    y in B - A makes A - x + y a basis."""
    return all(
        any((A ^ 1 << x) | 1 << y in bases for y in elements(B & ~A))
        for A in bases
        for B in bases
        if A != B
        for x in elements(A & ~B)
    )


def _elimination_holds(circuits):
    """Weak circuit elimination, pair by pair: for circuits C1 != C2 and x in
    both, some circuit lies inside C1 + C2 - x."""
    return all(
        any(c & ~((c1 | c2) ^ 1 << x) == 0 for c in circuits)
        for c1 in circuits
        for c2 in circuits
        if c1 != c2
        for x in elements(c1 & c2)
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 6)
    .flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))
    .flatmap(
        lambda nk: st.tuples(
            st.just(nk[0]),
            st.lists(
                st.sampled_from([m for m in range(1 << nk[0]) if m.bit_count() == nk[1]]),
                min_size=1,
                max_size=8,
            ),
        )
    )
)
def test_from_bases_accepts_exactly_the_exchange_families(case):
    n, bases = case
    expected = _exchange_holds(set(bases))
    try:
        M = Matroid.from_bases(n, [elements(b) for b in bases])
    except ValueError as exc:
        assert not expected and "exchange" in str(exc)
    else:
        assert expected and set(M.bases()) == set(bases)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(1, (1 << n) - 1), max_size=8))
    )
)
def test_from_circuits_accepts_exactly_the_elimination_antichains(case):
    n, masks = case
    circuits = {c for c in masks if not any(d != c and d & ~c == 0 for d in masks)}
    expected = _elimination_holds(circuits)
    try:
        M = Matroid.from_circuits(n, [elements(c) for c in circuits])
    except ValueError as exc:
        assert not expected and "elimination" in str(exc)
    else:
        assert expected and set(M.circuits()) == circuits


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    )
)
def test_impure_restriction_names_a_smaller_facet(case):
    # The witness: F is a face and a facet of the subcomplex on S, which
    # holds a larger face.
    n, facets = case
    faces = {m for f in facets for m in range(1 << n) if m & ~f == 0}
    face = np.zeros(1 << n, dtype=bool)
    face[list(faces)] = True
    bad = impure_restriction(face)
    if bad is None:
        return
    F, S = bad
    assert F in faces and F & ~S == 0
    assert not any(F | 1 << x in faces for x in elements(S & ~F))
    assert any(G & ~S == 0 and G.bit_count() > F.bit_count() for G in faces)


def test_uniform_checks_the_cap_before_building(monkeypatch):
    def refuse(n):
        raise AssertionError(f"a 2^{n} array was built before the cap check")

    monkeypatch.setattr(matroid, "popcounts", refuse)
    with pytest.raises(CapExceeded):
        Matroid.uniform(2, 21)


def test_uniform():
    U = Matroid.uniform(2, 4)
    assert set(U.circuits()) == {mask_of(c) for c in itertools.combinations(range(4), 3)}
    U0 = Matroid.uniform(0, 2)
    assert set(U0.circuits()) == {0b01, 0b10}
    assert U0.loops() == 0b11
    with pytest.raises(ValueError):
        Matroid.uniform(3, 2)


def test_ground_set_cap():
    with pytest.raises(CapExceeded):
        Matroid.uniform(2, 21)
    M = Matroid.uniform(2, 21, max_n=21)
    assert M.rank(M.full) == 2
    # A raised cap holds through every derived matroid.
    assert M.dual().rank(M.full) == 19
    assert M.restrict(M.full).rank(M.full) == 2
    assert M.dual().max_n == M.restrict(M.full).max_n == 21


def test_dual_involution(m1, m2):
    for M in (m1, m2, Matroid.uniform(2, 5)):
        DD = M.dual().dual()
        assert all(DD.rank(m) == M.rank(m) for m in range(1 << M.n))


def test_dual_uniform():
    D = Matroid.uniform(2, 5).dual()
    U = Matroid.uniform(3, 5)
    assert all(D.rank(m) == U.rank(m) for m in range(1 << 5))


def test_dual_m7_has_loop_2(m7):
    assert m7.dual().loops() & pm(2)


def test_restriction(m1):
    R = m1.restrict(pm(1, 4, 5, 6))
    assert R.n == 4
    assert R.rank(R.full) == 2
    assert m1.restrict(0).n == 0
    basis = m1.bases()[0]
    free = m1.restrict(basis)
    assert all(free.nullity(m) == 0 for m in range(1 << free.n))


def test_loops_and_isthmuses(m1, m7):
    assert m7.isthmuses() == pm(2)
    assert m1.loops() == 0 and m1.isthmuses() == 0
    U = Matroid.uniform(2, 5)
    assert U.loops() == 0 and U.isthmuses() == 0


def test_is_nonredundant_examples(m1):
    assert is_nonredundant(m1, [pm(1, 2, 3, 4), pm(1, 4, 5), pm(1, 6)])
    assert is_nonredundant(m1, [pm(1, 2, 3, 4), pm(4, 5, 6)])
    assert is_nonredundant(m1, [pm(1, 6)])
    # {1,6} has no private element against these two
    assert not is_nonredundant(m1, [pm(1, 6), pm(1, 4, 5), pm(4, 5, 6)])


def test_circuit_errors_name_one_based_elements(m1):
    with pytest.raises(ValueError, match=r"^\{1,2,6\} is not a circuit \(a proper subset"):
        is_nonredundant(m1, [pm(1, 2, 6)])


def test_is_nonredundant_rejects_non_circuits(m1):
    with pytest.raises(ValueError, match="not a circuit"):
        is_nonredundant(m1, [pm(1, 2)])
    with pytest.raises(ValueError, match="not a circuit"):
        is_nonredundant(m1, [pm(1, 4, 5, 6)])


def test_circuit_within(m1):
    assert circuit_within(m1, pm(1, 2)) is None
    c = circuit_within(m1, m1.full)
    assert c in m1.circuits()
    assert circuit_within(m1, pm(1, 6)) == pm(1, 6)


def test_nonredundancy_degree_examples(m1):
    assert nonredundancy_degree(m1, m1.full) == 3
    assert nonredundancy_degree(m1, pm(1, 2, 3)) == 0
    assert nonredundancy_degree(m1, pm(1, 4, 5, 6)) == 2


def test_witness_is_valid(m1):
    for sigma in (m1.full, pm(1, 4, 5, 6), pm(2, 3, 5, 6), pm(1, 6)):
        fam = nonredundant_witness(m1, sigma)
        assert len(fam) == m1.nullity(sigma)
        assert all(c & ~sigma == 0 for c in fam)
        if fam:
            assert is_nonredundant(m1, fam)


def test_maximal_witness_union_is_union_of_circuits(m1, m4, m7):
    for M in (m1, m4, m7):
        fam = nonredundant_witness(M, M.full)
        union = 0
        for c in fam:
            union |= c
        all_circ = 0
        for c in M.circuits():
            all_circ |= c
        assert union == all_circ


def _nonredundant_masks(fam):
    for i, c in enumerate(fam):
        others = 0
        for j, d in enumerate(fam):
            if j != i:
                others |= d
        if c & ~others == 0:
            return False
    return True


def _max_nonredundant_bruteforce(M, sigma):
    circs = [c for c in M.circuits() if c & ~sigma == 0]
    best = 0

    def extend(start, fam):
        nonlocal best
        best = max(best, len(fam))
        for idx in range(start, len(circs)):
            cand = fam + [circs[idx]]
            if _nonredundant_masks(cand):
                extend(idx + 1, cand)

    extend(0, [])
    return best


def test_degree_equals_nullity_bruteforce(m1, m2, m4):
    for M in (m1, m2, m4, Matroid.uniform(2, 5)):
        for sigma in range(1 << M.n):
            assert nonredundancy_degree(M, sigma) == M.nullity(sigma)
            assert _max_nonredundant_bruteforce(M, sigma) == M.nullity(sigma)


def test_circuit_elimination(m1, m6):
    for M in (m1, m6, Matroid.uniform(3, 6)):
        circs = M.circuits()
        for c1 in circs:
            for c2 in circs:
                if c1 == c2:
                    continue
                common = c1 & c2
                while common:
                    b = common & -common
                    common ^= b
                    target = (c1 | c2) ^ b
                    assert any(c & ~target == 0 for c in circs)


def test_rank_memo_is_shared():
    calls = []

    def rank_fn(mask):
        calls.append(mask)
        return min(mask.bit_count(), 2)

    M = Matroid(4, rank_fn)
    M.rank(0b1010)
    M.rank(0b1010)
    assert calls.count(0b1010) == 1


def test_rank_memo_concurrent_readers(m1):
    import threading

    expected = {mask: m1.rank(mask) for mask in range(1 << 6)}
    fresh = Matroid.from_matrix(m1.matrix)
    seen = []

    def worker(offset):
        local = {}
        for mask in range(1 << 6):
            local[(mask + offset) % (1 << 6)] = fresh.rank((mask + offset) % (1 << 6))
        seen.append(local)

    threads = [threading.Thread(target=worker, args=(o,)) for o in (0, 17, 40, 63)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for local in seen:
        assert all(local[m] == expected[m] for m in local)


def test_from_bases_submodular_exhaustive_n8():
    M = Matroid.from_bases(8, list(itertools.combinations(range(8), 4)))
    ranks = M.rank_table()
    for a in range(1 << 8):
        for b in range(1 << 8):
            assert ranks[a | b] + ranks[a & b] <= ranks[a] + ranks[b]
