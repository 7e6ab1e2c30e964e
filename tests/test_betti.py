import json

import pytest
from hypothesis import given, settings, strategies as st

from ghw import simplicial
from ghw.betti import (
    BettiTable,
    betti_fine_alexander,
    betti_fine_hochster,
    betti_fine_matroid,
    render_diagram,
)
from ghw.finfield import column_rank
from ghw.matroid import CapExceeded, Matroid
from ghw.simplicial import SimplicialComplex, faces_by_cardinality, independence_complex

from workeddata import (
    CIRCUITS_M1,
    DUAL_GRADED_M1,
    DUAL_GRADED_M2,
    DUAL_GRADED_M3,
    DUAL_GRADED_M8_M9,
    GRADED_M1,
    GRADED_M6,
    GRADED_M7,
    RP2_FACETS,
    TORUS_FACETS,
    diagram_rows,
    homology_without_clearing,
    pm,
    pset,
)


def test_fast_path_running_example(m1):
    t = betti_fine_matroid(m1)
    assert t.graded() == GRADED_M1
    assert t.global_betti() == (1, 6, 9, 4)
    # degree-1 entries are exactly the circuits, each with value 1
    ones = {mask for (i, mask) in t.fine if i == 1}
    assert ones == pset(CIRCUITS_M1)
    assert all(t.fine[(1, mask)] == 1 for mask in ones)
    assert t.fine[(2, pm(1, 4, 5, 6))] == 2
    assert t.fine[(3, m1.full)] == 4
    assert t.fine[(0, 0)] == 1


def test_beta_zero_only_at_empty_set(m1, m4):
    for M in (m1, m4):
        t = betti_fine_matroid(M)
        zero_entries = {mask for (i, mask) in t.fine if i == 0}
        assert zero_entries == {0}


def test_fast_equals_hochster_on_examples(m1, m2, m4, m7):
    for M in (m1, m2, m4, m7, Matroid.uniform(2, 5)):
        cx = independence_complex(M)
        fast = betti_fine_matroid(M)
        for p in (2, 3, 5):
            assert betti_fine_hochster(cx, p) == fast


def test_hochster_alexander_duals(m1, m2, m3, m8, m9):
    expectations = [
        (m1, DUAL_GRADED_M1),
        (m2, DUAL_GRADED_M2),
        (m3, DUAL_GRADED_M3),
        (m8, DUAL_GRADED_M8_M9),
        (m9, DUAL_GRADED_M8_M9),
    ]
    for M, graded in expectations:
        dual_cx = independence_complex(M).alexander_dual()
        table = betti_fine_hochster(dual_cx, 2)
        assert table.graded() == graded
        assert betti_fine_alexander(M) == table


def test_alexander_closed_form_edge_cases():
    def hochster(M):
        return betti_fine_hochster(independence_complex(M).alexander_dual(), 2)

    # U(0, 3): every element a loop, so the dual is the boundary of a triangle.
    loops = Matroid.uniform(0, 3)
    assert betti_fine_alexander(loops).fine == {(0, 0): 1, (1, 0b111): 1} == hochster(loops).fine
    # A free matroid has a void Alexander dual: no entries, not even beta_0.
    for free in (Matroid.uniform(4, 4), Matroid.uniform(0, 0)):
        assert betti_fine_alexander(free).fine == {} == hochster(free).fine
    # U(n-1, n) has the dual {emptyset}, resolved by the Koszul complex.
    for n in range(1, 6):
        M = Matroid.uniform(n - 1, n)
        koszul = {(mask.bit_count(), mask): 1 for mask in range(1 << n)}
        assert betti_fine_alexander(M).fine == koszul == hochster(M).fine


@pytest.mark.parametrize(
    "p, expected", [(2, (1, 10, 15, 7, 1)), (3, (1, 10, 15, 6)), (5, (1, 10, 15, 6))]
)
def test_hochster_projective_plane_depends_on_field(p, expected):
    # Reisner's example: the resolution of the projective plane's ideal
    # changes with the characteristic, which is why verify uses three fields.
    rp2 = SimplicialComplex(6, pset(RP2_FACETS))
    table = betti_fine_hochster(rp2, p)
    assert table.global_betti() == expected
    # over GF(2), H_1 and H_2 of the whole plane sit at sigma = {1..6}
    top = {i: v for (i, mask), v in table.fine.items() if mask == (1 << 6) - 1}
    assert top == ({3: 1, 4: 1} if p == 2 else {})


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hochster_torus(p):
    torus = SimplicialComplex(7, pset(TORUS_FACETS))
    table = betti_fine_hochster(torus, p)
    assert table.global_betti() == (1, 21, 49, 42, 15, 2)
    # H_1 (dim 2) and H_2 (dim 1) of the whole torus sit at sigma = {1..7}
    assert {i: v for (i, mask), v in table.fine.items() if mask == (1 << 7) - 1} == {4: 1, 5: 2}


SWEEP_FIELDS = (2, 3, 5)


def _single_field_tables(n, facets):
    # a fresh complex per field, so that nothing built for one field is reused
    return {p: betti_fine_hochster(SimplicialComplex(n, facets), p) for p in SWEEP_FIELDS}


def _hochster_without_clearing(cx):
    # Reference: every mask's boundary maps ranked in full, one field at a time.
    tables = {}
    for p in SWEEP_FIELDS:
        fine = {}
        for mask in range(1 << cx.n):
            dims = homology_without_clearing(faces_by_cardinality(cx, mask), p)
            for degree, value in dims.items():
                fine[(mask.bit_count() - degree - 1, mask)] = value
        tables[p] = BettiTable(cx.n, fine)
    return tables


def test_hochster_one_sweep_equals_single_fields(m1):
    rp2 = pset(RP2_FACETS)
    # The cone over the projective plane with apex 7: its restrictions
    # without the apex part GF(2) from GF(3), and those with it do not.
    cone = [f | 1 << 6 for f in rp2]
    m1_dual = independence_complex(m1).alexander_dual().facets
    for n, facets in ((6, rp2), (7, cone), (7, pset(TORUS_FACETS)), (6, m1_dual)):
        single = _single_field_tables(n, facets)
        assert single == _hochster_without_clearing(SimplicialComplex(n, facets))
        for fields in (SWEEP_FIELDS, SWEEP_FIELDS[::-1]):
            assert betti_fine_hochster(SimplicialComplex(n, facets), fields) == single
    # the projective plane's tables differ by field
    tables = betti_fine_hochster(SimplicialComplex(6, rp2), [3, 2])
    assert set(tables) == {2, 3}
    assert tables[2].global_betti() == (1, 10, 15, 7, 1)
    assert tables[3].global_betti() == (1, 10, 15, 6)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    )
)
def test_hochster_one_sweep_random_complexes(case):
    n, facets = case
    swept = betti_fine_hochster(SimplicialComplex(n, facets), SWEEP_FIELDS)
    assert swept == _single_field_tables(n, facets)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    )
)
def test_hochster_pair_sweep_equals_one_mask_at_a_time(case):
    # The name is kept from when the sweep paired sigma with sigma + top;
    # the reference ranks every mask's boundary maps on its own, without clearing.
    n, facets = case
    cx = SimplicialComplex(n, facets)
    assert betti_fine_hochster(cx, SWEEP_FIELDS) == _hochster_without_clearing(cx)


def test_hochster_sweep_edge_cases(m1):
    # n = 0 has the one mask 0; a void complex has no faces and an empty table.
    cases = [(0, [0]), (0, []), (1, [0]), (1, [1]), (1, []), (4, []), (7, pset(TORUS_FACETS))]
    for cx in [SimplicialComplex(n, facets) for n, facets in cases] + [independence_complex(m1)]:
        assert betti_fine_hochster(cx, SWEEP_FIELDS) == _hochster_without_clearing(cx)
    assert betti_fine_hochster(SimplicialComplex(0, [0]), 2).fine == {(0, 0): 1}
    assert betti_fine_hochster(SimplicialComplex(4, []), 2).fine == {}


def test_hochster_kernel_case_is_reached(m1, monkeypatch):
    # On the projective plane and on an Alexander dual, some map has two kept
    # columns with the same largest row, so it goes to column_rank in every
    # field; on the projective plane that is where GF(2) parts from GF(3).
    # m1's independence complex, a matroid complex, never gets there.
    fields = []

    def recording(columns, p, pivots=None):
        fields.append(p)
        return column_rank(columns, p, pivots)

    monkeypatch.setattr(simplicial, "column_rank", recording)
    tables = betti_fine_hochster(SimplicialComplex(6, pset(RP2_FACETS)), SWEEP_FIELDS)
    assert set(fields) == set(SWEEP_FIELDS)
    assert tables[2] != tables[3] == tables[5]
    fields.clear()
    m1_cx = independence_complex(m1)
    assert betti_fine_hochster(m1_cx.alexander_dual(), SWEEP_FIELDS)[3] == betti_fine_alexander(m1)
    assert set(fields) == set(SWEEP_FIELDS)
    fields.clear()
    assert betti_fine_hochster(m1_cx, SWEEP_FIELDS)[5] == betti_fine_matroid(m1)
    assert fields == []


def test_hochster_single_variable_ideal():
    cx = SimplicialComplex(1, [0])  # only the empty face; x1 generates the ideal
    t = betti_fine_hochster(cx, 2)
    assert t.fine == {(0, 0): 1, (1, 0b1): 1}


def test_hochster_cap():
    cx = SimplicialComplex(15, [0b111])
    with pytest.raises(CapExceeded, match="fast path"):
        betti_fine_hochster(cx, 2)
    # explicit override allowed (kept tiny by the sparse complex)
    betti_fine_hochster(SimplicialComplex(4, [0b11]), 2, max_n=4)


def test_aggregate_global_examples(m2, m3, m4, m5):
    assert betti_fine_matroid(m2).global_betti() == (1, 3, 2)
    assert betti_fine_matroid(m3).global_betti() == (1, 2, 1)
    assert betti_fine_matroid(m4).global_betti() == (1, 3, 2)
    assert betti_fine_matroid(m5).global_betti() == (1, 3, 2)


def test_graded_sums_fine(m6):
    t = betti_fine_matroid(m6)
    for (i, d), v in t.graded().items():
        assert v == sum(
            val for (j, mask), val in t.fine.items() if j == i and mask.bit_count() == d
        )
    assert sum(t.global_betti()) == sum(t.fine.values())


def test_render_diagram_rows(m1, m6, m7):
    assert diagram_rows(render_diagram(betti_fine_matroid(m1))) == [
        "1 | 1",
        "2 | 3 2",
        "3 | 2 7 4",
    ]
    assert diagram_rows(render_diagram(betti_fine_matroid(m6))) == [
        "2 | 4",
        "3 | 3 12 6",
    ]
    assert diagram_rows(render_diagram(betti_fine_matroid(m7))) == ["2 | 10 15 6"]


def test_render_diagram_exact(m1):
    assert render_diagram(betti_fine_matroid(m1)) == (
        "  | 1 2 3\n"
        "1 | 1\n"
        "2 | 3 2\n"
        "3 | 2 7 4"
    )


def test_render_diagram_empty():
    t = betti_fine_matroid(Matroid.uniform(2, 2))  # free matroid, only beta_0
    assert render_diagram(t) == "(empty diagram)"


def test_resolution_length(m1, m4, m7):
    for M in (m1, m4, m7):
        t = betti_fine_matroid(M)
        assert t.max_index() == M.n - M.rank(M.full)


def test_top_degrees_strictly_increase(m1, m6, m7):
    for M in (m1, m6, m7):
        t = betti_fine_matroid(M)
        tops = [t.max_degree(i) for i in range(1, t.max_index() + 1)]
        assert tops == sorted(set(tops))


def test_json_round_trip(m1):
    t = betti_fine_matroid(m1)
    obj = json.loads(json.dumps(t.to_json_dict()))
    assert BettiTable.from_json_dict(obj, t.n) == t
    assert obj["global"] == [1, 6, 9, 4]
    assert obj["graded"][0] == [0, 0, 1]


def test_table_rejects_nonpositive_entries():
    with pytest.raises(ValueError, match="positive"):
        BettiTable(2, {(1, 0b11): 0})
