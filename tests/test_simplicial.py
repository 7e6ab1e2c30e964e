from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from ghw import simplicial
from ghw.finfield import column_rank
from ghw.matroid import Matroid, elements, mask_of
from ghw.simplicial import (
    SUBMASK_WALK_MAX,
    SimplicialComplex,
    boundary_matrix,
    faces_by_cardinality,
    h_vector,
    homology_from_buckets,
    independence_complex,
    reduced_euler_char,
    reduced_homology,
)

from workeddata import (
    ALEXANDER_FACETS_M1,
    BASES_M1,
    RP2_FACETS,
    TORUS_FACETS,
    homology_without_clearing,
    pm,
    pset,
)

RP2 = SimplicialComplex(6, pset(RP2_FACETS))
TORUS = SimplicialComplex(7, pset(TORUS_FACETS))


def _by_size(masks):
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


def _faces_of(cx):
    return {m for m in range(1 << cx.n) if cx.face_table()[m]}


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, (1 << n) - 1), max_size=6),
            st.integers(0, (1 << n) - 1),
        )
    )
)
def test_face_indicator_matches_facet_list_reference(case):
    # Reference: the faces listed from the facets by brute force, and every
    # derived structure read off that set.
    n, facets, sigma = case
    full = (1 << n) - 1
    faces = {m for f in facets for m in range(1 << n) if m & ~f == 0}
    nonfaces = set(range(1 << n)) - faces
    cx = SimplicialComplex(n, facets)
    assert _faces_of(cx) == faces
    assert cx.is_void == (not faces)
    assert cx.facets == _by_size(
        f for f in faces if not any(f | 1 << x in faces for x in range(n) if not f >> x & 1)
    )
    sizes = Counter(f.bit_count() for f in faces)
    assert cx.f_vector() == tuple(sizes[c] for c in range(max(sizes, default=-1) + 1))
    assert cx.minimal_nonfaces() == _by_size(
        m for m in nonfaces if all(m & ~(1 << x) in faces for x in elements(m))
    )
    dual = cx.alexander_dual()
    assert _faces_of(dual) == {full ^ m for m in nonfaces}
    assert dual.alexander_dual() == cx
    restricted = cx.restrict(sigma)
    assert _faces_of(restricted) == {f for f in faces if f & ~sigma == 0}
    # == and hash read the faces, not the facet list given
    again = SimplicialComplex(n, [f & sigma for f in facets] + facets[::-1])
    assert again == cx and hash(again) == hash(cx)
    assert SimplicialComplex(n, cx.facets) == cx
    assert (restricted == cx) == (restricted.f_vector() == cx.f_vector())


def test_facet_range_error_names_one_based_elements():
    with pytest.raises(ValueError, match=r"facet \{1,4\} is not inside the ground set of size 3"):
        SimplicialComplex(3, [0b1001])


def test_facets_are_maximalized():
    cx = SimplicialComplex(3, [0b011, 0b001, 0b110])
    assert cx.facets == (0b011, 0b110)


def test_independence_complex_facets(m1):
    cx = independence_complex(m1)
    assert set(cx.facets) == pset(BASES_M1)


def test_independence_complex_uniform_and_rank0():
    cx = independence_complex(Matroid.uniform(2, 4))
    assert set(cx.facets) == {mask_of(c) for c in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]}
    cx0 = independence_complex(Matroid.uniform(0, 3))
    assert cx0.facets == (0,)
    assert cx0.f_vector() == (1,)


def test_alexander_dual_running_example(m1):
    dual = independence_complex(m1).alexander_dual()
    assert set(dual.facets) == pset(ALEXANDER_FACETS_M1)


def test_alexander_dual_involution(m1, m2, m7):
    for M in (m1, m2, m7):
        cx = independence_complex(M)
        assert cx.alexander_dual().alexander_dual() == cx


def test_alexander_dual_edge_cases():
    full = SimplicialComplex(3, [0b111])
    assert full.alexander_dual().is_void
    void = SimplicialComplex(3, [])
    assert void.alexander_dual() == full
    point = SimplicialComplex(1, [0])
    # non-faces of {emptyset} on one vertex: just {1}; complement is empty
    assert point.alexander_dual() == SimplicialComplex(1, [0])


def test_alexander_dual_of_uniform_is_matroid_complex():
    for r, n in [(1, 3), (2, 4), (2, 5), (3, 6)]:
        dual = independence_complex(Matroid.uniform(r, n)).alexander_dual()
        assert dual.is_matroid_complex()
        # and it is the uniform complex U(n-r-1, n)
        expected = independence_complex(Matroid.uniform(n - r - 1, n))
        assert dual == expected


def test_is_matroid_complex_negative():
    # two disjoint edges fail the exchange axiom
    cx = SimplicialComplex(4, [0b0011, 0b1100])
    assert not cx.is_matroid_complex()


def _exchange_holds(cx):
    """The independent-set exchange axiom, pair by pair: for faces A and B
    with |B| = |A| + 1, some x in B - A makes A + x a face."""
    faces = [m for m in range(1 << cx.n) if cx.face_table()[m]]
    face_set = set(faces)
    return all(
        any(A | 1 << x in face_set for x in elements(B & ~A))
        for A in faces
        for B in faces
        if B.bit_count() == A.bit_count() + 1
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
))
def test_is_matroid_complex_matches_exchange_axiom(case):
    n, facets = case
    cx = SimplicialComplex(n, facets)
    assert cx.is_matroid_complex() == _exchange_holds(cx)


def test_void_complex_is_not_matroid_complex():
    assert not SimplicialComplex(3, []).is_matroid_complex()
    assert not SimplicialComplex(0, []).is_matroid_complex()
    assert SimplicialComplex(3, [0]).is_matroid_complex()


def test_restrict(m1):
    cx = independence_complex(m1)
    r = cx.restrict(pm(1, 6))
    assert set(r.facets) == {pm(1), pm(6)}
    assert cx.restrict(0) == SimplicialComplex(6, [0])


def test_restrict_matches_matroid_restriction(m1):
    sigma = pm(1, 4, 5, 6)
    elems = elements(sigma)
    restricted = independence_complex(m1.restrict(sigma))
    lifted = {mask_of(elems[e] for e in elements(f)) for f in restricted.facets}
    assert lifted == set(independence_complex(m1).restrict(sigma).facets)


def test_reduced_homology_hollow_triangle():
    cx = SimplicialComplex(3, [0b011, 0b101, 0b110])
    assert reduced_homology(cx, 2) == {1: 1}
    assert reduced_homology(cx, 5) == {1: 1}


def test_reduced_homology_cone_and_points():
    assert reduced_homology(SimplicialComplex(3, [0b111]), 2) == {}
    two_points = SimplicialComplex(2, [0b01, 0b10])
    assert reduced_homology(two_points, 3) == {0: 1}
    assert reduced_homology(SimplicialComplex(1, [0]), 2) == {-1: 1}
    assert reduced_homology(SimplicialComplex(2, []), 2) == {}


def test_circuit_boundary_is_sphere(m1):
    for c in m1.circuits():
        cx = independence_complex(m1).restrict(c)
        size = c.bit_count()
        assert reduced_homology(cx, 2) == {size - 2: 1}


def test_boundary_squares_to_zero(m1, m6):
    for M in (m1, m6):
        buckets = faces_by_cardinality(independence_complex(M), M.full)
        for p in (2, 3, 5):
            mats = [boundary_matrix(lo, hi, p) for lo, hi in zip(buckets, buckets[1:])]
            for low, high in zip(mats, mats[1:]):
                for col in high:
                    composed = Counter()
                    for mid, v in col.items():
                        for row, u in low[mid].items():
                            composed[row] += u * v
                    assert all(x % p == 0 for x in composed.values())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_full_simplex_boundary_ranks(p):
    # the full simplex is acyclic, so rank d_c = C(m-1, c-1)
    for m in range(1, 8):
        full = (1 << m) - 1
        buckets = faces_by_cardinality(SimplicialComplex(m, [full]), full)
        for c in range(1, m + 1):
            rank = column_rank(boundary_matrix(buckets[c - 1], buckets[c], p), p)
            assert rank == comb(m - 1, c - 1)


@pytest.mark.parametrize("p, expected", [(2, {1: 1, 2: 1}), (3, {}), (5, {})])
def test_projective_plane_homology_depends_on_field(p, expected):
    # H_1 = Z/2 and H_2 = 0 over Z: over GF(2) the torsion shows in degrees 1 and 2
    assert RP2.f_vector() == (1, 6, 15, 10)
    assert reduced_homology(RP2, p) == expected


@pytest.mark.parametrize("p", [2, 3, 5])
def test_torus_homology(p):
    assert TORUS.f_vector() == (1, 7, 21, 14)
    assert reduced_homology(TORUS, p) == {1: 2, 2: 1}


FIELDS = (2, 3, 5)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, (1 << n) - 1), max_size=8),
            st.integers(0, (1 << n) - 1),
        )
    ),
    st.sampled_from(FIELDS),
)
def test_clearing_matches_full_ranks(case, p):
    n, facets, within = case
    cx = SimplicialComplex(n, facets)
    for sigma in ((1 << n) - 1, within):
        buckets = faces_by_cardinality(cx, sigma)
        dims = homology_from_buckets(buckets, sigma, cx.feasible(), (p,))[p]
        assert dims == homology_without_clearing(buckets, p)
        alt = sum(h if d % 2 == 0 else -h for d, h in dims.items())
        assert alt == reduced_euler_char(cx.restrict(sigma))


def _assert_sweep_matches_reference(cx):
    # Every restriction, all three fields in one sweep: each field's dims
    # equal ranking its boundary maps in full, without clearing.
    for sigma in range(1 << cx.n):
        buckets = faces_by_cardinality(cx, sigma)
        swept = homology_from_buckets(buckets, sigma, cx.feasible(), FIELDS)
        assert swept == {p: homology_without_clearing(buckets, p) for p in FIELDS}


# On these random complexes two kept columns share a largest row in 1-3% of
# the maps, a few hundred per run, so the kernel case and the fields'
# parting are exercised too, not only the fast count.
@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    )
)
def test_cohomology_sweep_matches_full_ranks(case):
    n, facets = case
    _assert_sweep_matches_reference(SimplicialComplex(n, facets))


def test_cohomology_sweep_on_examples(m1):
    m1_cx = independence_complex(m1)
    rp2_cone = SimplicialComplex(7, [f | 1 << 6 for f in pset(RP2_FACETS)])
    for cx in (RP2, TORUS, rp2_cone, m1_cx, m1_cx.alexander_dual()):
        _assert_sweep_matches_reference(cx)


def _coboundary_pivots(lower, upper, p):
    """Reference: the pivot rows of the coboundary map from ``lower`` to
    ``upper`` faces, the transposed boundary map, ranked in full with rows
    keyed by face (so a column's pivot is its largest face)."""
    columns = [{} for _ in lower]
    for face, col in zip(upper, boundary_matrix(lower, upper, p)):
        for row, v in col.items():
            columns[row][face] = v
    pivots = {}
    column_rank(columns, p, pivots)
    return set(pivots)


@pytest.mark.parametrize("p", FIELDS)
def test_clearing_skips_paired_faces(p, m1, monkeypatch):
    # The map from card-(c-1) to card-c faces gets a column for exactly the
    # card-(c-1) faces that are no pivot row of the map below, that map
    # ranked in full.  A map that reaches the kernel ranks those columns.
    events = []
    plain_rows = simplicial._largest_rows

    def offered(faces, feasible, sigma):
        events.append(("offered", list(faces)))
        return plain_rows(faces, feasible, sigma)

    def ranked(columns, p, pivots=None):
        columns = list(columns)
        events.append(("ranked", len(columns)))
        return column_rank(columns, p, pivots)

    monkeypatch.setattr(simplicial, "_largest_rows", offered)
    monkeypatch.setattr(simplicial, "column_rank", ranked)
    m1_cx = independence_complex(m1)
    kernel_maps = 0
    for cx in (RP2, TORUS, m1_cx, m1_cx.alexander_dual()):
        for sigma in range(1 << cx.n):
            buckets = faces_by_cardinality(cx, sigma)
            events.clear()
            homology_from_buckets(buckets, sigma, cx.feasible(), (p,))
            cleared = [set(), *(_coboundary_pivots(lo, hi, p) for lo, hi in zip(buckets, buckets[1:]))]
            expected = [[g for g in buckets[c - 1] if g not in cleared[c - 1]] for c in range(1, len(buckets))]
            assert [faces for kind, faces in events if kind == "offered"] == expected
            for (kind, count), (_, faces) in zip(events[1:], events):
                if kind == "ranked":
                    kernel_maps += 1
                    assert count == len(faces)
    assert kernel_maps > 0
    # The full simplex is acyclic: every column kept becomes a pivot.
    events.clear()
    reduced_homology(SimplicialComplex(6, [(1 << 6) - 1]), p)
    assert [len(faces) for _, faces in events] == [comb(5, c - 1) for c in range(1, 7)]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 11).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, (1 << n) - 1), max_size=10),
            st.integers(0, (1 << n) - 1),
        )
    )
)
def test_faces_by_cardinality_matches_face_table(case):
    # Both selections: the submask walk up to SUBMASK_WALK_MAX elements, the
    # face-array selection above it.
    n, facets, within = case
    cx = SimplicialComplex(n, facets)
    table = cx.face_table()
    for sigma in (within, (1 << n) - 1, within & ((1 << SUBMASK_WALK_MAX) - 1)):
        inside = [m for m in range(1 << n) if table[m] and m & ~sigma == 0]
        expected = [[m for m in inside if m.bit_count() == c] for c in range(n + 1)]
        while expected and not expected[-1]:
            expected.pop()
        assert faces_by_cardinality(cx, sigma) == expected


def test_homology_field_independence(m1, m5, m7):
    for M in (m1, m5, m7):
        cx = independence_complex(M)
        for target in (cx, cx.alexander_dual(), cx.restrict(pm(1, 2, 4, 5))):
            dims = [reduced_homology(target, p) for p in (2, 3, 5)]
            assert dims[0] == dims[1] == dims[2]


def test_homology_concentrated_in_top_degree(m1):
    cx = independence_complex(m1)
    for sigma in range(1 << 6):
        dims = reduced_homology(cx.restrict(sigma), 2)
        r = m1.rank(sigma)
        assert set(dims) <= {r - 1}


def test_euler_characteristic(m1):
    assert reduced_euler_char(independence_complex(m1)) == 4
    assert reduced_euler_char(SimplicialComplex(3, [0b111])) == 0
    assert reduced_euler_char(SimplicialComplex(2, [0b01, 0b10])) == 1


def test_euler_char_matches_homology(m1, m3):
    for M in (m1, m3):
        cx = independence_complex(M)
        for sigma in (M.full, pm(1, 2), pm(1, 2, 3, 4)):
            part = cx.restrict(sigma)
            dims = reduced_homology(part, 2)
            alt = sum(v if i % 2 == 0 else -v for i, v in dims.items())
            assert alt == reduced_euler_char(part)


def test_f_and_h_vectors(m1):
    cx = independence_complex(m1)
    assert cx.f_vector() == (1, 6, 14, 13)
    assert h_vector(cx, 3) == (1, 3, 5, 4)
    u23 = independence_complex(Matroid.uniform(2, 3))
    assert u23.f_vector() == (1, 3, 3)
    assert h_vector(u23, 2) == (1, 1, 1)


def test_h_vector_rank_too_small(m1):
    with pytest.raises(ValueError, match="rank"):
        h_vector(independence_complex(m1), 2)


def test_minimal_nonfaces_are_circuits(m1):
    cx = independence_complex(m1)
    assert set(cx.minimal_nonfaces()) == set(m1.circuits())
