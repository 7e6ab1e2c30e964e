import copy
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import ghw
from ghw.finfield import FieldMatrix, PrimeField, column_rank, is_prime, matrix_rank


H1_ROWS = [[1, 0, 0, 1, 0, 1], [0, 1, 0, 1, 1, 0], [0, 0, 1, 1, 1, 0]]


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 15, 21, -3, 561, 41041, 3215031751])
def test_composite_modulus_rejected(p):
    # 561 and 41041 are Carmichael numbers; 3215031751 is a strong
    # pseudoprime to the bases 2, 3, 5 and 7.
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(p)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(-2, 20000) if is_prime(n)] == [
        n for n in range(-2, 20000) if trial(n)
    ]


def test_large_prime_moduli():
    for p in (2**61 - 1, 2**64 - 59):
        assert PrimeField(p).reduce(PrimeField(p).inv(3) * 3) == 1
    assert not is_prime(2**64 - 1) and not is_prime((2**31 - 1) * (2**61 - 1))
    assert is_prime(2**64 + 13)
    with pytest.raises(ValueError, match="too large"):
        PrimeField(2**64 + 13)


def test_field_ops_examples():
    assert PrimeField(5).inv(2) == 3
    assert PrimeField(2).reduce(1 + 1) == 0
    assert PrimeField(5).reduce(3 * 4) == 2
    assert PrimeField(7).reduce(-3) == 4


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError, match="zero division"):
        PrimeField(5).inv(0)


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(min_value=1, max_value=10**6))
def test_inverse_property(p, a):
    field = PrimeField(p)
    a = a % p
    if a == 0:
        a = 1
    assert field.reduce(field.inv(a) * a) == 1


def test_matrix_construction():
    m = FieldMatrix(PrimeField(3), [[4, -1], [0, 5]])
    assert m.entries == ((1, 2), (0, 2))
    with pytest.raises(ValueError, match="inconsistent"):
        FieldMatrix(PrimeField(2), [[1, 0], [1]])
    with pytest.raises(ValueError, match="column count"):
        FieldMatrix(PrimeField(2), [])
    empty = FieldMatrix(PrimeField(2), [], cols=3)
    assert matrix_rank(empty) == 0


def test_rank_worked_example_columns():
    h1 = FieldMatrix(PrimeField(2), H1_ROWS)
    # columns given 1-based in the source example
    assert matrix_rank(h1, [0, 3, 4]) == 2
    assert matrix_rank(h1, [0, 1, 2]) == 3
    assert matrix_rank(h1, []) == 0
    assert matrix_rank(h1) == 3


def test_rank_out_of_range():
    h1 = FieldMatrix(PrimeField(2), H1_ROWS)
    with pytest.raises(ValueError, match="out of range"):
        matrix_rank(h1, [6])
    with pytest.raises(ValueError, match="out of range"):
        matrix_rank(h1, [-1])


def _random_matrix(rng, p, rows, cols):
    return FieldMatrix(PrimeField(p), [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])


def test_rank_monotone_and_submodular_exhaustive():
    rng = random.Random(7)
    for p, rows, cols in [(2, 3, 5), (3, 2, 5), (5, 3, 4), (2, 4, 8)]:
        m = _random_matrix(rng, p, rows, cols)
        ranks = {}
        for size in range(cols + 1):
            for sub in itertools.combinations(range(cols), size):
                ranks[frozenset(sub)] = matrix_rank(m, sub)
        subsets = list(ranks)
        for a in subsets:
            assert ranks[a] <= min(len(a), rows)
            for b in subsets:
                if a <= b:
                    assert ranks[a] <= ranks[b]
        for a in subsets:
            for b in subsets:
                assert ranks[a | b] + ranks[a & b] <= ranks[a] + ranks[b]


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_rank_le_gauss_oracle(p, rows, cols, data):
    # cross-check elimination against brute-force row-span counting
    entries = data.draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    m = FieldMatrix(PrimeField(p), entries)
    span = set()
    for coeffs in itertools.product(range(p), repeat=rows):
        v = tuple(sum(c * row[j] for c, row in zip(coeffs, entries)) % p for j in range(cols))
        span.add(v)
    rank = matrix_rank(m)
    assert p**rank == len(span)


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.data(),
)
def test_column_rank_matches_span_count(p, data):
    # cross-check the kernel against brute-force column-span counting, with
    # the rows of each column given in drawn, not sorted, order
    columns = data.draw(
        st.lists(
            st.dictionaries(st.integers(0, 7), st.integers(1, p - 1), max_size=8), max_size=5
        )
    )
    before = [dict(c) for c in columns]
    span = set()
    for coeffs in itertools.product(range(p), repeat=len(columns)):
        v = [0] * 8
        for c, col in zip(coeffs, columns):
            for row, x in col.items():
                v[row] = (v[row] + c * x) % p
        span.add(tuple(v))
    assert p ** column_rank(columns, p) == len(span)
    assert columns == before


@given(
    st.sampled_from([2, 3, 5, 7, (1 << 61) - 1]),
    st.data(),
)
def test_column_rank_extends_given_pivots(p, data):
    # ranking columns in two batches through one echelon basis gives the rank
    # of all of them together, and each batch adds what it raises the rank by
    column = st.dictionaries(st.integers(0, 7), st.integers(1, p - 1), max_size=8)
    first = data.draw(st.lists(column, max_size=5))
    second = data.draw(st.lists(column, max_size=5))
    before = [dict(c) for c in first + second]
    pivots = {}
    added_first = column_rank(first, p, pivots)
    assert added_first == column_rank(first, p) == len(pivots)
    assert all(max(col) == row and col[row] == 1 for row, col in pivots.items())
    basis = dict(pivots)
    added_second = column_rank(second, p, pivots)
    assert added_first + added_second == column_rank(first + second, p) == len(pivots)
    assert column_rank(second, p, basis) == added_second
    assert first + second == before


@given(st.sampled_from([3, 5, 7, 11]), st.data())
def test_column_rank_never_writes_inputs_or_stored_pivots(p, data):
    # Columns whose largest-row coefficient is not 1 are stored as scaled
    # copies, columns already at 1 may be stored as they come: either way
    # nothing writes to an input column or to a column once stored.
    def columns():
        cols = data.draw(
            st.lists(
                st.dictionaries(st.integers(0, 7), st.integers(1, p - 1), min_size=1, max_size=8),
                max_size=6,
            )
        )
        for col in cols:
            col[max(col)] = data.draw(st.integers(2, p - 1))
        return cols

    first, second = columns(), columns()
    before = copy.deepcopy(first + second)
    pivots = {}
    for col in first:  # one call per column: a bad stored pivot shows before it is used
        column_rank([col], p, pivots)
        assert all(max(c) == row and c[row] == 1 for row, c in pivots.items())
    stored = copy.deepcopy(pivots)
    column_rank(second, p, pivots)
    assert all(max(c) == row and c[row] == 1 for row, c in pivots.items())
    assert {row: pivots[row] for row in stored} == stored
    assert column_rank(first + second, p) == len(pivots)
    assert first + second == before


def test_column_rank_refuses_stored_pivots_that_do_not_reduce():
    # {0: 1, 1: 2} is 2, not 1, at its largest row, so clearing row 1 against
    # it leaves row 1 nonzero; {1: 1, 3: 1} has a row above its pivot row.
    # Run in a child process under a timeout, so that a kernel that keeps
    # reducing fails this test instead of hanging the suite.
    script = (
        "from ghw.finfield import column_rank\n"
        "for pivots in ({1: {0: 1, 1: 2}}, {1: {1: 1, 3: 1}}):\n"
        "    try:\n"
        "        column_rank([{1: 1}], 5, pivots)\n"
        "    except ValueError:\n"
        "        print('refused')\n"
    )
    src = str(Path(ghw.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=20
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["refused", "refused"]
