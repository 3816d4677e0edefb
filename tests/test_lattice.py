from hypothesis import given
from hypothesis import strategies as st
import pytest

from helpers import (
    determinant,
    hermite_normal_form,
    mat_mul,
    matrix,
    permutation_determinant,
)
from toricbundles.lattice import identity, is_primitive

small_entries = st.integers(min_value=-7, max_value=7)


def square_matrices(max_n=4):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(small_entries, min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


def test_is_primitive_examples():
    assert is_primitive((1, 0))
    assert not is_primitive((2, 4))
    assert not is_primitive((0, 0))
    assert is_primitive((3, 5))
    assert is_primitive((-1,))


def test_determinant_examples():
    assert determinant(identity(2)) == 1
    assert determinant(matrix([[1, 0], [1, 2]])) == 2
    assert determinant(matrix([[1, 1], [0, 1]])) == 1
    assert determinant(()) == 1


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        determinant(matrix([[1, 2, 3], [4, 5, 6]]))


@given(square_matrices())
def test_determinant_matches_permutation_expansion(rows):
    m = matrix(rows)
    assert determinant(m) == permutation_determinant(m)


@given(square_matrices(max_n=3), square_matrices(max_n=3))
def test_determinant_multiplicative(rows_a, rows_b):
    if len(rows_a) != len(rows_b):
        return
    a, b = matrix(rows_a), matrix(rows_b)
    assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)


def test_hnf_examples():
    h, u = hermite_normal_form(identity(3))
    assert h == identity(3) and u == identity(3)
    h, _ = hermite_normal_form(matrix([[0, 1], [1, 0]]))
    assert h == identity(2)
    h, _ = hermite_normal_form(matrix([[2, 0], [0, 3]]))
    assert h == matrix([[2, 0], [0, 3]])


@given(square_matrices())
def test_hnf_transform_and_convention(rows):
    m = matrix(rows)
    h, u = hermite_normal_form(m)
    assert mat_mul(u, m) == h
    assert determinant(u) in (1, -1)
    # convention: pivots positive, entries above pivots reduced, zero rows last
    pivot_cols = []
    seen_zero = False
    for row in h:
        nz = [j for j, e in enumerate(row) if e]
        if not nz:
            seen_zero = True
            continue
        assert not seen_zero, "zero rows must come last"
        j = nz[0]
        assert row[j] > 0
        if pivot_cols:
            assert j > pivot_cols[-1]
        pivot_cols.append(j)
    for r, j in enumerate(pivot_cols):
        for above in range(r):
            assert 0 <= h[above][j] < h[r][j]


@given(square_matrices())
def test_hnf_idempotent(rows):
    m = matrix(rows)
    h, _ = hermite_normal_form(m)
    h2, _ = hermite_normal_form(h)
    assert h2 == h

