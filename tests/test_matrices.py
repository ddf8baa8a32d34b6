from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkerboard.errors import DimensionError
from checkerboard.gaussian import GaussRat
from checkerboard.matrices import (
    GMat,
    _det_rational,
    _row_echelon,
    column_spans_equal,
    connected_components,
    det,
    kron,
    nullspace_basis,
    rank,
)

from conftest import gauss_matrix, hermitian_matrix, sparse_gauss


def gm(rows):
    return GMat.from_rows(rows)


def test_det_identity_and_permutation():
    assert det(GMat.identity(2)) == GaussRat(1)
    assert det(gm([[0, 1], [1, 0]])) == GaussRat(-1)


def test_det_known_3x3():
    m = gm([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert det(m) == GaussRat(-3)


def test_det_with_complex_entries():
    i = GaussRat(0, 1)
    m = gm([[i, 1], [1, i]])
    assert det(m) == GaussRat(-2)


def test_det_nonsquare_raises():
    with pytest.raises(DimensionError):
        det(GMat.zeros(2, 3))


def test_det_zero_column():
    m = gm([[0, 1, 2], [0, 3, 4], [0, 5, 6]])
    assert det(m) == GaussRat(0)


@settings(max_examples=40, deadline=None)
@given(gauss_matrix(3, 3), gauss_matrix(3, 3))
def test_det_multiplicative(ra, rb):
    a, b = gm(ra), gm(rb)
    assert det(a @ b) == det(a) * det(b)


@settings(max_examples=40, deadline=None)
@given(gauss_matrix(3, 3))
def test_det_dagger_is_conjugate(rows):
    m = gm(rows)
    assert det(m.conj_transpose()) == det(m).conj()


@settings(max_examples=40, deadline=None)
@given(gauss_matrix(4, 4))
def test_bareiss_agrees_with_rational_elimination(rows):
    m = gm(rows)
    assert det(m) == _det_rational(m)


@settings(max_examples=30, deadline=None)
@given(hermitian_matrix(4))
def test_det_hermitian_is_real(m):
    assert det(m).im == 0


def test_rank_zero_matrix():
    assert rank(GMat.zeros(3, 3)) == 0


def test_rank_identity():
    assert rank(GMat.identity(5)) == 5


@settings(max_examples=40, deadline=None)
@given(gauss_matrix(4, 5))
def test_rank_nullity_and_kernel_product(rows):
    m = gm(rows)
    basis = nullspace_basis(m)
    assert rank(m) + basis.cols == m.cols
    prod = m @ basis
    assert not any(prod.data)


def test_nullspace_of_identity_is_empty():
    basis = nullspace_basis(GMat.identity(4))
    assert basis.shape() == (4, 0)


def test_nullspace_known_kernel():
    m = gm([[1, 1, 0], [0, 0, 1]])
    basis = nullspace_basis(m)
    assert basis.cols == 1
    assert not any((m @ basis).data)


def test_column_spans_equal():
    a = gm([[1, 0], [0, 1], [0, 0]])
    b = gm([[1, 1], [1, -1], [0, 0]])
    c = gm([[1, 0], [0, 0], [0, 1]])
    assert column_spans_equal(a, b)
    assert not column_spans_equal(a, c)


def test_kron_product():
    a = gm([[1, 2], [3, 4]])
    b = gm([[0, 1], [1, 0]])
    k = kron(a, b)
    assert k.shape() == (4, 4)
    assert k[0, 1] == GaussRat(1)
    assert k[0, 3] == GaussRat(2)
    assert k[2, 1] == GaussRat(3)


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        GMat.zeros(2, 3) @ GMat.zeros(2, 3)


def test_trace_and_hermitian_check():
    i = GaussRat(0, 1)
    h = gm([[1, i], [-i, 2]])
    assert h.is_hermitian()
    assert h.trace() == GaussRat(3)
    assert not gm([[1, i], [i, 2]]).is_hermitian()


def test_common_denominator_fallback_path():
    # entries with a huge common denominator route through rational elimination
    big = 1 << 300
    m = gm([[GaussRat(Fraction(1, big)), GaussRat(0)], [GaussRat(0), GaussRat(big)]])
    assert det(m) == GaussRat(1)


def test_connected_components_are_sorted_and_cover_every_index():
    groups = connected_components(6, [(5, 1), (3, 0), (1, 5)])
    assert groups == [[0, 3], [1, 5], [2], [4]]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.data())
def test_rank_invariant_under_row_and_column_permutations(nrows, ncols, data):
    """Blockwise rank matches one elimination of the whole matrix, permuted or not."""
    m = gm(data.draw(gauss_matrix(nrows, ncols, sparse_gauss)))
    row_perm = data.draw(st.permutations(range(nrows)))
    col_perm = data.draw(st.permutations(range(ncols)))
    want = len(_row_echelon(m)[1])
    assert rank(m) == want
    assert rank(m.submatrix(row_perm, col_perm)) == want
