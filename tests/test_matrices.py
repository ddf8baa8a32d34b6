import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkerboard.errors import SymmetryError
from checkerboard.gaussian import GaussInt, GaussRat
from checkerboard.matrices import (
    GMat,
    ZMat,
    det,
    kron,
    rank,
)

from conftest import gauss_matrix, hermitian_grid, sparse_gauss
from linalg_reference import (
    column_spans_equal,
    identity,
    integer_lift,
    matmul,
    nullspace_basis,
    over,
    reduced_row_echelon,
    submatrix,
    transpose,
    zeros,
)
from reference import connected_components


def gm(rows):
    return GMat.from_rows(rows)


def zm(rows):
    """The integer grid of a GMat with Gaussian-integer entries."""
    return integer_lift(gm(rows))[0]


def test_det_identity_and_permutation():
    assert det(zm([[1, 0], [0, 1]])) == 1
    assert det(zm([[0, 1], [1, 0]])) == -1


def test_det_known_3x3():
    assert det(zm([[2, 1, 0], [1, 2, 1], [0, 1, 2]])) == 4


def test_det_with_complex_entries():
    i = GaussRat(0, 1)
    assert det(zm([[1, i], [-i, -1]])) == -2


def test_det_nonsquare_raises():
    # a non-square matrix is not Hermitian
    with pytest.raises(SymmetryError):
        det(ZMat(2, 3, [GaussInt(0)] * 6))


def test_det_rejects_non_hermitian():
    with pytest.raises(SymmetryError):
        det(zm([[1, 2], [3, 4]]))


def test_det_zero_column():
    assert det(zm([[0, 0, 0], [0, 3, 4], [0, 4, 6]])) == 0


@settings(max_examples=20, deadline=None)
@given(hermitian_grid(3), hermitian_grid(2))
def test_det_multiplicative(a, b):
    """det(A (x) B) = det(A)^2 det(B)^3 for 3x3 A and 2x2 B."""
    ab = integer_lift(kron(over(a, 1), over(b, 1)))[0]
    assert det(ab) == det(a) ** 2 * det(b) ** 3


@settings(max_examples=40, deadline=None)
@given(hermitian_grid(3))
def test_det_dagger_is_conjugate(m):
    # m^T is the conjugate of a Hermitian m, and its real determinant is its own conjugate
    assert det(transpose(m)) == det(m)


@settings(max_examples=30, deadline=None)
@given(hermitian_grid(4))
def test_det_hermitian_is_real(m):
    assert type(det(m)) is int


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.booleans(), st.data())
def test_det_matches_sympy(n, sparse, data):
    """det agrees with sympy's exact determinant on dense and sparse Hermitian grids."""
    sympy = pytest.importorskip("sympy")
    m = data.draw(hermitian_grid(n, sparse_gauss) if sparse else hermitian_grid(n))
    want = sympy.Matrix(n, n, [z.re + sympy.I * z.im for z in m.data]).det()
    assert sympy.expand(want) == det(m)


def test_rank_zero_matrix():
    assert rank(zeros(3, 3)) == 0


def test_rank_identity():
    assert rank(identity(5)) == 5


@settings(max_examples=40, deadline=None)
@given(gauss_matrix(4, 5))
def test_rank_nullity_and_kernel_product(rows):
    m = gm(rows)
    basis = nullspace_basis(m)
    assert rank(m) + basis.cols == m.cols
    prod = matmul(m, basis)
    assert not any(prod.data)


def test_nullspace_of_identity_is_empty():
    basis = nullspace_basis(identity(4))
    assert basis.shape() == (4, 0)


def test_nullspace_known_kernel():
    m = gm([[1, 1, 0], [0, 0, 1]])
    basis = nullspace_basis(m)
    assert basis.cols == 1
    assert not any(matmul(m, basis).data)


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


def test_hermitian_check():
    i = GaussRat(0, 1)
    assert gm([[1, i], [-i, 2]]).is_hermitian()
    assert not gm([[1, i], [i, 2]]).is_hermitian()


def test_connected_components_are_sorted_and_cover_every_index():
    groups = connected_components(6, [(5, 1), (3, 0), (1, 5)])
    assert groups == [[0, 3], [1, 5], [2], [4]]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.data())
def test_rank_invariant_under_row_and_column_permutations(nrows, ncols, data):
    """Forward elimination matches the reduced echelon form of the whole matrix, permuted or not."""
    m = gm(data.draw(gauss_matrix(nrows, ncols, sparse_gauss)))
    row_perm = data.draw(st.permutations(range(nrows)))
    col_perm = data.draw(st.permutations(range(ncols)))
    want = len(reduced_row_echelon(m)[1])
    assert rank(m) == want
    assert rank(submatrix(m, row_perm, col_perm)) == want
