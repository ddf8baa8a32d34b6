import random
from fractions import Fraction
from itertools import chain, permutations
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkerboard.charpoly import (
    Inertia,
    _primitive,
    blocks_inertia,
    char_poly,
    has_negative_eigenvalue,
    inertia_from_char_poly,
)
from checkerboard.criteria import reduction_matrices
from checkerboard.errors import SingularParameterError, SymmetryError
from checkerboard.family import build_state
from checkerboard.subfamily import derive_full_params
from checkerboard.gaussian import GaussInt, GaussRat
from checkerboard.matrices import GMat, ZMat, rank

from conftest import SIZED_POINTS, gauss_matrix, generate_only, hermitian_grid, sparse_gauss
from linalg_reference import (
    add,
    conj_transpose,
    identity,
    inertia,
    integer_lift,
    matmul,
    over,
    scale,
    submatrix,
    trace,
    zeros,
)


def diag(*values):
    n = len(values)
    return ZMat.from_rows(
        [[GaussInt(values[r] if r == c else 0) for c in range(n)] for r in range(n)]
    )


def zmat(rows):
    return ZMat.from_rows([[z if isinstance(z, GaussInt) else GaussInt(z) for z in row]
                           for row in rows])


def _pairs(m: ZMat) -> list:
    """The rows of m as (re, im) int pairs, the block form ``blocks_inertia`` takes."""
    return [[(z.re, z.im) for z in m.row(r)] for r in range(m.rows)]


def leibniz_det(m: ZMat) -> GaussInt:
    """Determinant as the signed sum over all permutations, independent of char_poly."""
    n = m.rows
    total = GaussInt(0)
    for perm in permutations(range(n)):
        sign = (-1) ** sum(1 for i in range(n) for j in range(i) if perm[j] > perm[i])
        term = GaussInt(sign)
        for r, c in enumerate(perm):
            term = term * m[r, c]
        total = total + term
    return total


def test_char_poly_1x1():
    assert char_poly(diag(5)) == (-5, 1)


def test_char_poly_identity_3x3():
    assert char_poly(diag(1, 1, 1)) == (-1, 3, -3, 1)


def test_char_poly_requires_hermitian():
    m = zmat([[0, 1], [2, 0]])
    with pytest.raises(SymmetryError):
        char_poly(m)


@settings(max_examples=25, deadline=None)
@given(hermitian_grid(4))
def test_cayley_hamilton(z):
    p = char_poly(z)
    assert all(type(c) is int for c in p)
    m = over(z, 1)
    acc = zeros(4, 4)
    power = identity(4)
    for coeff in p:
        acc = add(acc, scale(power, GaussRat(coeff)))
        power = matmul(power, m)
    assert not any(acc.data)


@settings(max_examples=25, deadline=None)
@given(hermitian_grid(4))
def test_constant_term_is_signed_det(z):
    # p(0) = det(-z) = (-1)^4 det(z)
    assert GaussInt(char_poly(z)[0]) == leibniz_det(z)


def test_char_poly_constant_term_of_transposed_example():
    from checkerboard import presets
    from checkerboard.criteria import partial_transpose_matrix
    from checkerboard.family import build_state
    from reference import grid as state_grid

    # rho^Gamma = G / tr(grid) for G the partial transpose of the grid.
    grid = state_grid(build_state(presets.ONE_DISTILLABLE_PARAMS))
    p = char_poly(partial_transpose_matrix(grid))
    assert Fraction(p[0], trace(grid).re ** 9) == Fraction(-418, 3 ** 7 * 7 ** 9)
    assert p[-1] == 1


def test_inertia_simple_diagonal():
    assert inertia(diag(1, -1, 0)) == Inertia(1, 1, 1)


def test_inertia_with_multiplicities():
    assert inertia(diag(2, 2, 2, -3, 0, 0)) == Inertia(1, 2, 3)
    assert inertia(diag(5, 5, 5, 5)) == Inertia(0, 0, 4)
    assert inertia(diag(-1, -1, 0)) == Inertia(2, 1, 0)


def test_inertia_degenerate_pair():
    # eigenvalues 2, 2 from a non-diagonal matrix
    m = zmat([[2, 0], [0, 2]])
    assert inertia(m) == Inertia(0, 0, 2)
    # 2x2 with eigenvalues 3 and -1
    m2 = zmat([[1, 2], [2, 1]])
    assert inertia(m2) == Inertia(1, 0, 1)


def test_inertia_of_off_diagonal_pair():
    # One symmetric block; splitting rows from columns would give two zero blocks.
    m = zmat([[0, 1], [1, 0]])
    assert inertia(m) == Inertia(1, 0, 1)
    # A zero diagonal stalls the elimination before any pivot: eigenvalues -sqrt(2), 0, sqrt(2).
    m = zmat([[0, 1, 0], [1, 0, GaussInt(0, 1)], [0, GaussInt(0, -1), 0]])
    assert inertia(m) == Inertia(1, 1, 1)


def test_inertia_of_permuted_blocks_with_zero_index():
    # Blocks {0,3} (eigenvalues 3, -1), {1,5} (eigenvalues 1, -1), {4} (-2);
    # index 2 is all zero and counts as a 1x1 zero block.
    grid = [[GaussInt(0)] * 6 for _ in range(6)]
    grid[0][0] = grid[3][3] = GaussInt(1)
    grid[0][3] = grid[3][0] = GaussInt(2)
    grid[1][5] = GaussInt(0, 1)
    grid[5][1] = GaussInt(0, -1)
    grid[4][4] = GaussInt(-2)
    assert inertia(ZMat.from_rows(grid)) == Inertia(3, 1, 2)


def test_inertia_rejects_one_sided_entry():
    grid = [[GaussInt(1 if r == c else 0) for c in range(3)] for r in range(3)]
    grid[2][0] = GaussInt(1)
    with pytest.raises(SymmetryError):
        inertia(ZMat.from_rows(grid))


@settings(max_examples=40, deadline=None)
@given(hermitian_grid(6, sparse_gauss), st.permutations(range(6)))
def test_inertia_invariant_under_symmetric_permutation(m, perm):
    """P m P^T has the inertia of m, and both match the unsplit char poly."""
    want = inertia_from_char_poly(char_poly(m), 6)
    assert inertia(m) == want
    assert inertia(submatrix(m, perm, perm)) == want


@settings(max_examples=25, deadline=None)
@given(hermitian_grid(5))
def test_inertia_zero_count_matches_rank(m):
    assert inertia(m).n_zero == 5 - rank(over(m, 1))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from([-2, -1, 0, 0, 1, 1, 2]), min_size=5, max_size=5),
    gauss_matrix(5, 5),
)
def test_inertia_congruence_invariance(diag_values, s_rows):
    """Congruence S D S^dagger preserves inertia, repeats and zeros included."""
    s = GMat.from_rows(s_rows)
    if rank(s) < 5:
        return
    d = over(diag(*diag_values), 1)
    m = integer_lift(matmul(matmul(s, d), conj_transpose(s)))[0]
    expected = Inertia(
        sum(1 for v in diag_values if v < 0),
        sum(1 for v in diag_values if v == 0),
        sum(1 for v in diag_values if v > 0),
    )
    assert inertia(m) == expected


@st.composite
def hermitian_blocks(draw):
    """Hermitian ZMats of size 1-6 with 1-, 5- or 20-digit parts.

    Either entry by entry, dense or sparse (about three entries in four
    zero), with a random or a zero diagonal (on which elimination stalls
    at once); or a signed sum of rank-one terms v v^dagger, singular
    whenever there are fewer terms than rows; or a Gram block V V^dagger
    of an n x 2 matrix V, the shape of every state block, which stalls
    after two positive pivots.
    """
    n = draw(st.integers(1, 6))
    bound = 10 ** draw(st.sampled_from([1, 5, 20]))
    sparse = draw(st.booleans())
    shape = draw(st.sampled_from(["entries", "zero-diagonal", "signed-sum", "gram"]))

    def entry(real=False):
        if sparse and draw(st.integers(0, 3)):
            return GaussInt(0)
        return GaussInt(draw(st.integers(-bound, bound)),
                        0 if real else draw(st.integers(-bound, bound)))

    rows = [[GaussInt(0)] * n for _ in range(n)]
    if shape in ("entries", "zero-diagonal"):
        for r in range(n):
            if shape == "entries":
                rows[r][r] = entry(real=True)
            for c in range(r):
                rows[r][c] = entry()
                rows[c][r] = rows[r][c].conj()
    else:
        terms = 2 if shape == "gram" else draw(st.integers(0, n))
        for _ in range(terms):
            sign = GaussInt(1 if shape == "gram" else draw(st.sampled_from([-1, 1])))
            v = [entry() for _ in range(n)]
            rows = [[rows[r][c] + sign * v[r] * v[c].conj() for c in range(n)] for r in range(n)]
    return ZMat.from_rows(rows)


@settings(max_examples=300, deadline=None)
@given(hermitian_blocks())
def test_elimination_inertia_matches_char_poly_inertia(m):
    """Fraction-free elimination, on a block and through ``inertia``, matches Descartes."""
    want = inertia_from_char_poly(char_poly(m), m.rows)
    assert blocks_inertia([_pairs(m)]) == want
    assert inertia(m) == want


@generate_only(300)
@given(st.lists(st.tuples(hermitian_blocks(), st.sampled_from([1, 1, 2, 6, 10 ** 9])),
                min_size=1, max_size=2))
def test_negative_eigenvalue_test_matches_the_full_count(scaled):
    """The early-exit test agrees with the whole inertia, and with Descartes block by block.

    Each block is taken times a content of 1 or more: the count divides it
    out and the early-exit test eliminates the block as given.
    """
    pairs = [[[(k * x, k * y) for x, y in row] for row in _pairs(m)] for m, k in scaled]
    want = any(inertia_from_char_poly(char_poly(m), m.rows).n_neg for m, _ in scaled)
    assert has_negative_eigenvalue(pairs) is want
    assert (blocks_inertia(pairs).n_neg > 0) is want
    assert [blocks_inertia([p]) for p in pairs] == [inertia_from_char_poly(char_poly(m), m.rows)
                                                     for m, _ in scaled]


@pytest.mark.parametrize("n", range(6))
def test_char_poly_of_the_zero_matrix_is_a_power_of_lambda(n):
    zero = ZMat.from_rows([[GaussInt(0)] * n for _ in range(n)])
    assert char_poly(zero) == (0,) * n + (1,)
    assert inertia_from_char_poly(char_poly(zero), n) == Inertia(0, n, 0)


def test_negative_eigenvalue_test_at_a_stall():
    """No pivot is negative on these blocks, so the answer comes from the stalled remainder."""
    # zero diagonal: eigenvalues 1 and -1, no pivot at all
    assert has_negative_eigenvalue([_pairs(zmat([[0, 1], [1, 0]]))]) is True
    # a positive pivot, then the remainder [[0, 1], [1, 0]] times the pivot 1
    assert has_negative_eigenvalue([_pairs(zmat([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))]) is True
    # V V^dagger of rank 2 stalls after two positive pivots on a zero remainder
    v = [(GaussInt(1), GaussInt(1)), (GaussInt(0, 1), GaussInt(1)), (GaussInt(0), GaussInt(1))]
    gram = ZMat.from_rows([[a * c.conj() + b * d.conj() for c, d in v] for a, b in v])
    assert inertia(gram) == Inertia(0, 1, 2)
    assert has_negative_eigenvalue([_pairs(gram)]) is False


def test_stall_after_negative_pivot_swaps_the_remainder_counts():
    """After the pivot -1 the remaining diagonal is zero: the entries are -1 times S.

    The Schur complement S = [[0, 1, 1], [1, 0, 1], [1, 1, 0]] has eigenvalues
    2, -1, -1, so the block has three negative eigenvalues and one positive.
    """
    m = zmat([[-1, 1, 1, 1], [1, -1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1]])
    assert inertia(m) == Inertia(3, 0, 1) == inertia_from_char_poly(char_poly(m), 4)
    # the same with complex off-diagonal entries
    i = GaussInt(0, 1)
    m = zmat([[-1, i, 1, 1], [-i, -1, 0, i], [1, 0, -1, 0], [1, -i, 0, -1]])
    assert inertia(m) == inertia_from_char_poly(char_poly(m), 4)


def test_inexact_division_is_an_arithmetic_error():
    # Not Hermitian, so the second step divides an odd numerator by the pivot 2;
    # ``inertia`` itself rejects such input before eliminating.
    m = zmat([[2, 1, 1], [0, 1, 0], [1, 0, 0]])
    with pytest.raises(ArithmeticError, match="inexact division"):
        blocks_inertia([_pairs(m)])
    with pytest.raises(SymmetryError):
        inertia(m)


def test_inertia_matches_float_eigensolver():
    """Cross-check against numpy on 100 random 9x9 Hermitian matrices.

    Matrices whose float spectrum comes within 1e-6 of zero are skipped
    (the float oracle cannot classify those); the exact path is checked
    against rank instead.
    """
    rng = random.Random(987)
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 400:
        attempts += 1
        n = 9
        grid = [[GaussRat(0)] * n for _ in range(n)]
        for r in range(n):
            grid[r][r] = GaussRat(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
            for c in range(r):
                z = GaussRat(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                    Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                )
                grid[r][c] = z
                grid[c][r] = z.conj()
        m = GMat.from_rows(grid)
        arr = np.array([[complex(m[r, c]) for c in range(n)] for r in range(n)])
        m = integer_lift(m)[0]
        eigs = np.linalg.eigvalsh(arr)
        if np.any(np.abs(eigs) <= 1e-6):
            continue
        want = Inertia(int((eigs < 0).sum()), 0, int((eigs > 0).sum()))
        assert inertia(m) == want
        checked += 1
    assert checked == 100


def _scaled_blocks(kind, params, diag, off):
    """Every block the inertia sees for ``params`` (state, rho^Gamma, both reduction
    matrices), with the diagonal times ``diag`` and the rest times ``off``:
    still Hermitian, and the diagonal alone can set the content."""
    full = derive_full_params(params) if kind == "ppt" else params
    state = build_state(full)
    pairs = [state.blocks, state.gamma, *reduction_matrices(state)]
    return [[[(x * (diag if r == c else off), y * (diag if r == c else off))
              for c, (x, y) in enumerate(row)] for r, row in enumerate(blk)]
            for pair in pairs for blk in pair]


@pytest.mark.parametrize("kind", ["full", "ppt"])
@pytest.mark.parametrize("size,examples", [("default", 15), ("5-digit", 8), ("20-digit", 3)])
def test_primitive_content_from_half_of_each_block_is_the_whole_content(kind, size, examples):
    """The gcd over the diagonal and the strictly-lower entries is that of every part."""
    @generate_only(examples)
    @given(SIZED_POINTS[kind][size], st.integers(1, 6), st.integers(1, 6))
    def check(params, diag, off):
        try:
            blocks = _scaled_blocks(kind, params, diag, off)
        except SingularParameterError:
            return
        for rows in blocks:
            content = gcd(*chain.from_iterable(chain.from_iterable(rows)))
            assert _primitive(rows) == [[(x // max(content, 1), y // max(content, 1))
                                         for x, y in row] for row in rows]

    check()
