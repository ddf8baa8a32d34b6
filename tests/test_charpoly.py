import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkerboard.charpoly import Inertia, RealPoly, char_poly, inertia, inertia_from_char_poly
from checkerboard.errors import SymmetryError
from checkerboard.gaussian import GaussRat
from checkerboard.matrices import GMat, det, rank

from conftest import gauss_matrix, hermitian_matrix, sparse_gauss


def diag(*values):
    n = len(values)
    return GMat.from_rows(
        [[GaussRat(values[r]) if r == c else GaussRat(0) for c in range(n)] for r in range(n)]
    )


def test_char_poly_1x1():
    p = char_poly(diag(5))
    assert p.coeffs == (Fraction(-5), Fraction(1))


def test_char_poly_identity_3x3():
    p = char_poly(diag(1, 1, 1))
    assert p.coeffs == (Fraction(-1), Fraction(3), Fraction(-3), Fraction(1))


def test_char_poly_requires_hermitian():
    m = GMat.from_rows([[GaussRat(0), GaussRat(1)], [GaussRat(2), GaussRat(0)]])
    with pytest.raises(SymmetryError):
        char_poly(m)


def test_char_poly_rational_entries():
    m = diag(Fraction(1, 2), Fraction(-1, 3))
    p = char_poly(m)
    # (x - 1/2)(x + 1/3) = x^2 - x/6 - 1/6
    assert p.coeffs == (Fraction(-1, 6), Fraction(-1, 6), Fraction(1))


@settings(max_examples=25, deadline=None)
@given(hermitian_matrix(4))
def test_cayley_hamilton(m):
    p = char_poly(m)
    acc = GMat.zeros(4, 4)
    power = GMat.identity(4)
    for coeff in p.coeffs:
        acc = acc + power.scale(GaussRat(coeff))
        power = power @ m
    assert not any(acc.data)


@settings(max_examples=25, deadline=None)
@given(hermitian_matrix(4))
def test_constant_term_is_signed_det(m):
    p = char_poly(m)
    assert p.coeffs[0] == det(m).real_fraction()


def test_char_poly_constant_term_of_transposed_example():
    from checkerboard import presets
    from checkerboard.criteria import partial_transpose_matrix
    from checkerboard.family import build_state

    state = build_state(presets.ONE_DISTILLABLE_PARAMS)
    p = char_poly(partial_transpose_matrix(state.normalized()))
    assert p.coeffs[0] == Fraction(-418, 3 ** 7 * 7 ** 9)
    assert p.coeffs[-1] == Fraction(1)


def test_realpoly_eval_and_derivative():
    assert RealPoly([]).is_zero()


def test_inertia_simple_diagonal():
    assert inertia(diag(1, -1, 0)) == Inertia(1, 1, 1)


def test_inertia_with_multiplicities():
    assert inertia(diag(2, 2, 2, -3, 0, 0)) == Inertia(1, 2, 3)
    assert inertia(diag(5, 5, 5, 5)) == Inertia(0, 0, 4)
    assert inertia(diag(Fraction(-1, 7), Fraction(-1, 7), 0)) == Inertia(2, 1, 0)


def test_inertia_degenerate_pair():
    # eigenvalues 2, 2 from a non-diagonal matrix
    m = GMat.from_rows([[GaussRat(2), GaussRat(0)], [GaussRat(0), GaussRat(2)]])
    assert inertia(m) == Inertia(0, 0, 2)
    # 2x2 with eigenvalues 3 and -1
    m2 = GMat.from_rows([[GaussRat(1), GaussRat(2)], [GaussRat(2), GaussRat(1)]])
    assert inertia(m2) == Inertia(1, 0, 1)


def test_inertia_of_off_diagonal_pair():
    # One symmetric block; splitting rows from columns would give two zero blocks.
    m = GMat.from_rows([[GaussRat(0), GaussRat(1)], [GaussRat(1), GaussRat(0)]])
    assert inertia(m) == Inertia(1, 0, 1)


def test_inertia_of_permuted_blocks_with_zero_index():
    # Blocks {0,3} (eigenvalues 3, -1), {1,5} (eigenvalues 1, -1), {4} (-1/2);
    # index 2 is all zero and counts as a 1x1 zero block.
    grid = [[GaussRat(0)] * 6 for _ in range(6)]
    grid[0][0] = grid[3][3] = GaussRat(1)
    grid[0][3] = grid[3][0] = GaussRat(2)
    grid[1][5] = GaussRat(0, 1)
    grid[5][1] = GaussRat(0, -1)
    grid[4][4] = GaussRat(Fraction(-1, 2))
    assert inertia(GMat.from_rows(grid)) == Inertia(3, 1, 2)


def test_inertia_rejects_one_sided_entry():
    grid = [[GaussRat(1 if r == c else 0) for c in range(3)] for r in range(3)]
    grid[2][0] = GaussRat(1)
    with pytest.raises(SymmetryError):
        inertia(GMat.from_rows(grid))


@settings(max_examples=40, deadline=None)
@given(hermitian_matrix(6, sparse_gauss), st.permutations(range(6)))
def test_inertia_invariant_under_symmetric_permutation(m, perm):
    """P m P^T has the inertia of m, and both match the unsplit char poly."""
    want = inertia_from_char_poly(char_poly(m), 6)
    assert inertia(m) == want
    assert inertia(m.submatrix(perm, perm)) == want


@settings(max_examples=25, deadline=None)
@given(hermitian_matrix(5))
def test_inertia_zero_count_matches_rank(m):
    assert inertia(m).n_zero == 5 - rank(m)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from([-2, -1, 0, 0, 1, 1, 2]), min_size=5, max_size=5),
    gauss_matrix(5, 5),
)
def test_inertia_congruence_invariance(diag_values, s_rows):
    """Congruence S D S^dagger preserves inertia, repeats and zeros included."""
    s = GMat.from_rows(s_rows)
    if det(s) == GaussRat(0):
        return
    d = diag(*diag_values)
    m = s @ d @ s.conj_transpose()
    expected = Inertia(
        sum(1 for v in diag_values if v < 0),
        sum(1 for v in diag_values if v == 0),
        sum(1 for v in diag_values if v > 0),
    )
    assert inertia(m) == expected


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
        eigs = np.linalg.eigvalsh(arr)
        if np.any(np.abs(eigs) <= 1e-6):
            continue
        want = Inertia(int((eigs < 0).sum()), 0, int((eigs > 0).sum()))
        assert inertia(m) == want
        checked += 1
    assert checked == 100
