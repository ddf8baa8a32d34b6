import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import chain, permutations
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from checkerboard import charpoly, sampling
from checkerboard.charpoly import (
    _CERTIFY_BITS,
    _KEPT_BITS,
    Inertia,
    _primitive,
    _truncated_inertia,
    blocks_inertia,
    char_poly,
    has_negative_eigenvalue,
    inertia_from_char_poly,
)
from checkerboard.errors import SingularParameterError, SymmetryError
from checkerboard.io import parse_param_doc
from checkerboard.family import build_state
from checkerboard.subfamily import derive_full_params
from checkerboard.gaussian import GaussInt, GaussRat
from checkerboard.matrices import GMat, ZMat, rank
from checkerboard.cli import main
from checkerboard.report import classify

from conftest import SIZED_POINTS, gauss_matrix, generate_only, hermitian_grid, sparse_gauss
from linalg_reference import (
    add,
    conj_transpose,
    identity,
    inertia,
    integer_lift,
    matmul,
    over,
    reduction_matrices,
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


@pytest.mark.parametrize("rows,cols", [(2, 3), (3, 2), (1, 0)])
def test_char_poly_rejects_a_non_square_zero_matrix(rows, cols):
    """The lambda^n shortcut is for a square zero matrix only; any other shape is not Hermitian."""
    with pytest.raises(SymmetryError):
        char_poly(ZMat(rows, cols, [GaussInt(0)] * (rows * cols)))


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


def _descartes(rows) -> Inertia:
    """The inertia of a block of (re, im) pairs from its char poly, no elimination."""
    n = len(rows)
    m = ZMat(n, n, [GaussInt(*z) for row in rows for z in row])
    return inertia_from_char_poly(char_poly(m), n)


@st.composite
def lifted_blocks(draw):
    """(kind, B, block) for Hermitian blocks of size 1-5 past the certificate's size threshold.

    A block of small Gaussian integers B is taken times 2^k, k from 150 to
    400, and, except for "gram", plus a Hermitian perturbation P whose
    parts stay under 2^(k-64), below the truncation's last kept bit:
    - "gram": B = V V* of an n x 2 matrix V of rank 2, n from 3, unperturbed,
      so singular with n - 2 zeros, the shape of a ppt-family rho^Gamma block;
    - "near-singular": B a signed sum of fewer than n rank-one terms, so
      singular, and P moves its zero eigenvalues by less than the
      truncation error;
    - "entries": B entry by entry, its first diagonal entry nonzero, P as
      for "near-singular".
    """
    kind = draw(st.sampled_from(["gram", "near-singular", "entries"]))
    n = draw(st.integers(3 if kind == "gram" else 1, 5))
    k = draw(st.integers(150, 400))
    small = st.integers(-3, 3)

    def vector():
        return [GaussInt(draw(small), draw(small)) for _ in range(n)]

    if kind == "entries":
        b = [[GaussInt(0)] * n for _ in range(n)]
        for r in range(n):
            # a nonzero first diagonal entry lifts the block past the threshold
            b[r][r] = GaussInt(draw(small.filter(bool) if r == 0 else small))
            for c in range(r):
                b[r][c] = GaussInt(draw(small), draw(small))
                b[c][r] = b[r][c].conj()
    else:
        terms = 2 if kind == "gram" else draw(st.integers(1, n - 1) if n > 1 else st.just(0))
        b = [[GaussInt(0)] * n for _ in range(n)]
        vs = []
        for _ in range(terms):
            v = vector()
            vs.append(v)
            sign = GaussInt(1 if kind == "gram" else draw(st.sampled_from([-1, 1])))
            b = [[b[r][c] + sign * v[r] * v[c].conj() for c in range(n)] for r in range(n)]
        if kind == "gram":
            # V has rank 2 iff its 2x2 Gram matrix V* V is nonsingular
            g = [[sum((x.conj() * y for x, y in zip(vs[i], vs[j])), GaussInt(0)) for j in range(2)]
                 for i in range(2)]
            assume(g[0][0] * g[1][1] - g[0][1] * g[1][0] != GaussInt(0))
    rows = [[(z.re << k, z.im << k) for z in row] for row in b]
    if kind != "gram":
        bits = draw(st.integers(0, k - 64))
        part = st.integers(-(1 << bits), 1 << bits)
        for r in range(n):
            rows[r][r] = (rows[r][r][0] + draw(part), 0)
            for c in range(r):
                x, y = draw(part), draw(part)
                rows[r][c] = (rows[r][c][0] + x, rows[r][c][1] + y)
                rows[c][r] = (rows[r][c][0], -rows[r][c][1])
    return kind, ZMat.from_rows(b), rows


@settings(max_examples=300, deadline=None)
@given(lifted_blocks())
def test_truncation_certificate_matches_the_exact_inertia(case):
    """The count and the test agree with Descartes on blocks past the size threshold.

    Singular rank-2 Gram blocks fall back to the exact path and count
    n - 2 zeros.  A block of small integers with no zero leading minor is
    scaled far past the truncation error, so the certificate decides it.
    """
    kind, b, rows = case
    want = _descartes(rows)
    assert blocks_inertia([rows]) == want
    assert has_negative_eigenvalue([rows]) is (want.n_neg > 0)
    got = _truncated_inertia(rows)
    assert got is None or got == (want.n_neg, 0, want.n_pos)
    if kind == "gram":
        assert got is None and want.n_zero == len(rows) - 2
    elif kind == "entries" and rows[0][0][0].bit_length() > _CERTIFY_BITS and all(
            leibniz_det(submatrix(b, range(size), range(size))) for size in range(1, b.rows + 1)):
        # The truncation is 2^(k-s) B + R with 2^(k-s) >= 2^61 and every part of R
        # in {-1, 0, 1}; each leading minor of B is a nonzero Gaussian integer, so
        # every pivot and det(T) stay far above the bounds.
        assert got is not None


def _certificate_cases():
    """2x2 blocks A = 2^s T + P whose truncation T has the wrong inertia.

    With s = 137 every first diagonal entry has 201 bits, so the truncation
    keeps 64 of them, and P moves each part by c = floor(0.99 2^s) at most.
    """
    s = 137
    c = 99 * 2 ** s // 100
    h = 2 ** 63
    # the bound's own example: det T = -(2^63 + 1), and T's second pivot fails
    # D_2^2 >= 8 D_1^2, but A = 2^s T + c I is positive definite
    yield "second pivot", s, [[(2 ** s * h + c, 0), (2 ** s * (h + 1), 0)],
                              [(2 ** s * (h + 1), 0), (2 ** s * (h + 1) + c, 0)]], Inertia(0, 0, 2)
    # T's pivots pass, and so would det(T)^2 >= 8 F^0, but not det(T)^2 >= 8 F: T's
    # eigenvalue near -1/2 belongs to e_0, which c I lifts by 0.99
    b, m = (2 * h + 1) * 8, 2 * (2 * h + 1) * 64
    yield "unbalanced", s, [[(2 ** s * h + c, 0), (2 ** s * b, 0)],
                            [(2 ** s * b, 0), (2 ** s * m + c, 0)]], Inertia(0, 0, 2)
    # T = [[M, t(1 - i)], [t(1 + i), M]] is positive definite with smallest eigenvalue
    # M - t sqrt(2) in [1, 1.3), so det(T)^2 >= F and D_2^2 >= D_1^2 hold, but not
    # with the factor 8; the part below the diagonal adds 0.99 (1 + i) and makes A
    # indefinite
    t, m = 6917529027641081860, 9782863368999586666
    assert (m - 1) ** 2 >= 2 * t * t and (10 * m - 13) ** 2 < 200 * t * t
    z = 2 ** s * t + c
    yield "balanced", s, [[(2 ** s * m, 0), (z, -z)], [(z, z), (2 ** s * m, 0)]], Inertia(1, 0, 1)


@pytest.mark.parametrize("name,shift,rows,want", list(_certificate_cases()),
                         ids=[case[0] for case in _certificate_cases()])
def test_truncation_with_the_wrong_inertia_is_not_trusted(name, shift, rows, want):
    """Each truncation has the other inertia of a 2x2 block, and the certificate gives up."""
    (a, _), ((x, y), (d, _)) = rows[0][0], rows[1]
    truncated = [[(a >> shift, 0), (x >> shift, -(y >> shift))],
                 [(x >> shift, y >> shift), (d >> shift, 0)]]
    assert rows[0][0][0].bit_length() - 64 == shift
    assert _descartes(truncated) != want == _descartes(rows)
    assert _truncated_inertia(rows) is None
    assert blocks_inertia([rows]) == want
    assert has_negative_eigenvalue([rows]) is (want.n_neg > 0)


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def _spy(monkeypatch) -> dict:
    """Record each certificate's outcome, each elimination's first diagonal entry
    size, its [size, parts taken], and the number of char polys, as ``classify`` runs."""
    seen = {"outcomes": [], "eliminated": [], "parts": [], "char_polys": 0, "block_bits": 0}
    certificate, eliminate, poly = (charpoly._truncated_inertia, charpoly._inertia_parts,
                                    charpoly.char_poly)

    def spy_certificate(rows):
        seen["block_bits"] = max(seen["block_bits"], *(x.bit_length() for row in rows
                                                        for z in row for x in z))
        got = certificate(rows)
        seen["outcomes"].append(got)
        return got

    def spy_eliminate(a):
        seen["eliminated"].append(a[0][0][0].bit_length())
        seen["parts"].append([len(a), 0])
        for part in eliminate(a):
            seen["parts"][-1][1] += 1
            yield part

    def spy_poly(m):
        seen["char_polys"] += 1
        return poly(m)

    monkeypatch.setattr(charpoly, "_truncated_inertia", spy_certificate)
    monkeypatch.setattr(charpoly, "_inertia_parts", spy_eliminate)
    monkeypatch.setattr(charpoly, "char_poly", spy_poly)
    return seen


def _certify(name: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["certify", "--input", str(GOLDEN_INPUTS / name)]) == 0


def test_full_family_100_digit_inertias_are_read_off_truncations(monkeypatch):
    """Both rho^Gamma blocks and the reduction test of the 100-digit golden.

    Every block of rho^Gamma and of both reduction matrices is decided by
    its truncation, and in ``certify`` every elimination runs on one: a
    first diagonal entry of exactly _KEPT_BITS bits.
    """
    seen = _spy(monkeypatch)
    _certify("bigcoef100_full.json")
    # rho^Gamma's two blocks, then the reduction test, which stops at a negative block
    assert len(seen["outcomes"]) >= 3 and None not in seen["outcomes"]
    assert set(seen["eliminated"]) == {_KEPT_BITS} and not seen["char_polys"]
    kind, params = parse_param_doc(json.loads((GOLDEN_INPUTS / "bigcoef100_full.json").read_text()))
    state = build_state(params)
    blocks = [blk for pair in (state.gamma, *reduction_matrices(state)) for blk in pair]
    assert kind == "full" and None not in map(_truncated_inertia, blocks)


def test_ppt_family_100_digit_inertia_takes_the_exact_path(monkeypatch):
    """rho^Gamma = rho of the 100-digit ppt golden is a pair of singular rank-2 Gram blocks."""
    seen = _spy(monkeypatch)
    _certify("bigcoef100_ppt.json")
    assert seen["outcomes"] == [None, None]
    # The pivot test stops each truncation at its fourth pivot, before the last of
    # the 5x5 block; each block is then eliminated exactly: two pivots and the
    # stalled zero remainder.
    assert seen["eliminated"][::2] == [_KEPT_BITS] * 2 and seen["parts"][::2] == [[4, 4], [5, 4]]
    assert min(seen["eliminated"][1::2]) > _CERTIFY_BITS and seen["parts"][1::2] == [[4, 3], [5, 3]]
    assert seen["char_polys"] == 2


@pytest.mark.parametrize("kind", ["full", "ppt"])
def test_default_sampler_blocks_stay_on_the_exact_path(kind, monkeypatch):
    """No block of a default-sampler state reaches the truncation certificate.

    The ppt family's stalled remainders still reach ``char_poly``, through
    which a ppt scan reaches it.
    """
    seen = _spy(monkeypatch)
    rng = sampling.rng_for(7)
    for _ in range(300):
        if kind == "full":
            classify(kind, sampling.random_checker_params(rng))
        else:
            classify(kind, sampling.random_subfamily_params(rng)[0])
    assert seen["outcomes"] and set(seen["outcomes"]) == {None}
    assert seen["block_bits"] <= _CERTIFY_BITS
    assert (seen["char_polys"] > 0) is (kind == "ppt")


def _spy_primitive(monkeypatch) -> list:
    """The first diagonal entry of every block ``_primitive`` divides by its content."""
    divided = []
    primitive = charpoly._primitive

    def spy(rows):
        divided.append(rows[0][0][0])
        return primitive(rows)

    monkeypatch.setattr(charpoly, "_primitive", spy)
    return divided


@pytest.mark.parametrize("kind", ["full", "ppt"])
def test_default_sampler_blocks_skip_the_content_division(kind, monkeypatch):
    """Every rho^Gamma block of 200 default-sampler states is eliminated as given.

    Its first diagonal entry is positive and of at most _CERTIFY_BITS bits,
    where dividing by the content costs more than it saves.
    """
    seen, divided = _spy(monkeypatch), _spy_primitive(monkeypatch)
    rng = sampling.rng_for(11)
    for _ in range(200):
        if kind == "full":
            classify(kind, sampling.random_checker_params(rng))
        else:
            classify(kind, sampling.random_subfamily_params(rng)[0])
    assert len(seen["eliminated"]) >= 400 and divided == []


def test_large_blocks_keep_the_content_division(monkeypatch):
    """The ppt family's rho^Gamma blocks past the size threshold are divided by their content.

    Their truncations cannot decide these singular Gram blocks, at 5 digits
    (``certify_big_ppt`` and sampled points) or at 100 (``certify_huge_ppt``).
    The full family's blocks at those sizes are decided by their
    truncations, so they reach neither the content nor the exact path.
    """
    divided = _spy_primitive(monkeypatch)
    for name, calls in (("bigcoef_ppt.json", 2), ("bigcoef100_ppt.json", 2),
                        ("bigcoef_full.json", 0), ("bigcoef100_full.json", 0)):
        divided.clear()
        _certify(name)
        assert len(divided) == calls and all(x.bit_length() > _CERTIFY_BITS for x in divided), name

    @generate_only(5)
    @given(SIZED_POINTS["ppt"]["5-digit"])
    def check(params):
        divided.clear()
        try:
            classify("ppt", params)
        except SingularParameterError:
            assume(False)
        assert len(divided) == 2 and min(x.bit_length() for x in divided) > _CERTIFY_BITS

    check()


def test_zero_first_diagonal_entry_keeps_the_content_division(monkeypatch):
    """A block whose first diagonal entry is 0 does not show its size, small or large,
    so the count divides it by its content and still matches Descartes."""
    divided = _spy_primitive(monkeypatch)
    for k in (6, 3 << 200):
        rows = [[(0, 0), (k, k), (0, 0)], [(k, -k), (5 * k, 0), (k, 0)], [(0, 0), (k, 0), (-k, 0)]]
        assert blocks_inertia([rows]) == _descartes(rows)
    assert divided == [0, 0]


def test_small_blocks_times_a_content_are_eliminated_as_given(monkeypatch):
    """Small blocks times a content of 2, 6 or 10 match Descartes without the content division.

    Only a block whose first diagonal entry is not positive is divided.
    """
    divided = _spy_primitive(monkeypatch)

    @generate_only(200)
    @given(hermitian_blocks(), st.sampled_from([2, 6, 10]))
    def check(m, k):
        rows = [[(k * x, k * y) for x, y in row] for row in _pairs(m)]
        divided.clear()
        assert blocks_inertia([rows]) == inertia_from_char_poly(char_poly(m), m.rows)
        assert (divided == []) is (rows[0][0][0] > 0)

    check()
