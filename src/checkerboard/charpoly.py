"""Integer characteristic polynomials, determinants and exact eigenvalue sign counts.

Every matrix here is Hermitian with Gaussian-integer entries, a block
of one of the block pairs of ``family``: rows of (re, im) int pairs, or
a ``ZMat`` of GaussInts for ``char_poly``.  The characteristic
polynomial of such a matrix has integer coefficients; it gives the
determinant, (-1)^n times its constant term (``matrices.det``), and an
inertia read off by Descartes' rule of signs, which is exact because the
polynomial has only real roots.

Classification hands ``blocks_inertia`` (or ``has_negative_eigenvalue``)
the 4x4 and 5x5 blocks of every matrix it tests: a checkerboard state,
its partial transpose and its reduction matrices are each such a block
pair (see ``family``).  Each block goes through fraction-free symmetric
elimination over Z[i] (Bareiss): each pivot is a nonzero diagonal entry,
its value is the next leading principal minor of the pivots taken, and
Sylvester's law of inertia counts it by the sign of that minor against
the one before.  Each step divides exactly by the minor before its
pivot; the first step's is D_0 = 1, so it divides by nothing.  When no
nonzero diagonal entry remains, the remaining entries are the last minor
times the Schur complement, whose inertia adds to that of the pivots
(Haynsworth); the characteristic polynomial finishes that stalled
remainder, so no 2x2 pivots are needed.  The remainder is most often the
zero matrix: a block of a ppt-family state, where rho^Gamma = rho = V V*,
is a rank-2 Gram matrix that stalls after two pivots on zeros, and
``char_poly`` returns lambda^n for it without a recursion.

The reduction criterion needs only whether a block pair has a negative
eigenvalue, so ``has_negative_eigenvalue`` stops at the first negative
pivot: the pivots taken so far index a principal submatrix whose
leading minors are all nonzero, a sign change among them gives it a
negative eigenvalue (Sylvester, Jacobi), and by Cauchy interlacing the
whole block then has one too.  A block with no negative pivot is counted
in full, its stalled remainder by the characteristic polynomial as
above.  The count and the test run the same elimination,
``_inertia_parts``.  Only the count divides each block by its content
first (``_primitive``), which shrinks every step of a full elimination;
a positive scale changes no sign, and the test, which mostly stops
early on blocks of content 1, eliminates the block as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd

from .gaussian import GaussInt
from .matrices import ZMat, require_hermitian


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue sign counts (negative, zero, positive) of a Hermitian matrix."""

    n_neg: int
    n_zero: int
    n_pos: int


# ---------------------------------------------------------------------------
# Characteristic polynomial via the Faddeev-LeVerrier recursion on a
# Gaussian-integer matrix.  All divisions are exact.


def _dot_conj(u, v):
    """sum_k u[k] * conj(v[k]) over two rows of (re, im) integer pairs."""
    sre = sim = 0
    for (x, y), (p, q) in zip(u, v):
        sre += x * p + y * q
        sim += y * p - x * q
    return sre, sim


def _hermitian_product(a, b, n):
    """A B for Hermitian A and B = a real polynomial in A, so that A B is Hermitian.

    Entry (r, c) is row r of A against row c of B conjugated, since B is
    Hermitian; only the entries on and below the diagonal are summed, and
    each one above is the conjugate of its mirror.
    """
    out = [[None] * n for _ in range(n)]
    for r in range(n):
        for c in range(r):
            re, im = out[r][c] = _dot_conj(a[r], b[c])
            out[c][r] = (re, -im)
        out[r][r] = _dot_conj(a[r], b[r])
    return out


def char_poly(m: ZMat) -> tuple:
    """Integer coefficients of det(lambda*I - m) for Hermitian m, lowest degree first.

    The last coefficient is 1.  The zero matrix gives lambda^n at once.
    """
    require_hermitian(m, "char_poly input")
    n = m.rows
    if not any(m.data):
        return (0,) * n + (1,)
    a = [[(z.re, z.im) for z in m.row(r)] for r in range(n)]
    # Every B_k is a real polynomial in A, so A B_k is Hermitian.
    ab = a  # A B_1, with B_1 = I
    cs = []
    for k in range(1, n + 1):
        if k == n > 1:
            # the last step needs only the diagonal of A B_n
            diag = [_dot_conj(a[i], b[i]) for i in range(n)]
        else:
            diag = [ab[i][i] for i in range(n)]
        if sum(y for _, y in diag):
            raise ArithmeticError("non-real trace in char_poly of Hermitian matrix")
        ck, rem = divmod(-sum(x for x, _ in diag), k)
        if rem:
            raise ArithmeticError("inexact division in Faddeev-LeVerrier recursion")
        cs.append(ck)
        if k < n:
            # B_{k+1} = A B_k + c_k I
            b = [[(x + (ck if i == j else 0), y) for j, (x, y) in enumerate(ab[i])]
                 for i in range(n)]
            if k < n - 1:
                ab = _hermitian_product(a, b, n)
    # det(lambda I - m) = lambda^n + c_1 lambda^(n-1) + ... + c_n
    return (*reversed(cs), 1)


# ---------------------------------------------------------------------------
# Root sign counts by Descartes' rule of signs.


def _sign_changes(signs) -> int:
    nonzero = [s for s in signs if s]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def inertia_from_char_poly(coeffs: tuple, dim: int) -> Inertia:
    """Sign counts of the roots of the characteristic polynomial of a Hermitian matrix.

    Such a polynomial has only real roots, and for a real-rooted polynomial
    Descartes' rule of signs is exact: the positive roots number the sign
    changes of p(x), the negative roots those of p(-x), and the zero roots
    the lowest degree with a nonzero coefficient.  Real-rootedness is the
    caller's precondition; ``char_poly`` enforces it by requiring a
    Hermitian input.  The final dimension check is only a sanity check: a
    polynomial such as x^2 - x + 1, which has no real roots, passes it.
    """
    n_zero = 0
    while n_zero < len(coeffs) and not coeffs[n_zero]:
        n_zero += 1
    signs = [(c > 0) - (c < 0) for c in coeffs[n_zero:]]
    n_pos = _sign_changes(signs)
    n_neg = _sign_changes([-s if k % 2 else s for k, s in enumerate(signs)])
    if n_neg + n_zero + n_pos != dim:
        raise ArithmeticError("root count does not match dimension")
    return Inertia(n_neg, n_zero, n_pos)


def _primitive(rows) -> list:
    """Mutable rows of a Hermitian block divided by its content, the gcd of all parts.

    A positive scale leaves the signs of the eigenvalues alone, and the
    elimination on the smaller entries is cheaper.  The gcd is taken over
    the real parts of the diagonal and the entries strictly below it only:
    the diagonal is real, and each entry above is the conjugate of its
    mirror, whose parts are the same up to sign.
    """
    lower = chain.from_iterable(row[:r] for r, row in enumerate(rows))
    content = gcd(*(row[r][0] for r, row in enumerate(rows)), *chain.from_iterable(lower))
    if content <= 1:
        return [list(row) for row in rows]
    return [[(x // content, y // content) for x, y in row] for row in rows]


# The (neg, zero, pos) counts of one pivot.
_POSITIVE, _NEGATIVE = (0, 0, 1), (1, 0, 0)


def _inertia_parts(a):
    """The inertia of one Hermitian block, in parts, by fraction-free elimination.

    ``a`` is the block as mutable rows of (re, im) int pairs, which the
    elimination overwrites.

    Yields (neg, zero, pos) counts: one count per pivot, then, if the
    elimination stalls, the counts of the remainder; their sum is the
    inertia of the block.  The pivot is the first remaining index with a
    nonzero diagonal entry.  After pivots with leading principal minors
    D_1, ..., D_k, every remaining entry is a (k+1)x(k+1) minor, a_ij <-
    (p a_ij - a_ip a_pj) / D_(k-1) for the pivot value p = D_k, and the
    division is exact.  A pivot is positive when D_k has the sign of
    D_(k-1) (D_0 = 1) and negative otherwise; it is yielded before its
    elimination step, so a caller that stops there skips the rest.  A step
    after a minor D_(k-1) = 1, the first one always, divides by nothing.  If
    elimination stalls, the remaining entries are D_k times the Schur
    complement, so the counts of its characteristic polynomial are
    swapped when D_k < 0.
    """
    rest = list(range(len(a)))
    prev = 1
    while rest:
        p = next((k for k in rest if a[k][k][0]), None)
        if p is None:
            tail = ZMat(len(rest), len(rest), [GaussInt(*a[i][j]) for i in rest for j in rest])
            part = inertia_from_char_poly(char_poly(tail), len(rest))
            neg, pos = (part.n_pos, part.n_neg) if prev < 0 else (part.n_neg, part.n_pos)
            yield neg, part.n_zero, pos
            return
        piv = a[p][p][0]
        yield _POSITIVE if (piv > 0) == (prev > 0) else _NEGATIVE
        rest.remove(p)
        row_p = a[p]
        for t, i in enumerate(rest):
            row_i = a[i]
            xr, xi = row_i[p]
            for j in rest[:t + 1]:
                yr, yi = row_p[j]
                zr, zi = row_i[j]
                re = piv * zr - xr * yr + xi * yi
                im = piv * zi - xr * yi - xi * yr
                if prev != 1:
                    re, rem_re = divmod(re, prev)
                    im, rem_im = divmod(im, prev)
                    if rem_re or rem_im:
                        raise ArithmeticError("inexact division in fraction-free elimination")
                row_i[j] = (re, im)
                a[j][i] = (re, -im)
        prev = piv


def blocks_inertia(blocks) -> Inertia:
    """Exact eigenvalue sign counts of the direct sum of Hermitian blocks.

    Each block is rows of (re, im) int pairs, Hermitian by construction;
    the spectrum of the sum is the union of the blocks' spectra, so the
    counts are the sums of every part of every block.
    """
    n_neg = n_zero = n_pos = 0
    for blk in blocks:
        for neg, zero, pos in _inertia_parts(_primitive(blk)):
            n_neg, n_zero, n_pos = n_neg + neg, n_zero + zero, n_pos + pos
    return Inertia(n_neg, n_zero, n_pos)


def has_negative_eigenvalue(blocks) -> bool:
    """True iff the direct sum of Hermitian blocks has a negative eigenvalue.

    Stops at the first negative pivot.  The pivots taken so far index a
    principal submatrix whose leading minors D_1, ..., D_k are all
    nonzero, so by Jacobi's rule its negative eigenvalues number the sign
    changes of 1, D_1, ..., D_k; one sign change gives it a negative
    eigenvalue, and by Cauchy interlacing the smallest eigenvalue of the
    block is at most that of any principal submatrix.  A block with no
    negative pivot is counted in full, stalled remainder included.
    """
    return any(neg for blk in blocks for neg, _, _ in _inertia_parts([list(row) for row in blk]))
