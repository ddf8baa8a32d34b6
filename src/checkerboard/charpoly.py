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
``char_poly`` returns lambda^n for it without a recursion, before its
Hermitian check.

The reduction criterion needs only whether a block pair has a negative
eigenvalue, so ``has_negative_eigenvalue`` stops at the first negative
pivot: the pivots taken so far index a principal submatrix whose
leading minors are all nonzero, a sign change among them gives it a
negative eigenvalue (Sylvester, Jacobi), and by Cauchy interlacing the
whole block then has one too.  A block with no negative pivot is counted
in full, its stalled remainder by the characteristic polynomial as
above.  The count and the test run the same elimination,
``_inertia_parts``.  A positive scale changes no sign, so the count may
divide a block by its content first (``_primitive``), which shrinks
every step of a full elimination.  It does so only where that pays: on
a block whose first diagonal entry has more than 160 bits (below) and
whose truncation does not decide it, such as the singular Gram blocks
of a 5-digit ppt-family rho^Gamma.  A block whose first diagonal entry
is positive and of at most 160 bits, as on every default-sampler state
(at most 130 bits), is eliminated as given: there the gcd costs more
than it saves.  A block whose first diagonal entry is 0 (or negative)
does not show its size that way, so it is divided too.  The test,
which mostly stops early on blocks of content 1, eliminates every
block as given.

Large coefficients make every step of that elimination a big-integer
one, so a block whose first diagonal entry has more than 160 bits first
tries a certificate on a truncated copy (``_truncated_inertia``), which
needs only small integers; the count and the test take the exact path
above only where it cannot decide.  The proof, for an n x n Hermitian
block A and a shift s:

- Build T from A/2^s by flooring each part of each entry on and below
  the diagonal, and mirror it above, so that T is Hermitian.
- Then E = A/2^s - T is Hermitian with every |E_rc|^2 < 2, since each
  part of each entry on and below the diagonal lies in [0, 1); so
  ||E||_2 <= ||E||_F < n sqrt(2).
- Let F = sum |T_rc|^2 >= ||T||_2^2.  |det T| is the product of the
  |lambda| of T, each at most sqrt(F), so every eigenvalue of T has
  |lambda| >= |det T| / sqrt(F)^(n-1).  If det(T)^2 >= 2 n^2 F^(n-1),
  that is at least n sqrt(2) > ||E||_2.
- By Weyl's inequality the k-th eigenvalues of A/2^s and of T differ by
  at most ||E||_2, so A has the inertia of T and no zero eigenvalue.
- The elimination ``_inertia_parts`` run on T gives its inertia and, as
  its last leading minor D_n, det T: the pivot order is a symmetric
  permutation, which leaves the determinant unchanged.

The shift keeps 64 bits of the first diagonal entry.  Failing the bound
only means the exact path runs.  A singular block cannot pass it, and
the certificate gives up early, at the first pivot of T with
D_k^2 < 2 n^2 D_(k-1)^2: the rank-2 Gram blocks of a ppt-family
rho^Gamma stop there, at their third or fourth pivot.  The entries of
the blocks of default-sampler states have at most 130 bits, so those
never reach the certificate.
"""

from __future__ import annotations

from itertools import chain
from math import gcd

from .gaussian import GaussInt
from .matrices import ZMat, require_hermitian
from .records import record


@record
class Inertia:
    """Eigenvalue sign counts (negative, zero, positive) of a Hermitian matrix."""

    n_neg: int
    n_zero: int
    n_pos: int

    def __init__(self, n_neg: int, n_zero: int, n_pos: int):
        fields = self.__dict__
        fields["n_neg"], fields["n_zero"], fields["n_pos"] = n_neg, n_zero, n_pos


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

    The last coefficient is 1.  A square zero matrix, Hermitian as it
    stands, gives lambda^n before the Hermitian check scans its entries.
    """
    n = m.rows
    if n == m.cols and not any(m.data):
        return (0,) * n + (1,)
    require_hermitian(m, "char_poly input")
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
    mirror, whose parts are the same up to sign.  For the same reason only
    those parts are divided, and each quotient is mirrored above.
    """
    lower = chain.from_iterable(row[:r] for r, row in enumerate(rows))
    content = gcd(*(row[r][0] for r, row in enumerate(rows)), *chain.from_iterable(lower))
    if content <= 1:
        return [list(row) for row in rows]
    n = len(rows)
    out = [[None] * n for _ in range(n)]
    for r, row in enumerate(rows):
        for c in range(r):
            x, y = row[c]
            x //= content
            y //= content
            out[r][c] = (x, y)
            out[c][r] = (x, -y)
        out[r][r] = (row[r][0] // content, 0)
    return out


# The (neg, zero, pos) counts of one pivot.
_POSITIVE, _NEGATIVE = (0, 0, 1), (1, 0, 0)


def _inertia_parts(a):
    """The inertia of one Hermitian block, in parts, by fraction-free elimination.

    ``a`` is the block as mutable rows of (re, im) int pairs, which the
    elimination overwrites.

    Yields one ((neg, zero, pos), minor) pair per pivot, then, if the
    elimination stalls, the counts of the remainder with the minor 0; the
    counts sum to the inertia of the block.  The pivot is the first
    remaining index with a nonzero diagonal entry.  After pivots with
    leading principal minors D_1, ..., D_k, every remaining entry is a
    (k+1)x(k+1) minor, a_ij <- (p a_ij - a_ip a_pj) / D_(k-1) for the pivot
    value p = D_k, and the division is exact.  Every remaining block is
    Hermitian, so a diagonal entry needs only its real part, with
    a_pi = conj(a_ip): a_ii <- (p a_ii - |a_ip|^2) / D_(k-1).  A pivot is
    positive when D_k has the sign of D_(k-1) (D_0 = 1) and negative
    otherwise; it is yielded with D_k before its elimination step, so a
    caller that stops there skips the rest.  After n pivots the last minor
    D_n is the determinant: the pivot order is a symmetric permutation,
    which leaves it unchanged.  A step after a minor D_(k-1) = 1, the
    first one always, divides by nothing.  If elimination stalls, the
    remaining entries are D_k times the Schur complement, so the counts of
    its characteristic polynomial are swapped when D_k < 0.
    """
    rest = list(range(len(a)))
    prev = 1
    while rest:
        p = next((k for k in rest if a[k][k][0]), None)
        if p is None:
            tail = ZMat(len(rest), len(rest), [GaussInt(*a[i][j]) for i in rest for j in rest])
            part = inertia_from_char_poly(char_poly(tail), len(rest))
            neg, pos = (part.n_pos, part.n_neg) if prev < 0 else (part.n_neg, part.n_pos)
            yield (neg, part.n_zero, pos), 0
            return
        piv = a[p][p][0]
        yield _POSITIVE if (piv > 0) == (prev > 0) else _NEGATIVE, piv
        rest.remove(p)
        row_p = a[p]
        for t, i in enumerate(rest):
            row_i = a[i]
            xr, xi = row_i[p]
            for j in rest[:t]:
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
            re = piv * row_i[i][0] - xr * xr - xi * xi
            if prev != 1:
                re, rem_re = divmod(re, prev)
                if rem_re:
                    raise ArithmeticError("inexact division in fraction-free elimination")
            row_i[i] = (re, 0)
        prev = piv


# Over 3000 default-sampler states of each family (seed 7), no entry of a block
# of rho^Gamma or of a reduction matrix has more than 130 bits; at 5 digits the
# full family's entries run to about 850 bits.
_CERTIFY_BITS = 160
_KEPT_BITS = 64
# A positive first diagonal entry below this has at most _CERTIFY_BITS bits.
_CERTIFY_FROM = 1 << _CERTIFY_BITS


def _truncated_inertia(rows):
    """(neg, 0, pos) counts of a large Hermitian block proved from its truncation, or None.

    None, for a block of at most _CERTIFY_BITS bits in its first diagonal
    entry or one the certificate cannot decide, sends the block down the
    exact path.  The truncation T is the block floored over 2^s, for the
    shift s that leaves _KEPT_BITS bits of the first diagonal entry.  Its
    elimination gives up at the first pivot with D_k^2 < 2 n^2 D_(k-1)^2;
    otherwise it yields T's inertia and det T = D_n, and the counts are
    proved when det(T)^2 >= 2 n^2 F^(n-1), F the squared Frobenius norm
    of T (module docstring).
    """
    top = rows[0][0][0].bit_length()
    if top <= _CERTIFY_BITS:
        return None
    shift = top - _KEPT_BITS
    n = len(rows)
    t = [[None] * n for _ in range(n)]
    frob = 0
    for r, row in enumerate(rows):
        for c in range(r):
            x, y = row[c]
            x >>= shift
            y >>= shift
            t[r][c] = (x, y)
            t[c][r] = (x, -y)
            frob += 2 * (x * x + y * y)
        d = row[r][0] >> shift
        t[r][r] = (d, 0)
        frob += d * d
    bound = 2 * n * n
    n_neg = n_pos = 0
    prev = 1
    for (neg, _, pos), minor in _inertia_parts(t):
        if minor * minor < bound * prev * prev:
            return None
        n_neg += neg
        n_pos += pos
        prev = minor
    if prev * prev < bound * frob ** (n - 1):
        return None
    return n_neg, 0, n_pos


def blocks_inertia(blocks) -> Inertia:
    """Exact eigenvalue sign counts of the direct sum of Hermitian blocks.

    Each block is rows of (re, im) int pairs, Hermitian by construction;
    the spectrum of the sum is the union of the blocks' spectra, so the
    counts are the sums of every part of every block.  A large block whose
    truncation certificate decides is counted from it.  A block whose
    first diagonal entry is positive and of at most _CERTIFY_BITS bits is
    eliminated exactly as given; every other block is divided by its
    content first.
    """
    n_neg = n_zero = n_pos = 0
    for blk in blocks:
        known = _truncated_inertia(blk)
        if known:
            parts = ((known, None),)
        elif 0 < blk[0][0][0] < _CERTIFY_FROM:
            parts = _inertia_parts([list(row) for row in blk])
        else:
            parts = _inertia_parts(_primitive(blk))
        for (neg, zero, pos), _ in parts:
            n_neg, n_zero, n_pos = n_neg + neg, n_zero + zero, n_pos + pos
    return Inertia(n_neg, n_zero, n_pos)


def has_negative_eigenvalue(blocks) -> bool:
    """True iff the direct sum of Hermitian blocks has a negative eigenvalue.

    A large block whose truncation certificate decides answers from its
    proved inertia.  Every other block is eliminated as given, and the
    test stops at the first negative pivot.  The pivots taken so far index
    a principal submatrix whose leading minors D_1, ..., D_k are all
    nonzero, so by Jacobi's rule its negative eigenvalues number the sign
    changes of 1, D_1, ..., D_k; one sign change gives it a negative
    eigenvalue, and by Cauchy interlacing the smallest eigenvalue of the
    block is at most that of any principal submatrix.  A block with no
    negative pivot is counted in full, stalled remainder included.
    """
    for blk in blocks:
        known = _truncated_inertia(blk)
        parts = ((known, None),) if known else _inertia_parts([list(row) for row in blk])
        if any(neg for (neg, _, _), _ in parts):
            return True
    return False
