"""Characteristic polynomials and exact eigenvalue sign counts.

The inertia of a Hermitian matrix is read off its characteristic
polynomial by Descartes' rule of signs, which is exact because that
polynomial has only real roots; multiplicities and zero eigenvalues need
no special handling.  This avoids any pivoting edge cases that a
congruence decomposition would hit on the singular rank-4 matrices that
appear throughout this package.  The matrix is first split into the
diagonal blocks of its nonzero pattern: every checkerboard state, its
partial transpose and its reduction matrices split into a 4x4 and a 5x5
block, which shrinks the characteristic-polynomial work several times.

Classification hands over Gaussian-integer ``ZMat``s, built once per
state from its lifted parameters, so no call lifts anything; each block
is divided by its content before its characteristic polynomial is taken.
A ``GMat`` (a test, a golden item) is lifted over its least common
denominator on entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import DimensionError
from .gaussian import GaussInt
from .matrices import GMat, ZMat, connected_components, integer_lift, require_hermitian


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue sign counts (negative, zero, positive) of a Hermitian matrix."""

    n_neg: int
    n_zero: int
    n_pos: int

    def dim(self) -> int:
        return self.n_neg + self.n_zero + self.n_pos


class RealPoly:
    """Polynomial with rational coefficients, stored lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction]):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RealPoly is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, RealPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RealPoly({list(self.coeffs)!r})"


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


def char_poly(m) -> RealPoly:
    """Coefficients of det(lambda*I - m) for Hermitian m, lowest degree first.

    A ``ZMat`` is used as it is.  A ``GMat`` is lifted to d*m over its
    least common denominator d first, and the coefficients are scaled back.
    """
    d = 1
    if isinstance(m, GMat):
        m, d = integer_lift(m)
    require_hermitian(m, "char_poly input")
    n = m.rows
    if n == 0:
        return RealPoly([Fraction(1)])
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
    # det(lambda I - m) = sum_j c_{n-j} / d^{n-j} * lambda^j with c_0 = 1.
    coeffs = [Fraction(cs[n - 1 - j], d ** (n - j)) for j in range(n)] + [Fraction(1)]
    return RealPoly(coeffs)


# ---------------------------------------------------------------------------
# Root sign counts by Descartes' rule of signs.


def _sign_changes(signs) -> int:
    nonzero = [s for s in signs if s]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def inertia_from_char_poly(p: RealPoly, dim: int) -> Inertia:
    """Sign counts of the roots of the characteristic polynomial of a Hermitian matrix.

    Such a polynomial has only real roots, and for a real-rooted polynomial
    Descartes' rule of signs is exact: the positive roots number the sign
    changes of p(x), the negative roots those of p(-x), and the zero roots
    the lowest degree with a nonzero coefficient.  Real-rootedness is the
    caller's precondition; ``char_poly`` enforces it by requiring a
    Hermitian input.  The final dimension check is only a sanity check: a
    polynomial such as x^2 - x + 1, which has no real roots, passes it.
    """
    coeffs = p.coeffs
    n_zero = 0
    while n_zero < len(coeffs) and not coeffs[n_zero]:
        n_zero += 1
    signs = [(c > 0) - (c < 0) for c in coeffs[n_zero:]]
    n_pos = _sign_changes(signs)
    n_neg = _sign_changes([-s if k % 2 else s for k, s in enumerate(signs)])
    if n_neg + n_zero + n_pos != dim:
        raise ArithmeticError("root count does not match dimension")
    return Inertia(n_neg, n_zero, n_pos)


def _primitive(m: ZMat) -> ZMat:
    """m divided by its content, the gcd of all real and imaginary parts.

    A positive scale leaves the signs of the eigenvalues alone, and the
    characteristic polynomial of the smaller entries is cheaper.
    """
    content = gcd(*(part for z in m.data for part in (z.re, z.im)))
    if content <= 1:
        return m
    return ZMat(m.rows, m.cols, [GaussInt(z.re // content, z.im // content) for z in m.data])


def inertia(m) -> Inertia:
    """Exact (negative, zero, positive) eigenvalue counts of a Hermitian matrix.

    A ``GMat`` is lifted to a ``ZMat`` over its least common denominator
    first; the positive scale keeps the signs.  The indices split into the
    connected components of the graph with an edge r-c wherever m[r, c]
    or m[c, r] is nonzero.  The spectrum of m is the union of the spectra
    of those diagonal blocks, so each block's counts come from its own,
    smaller characteristic polynomial, taken after dividing the block by
    its content.
    """
    if not m.is_square():
        raise DimensionError("inertia of non-square matrix")
    if isinstance(m, GMat):
        m = integer_lift(m)[0]
    require_hermitian(m, "inertia input")
    n = m.rows
    edges = ((r, c) for r in range(n) for c in range(n) if r != c and m.data[r * n + c])
    n_neg = n_zero = n_pos = 0
    for group in connected_components(n, edges):
        block = _primitive(m.submatrix(group, group))
        part = inertia_from_char_poly(char_poly(block), len(group))
        n_neg += part.n_neg
        n_zero += part.n_zero
        n_pos += part.n_pos
    return Inertia(n_neg, n_zero, n_pos)
