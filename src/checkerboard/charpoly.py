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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionError
from .matrices import GMat, _common_denominator, _lift, connected_components, require_hermitian


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
# common-denominator Gaussian-integer lift.  All divisions are exact.


def _zi_matmul(a, b, n):
    out = []
    for r in range(n):
        ar = a[r]
        row = []
        for c in range(n):
            sre = 0
            sim = 0
            for k in range(n):
                x, y = ar[k]
                u, v = b[k][c]
                sre += x * u - y * v
                sim += x * v + y * u
            row.append((sre, sim))
        out.append(row)
    return out


def char_poly(m: GMat) -> RealPoly:
    """Coefficients of det(lambda*I - m) for Hermitian m, lowest degree first."""
    require_hermitian(m, "char_poly input")
    n = m.rows
    if n == 0:
        return RealPoly([Fraction(1)])
    d = _common_denominator(m)
    a = _lift(m, d)
    # b starts as the identity; c_k collects the lifted coefficients.
    b = [[(1, 0) if r == c else (0, 0) for c in range(n)] for r in range(n)]
    cs = []
    for k in range(1, n + 1):
        ab = _zi_matmul(a, b, n)
        tr_re = sum(ab[i][i][0] for i in range(n))
        tr_im = sum(ab[i][i][1] for i in range(n))
        if tr_im:
            raise ArithmeticError("non-real trace in char_poly of Hermitian matrix")
        ck, rem = divmod(-tr_re, k)
        if rem:
            raise ArithmeticError("inexact division in Faddeev-LeVerrier recursion")
        cs.append(ck)
        if k < n:
            for i in range(n):
                b[i] = [(x + (ck if i == j else 0), y) for j, (x, y) in enumerate(ab[i])]
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


def inertia(m: GMat) -> Inertia:
    """Exact (negative, zero, positive) eigenvalue counts of a Hermitian matrix.

    The indices split into the connected components of the graph with an
    edge r-c wherever m[r, c] or m[c, r] is nonzero.  The spectrum of m is
    the union of the spectra of those diagonal blocks, so each block's
    counts come from its own, smaller characteristic polynomial.
    """
    if not m.is_square():
        raise DimensionError("inertia of non-square matrix")
    require_hermitian(m, "inertia input")
    n = m.rows
    edges = ((r, c) for r in range(n) for c in range(n) if r != c and m.data[r * n + c])
    n_neg = n_zero = n_pos = 0
    for group in connected_components(n, edges):
        part = inertia_from_char_poly(char_poly(m.submatrix(group, group)), len(group))
        n_neg += part.n_neg
        n_zero += part.n_zero
        n_pos += part.n_pos
    return Inertia(n_neg, n_zero, n_pos)
