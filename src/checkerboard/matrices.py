"""Dense matrices over the Gaussian rationals, with exact linear algebra.

Determinants run fraction-free (Bareiss) on a common-denominator lift to
Gaussian integers, which keeps intermediate values small on the 9x9
matrices this package works with; a plain rational elimination is used
when the lift would be disproportionately large.  Rank and nullspace use
rational Gauss-Jordan elimination with exact pivots; rank eliminates each
block of the matrix's nonzero pattern on its own.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import DimensionError, SymmetryError
from .gaussian import GaussRat

# Bit size of the common denominator beyond which the integer lift is
# abandoned in favour of rational elimination.
_LIFT_BIT_LIMIT = 256


def _as_gauss(x) -> GaussRat:
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    raise TypeError(f"matrix entries must be GaussRat-compatible, got {type(x).__name__}")


class GMat:
    """Immutable dense matrix with GaussRat entries, row-major storage."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence):
        if rows < 0 or cols < 0:
            raise DimensionError("negative matrix dimension")
        entries = tuple(_as_gauss(x) for x in data)
        if len(entries) != rows * cols:
            raise DimensionError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", entries)

    def __setattr__(self, name, value):
        raise AttributeError("GMat is immutable")

    # -- construction ----------------------------------------------
    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "GMat":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise DimensionError("ragged rows")
        return cls(n, m, [x for r in rows for x in r])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GMat":
        return cls(rows, cols, [GaussRat(0)] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "GMat":
        return cls(n, n, [GaussRat(1 if r == c else 0) for r in range(n) for c in range(n)])

    # -- access ------------------------------------------------------
    def __getitem__(self, rc) -> GaussRat:
        r, c = rc
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(rc)
        return self.data[r * self.cols + c]

    def row(self, r: int) -> tuple:
        return self.data[r * self.cols : (r + 1) * self.cols]

    def to_lists(self) -> list:
        return [list(self.row(r)) for r in range(self.rows)]

    # -- algebra -----------------------------------------------------
    def __add__(self, other: "GMat") -> "GMat":
        self._same_shape(other)
        return GMat(self.rows, self.cols, [x + y for x, y in zip(self.data, other.data)])

    def __sub__(self, other: "GMat") -> "GMat":
        self._same_shape(other)
        return GMat(self.rows, self.cols, [x - y for x, y in zip(self.data, other.data)])

    def __neg__(self) -> "GMat":
        return GMat(self.rows, self.cols, [-x for x in self.data])

    def scale(self, s) -> "GMat":
        s = _as_gauss(s)
        return GMat(self.rows, self.cols, [x * s for x in self.data])

    def __matmul__(self, other: "GMat") -> "GMat":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape()} by {other.shape()}")
        out = []
        for r in range(self.rows):
            rr = self.row(r)
            for c in range(other.cols):
                acc = GaussRat(0)
                for k in range(self.cols):
                    acc = acc + rr[k] * other.data[k * other.cols + c]
                out.append(acc)
        return GMat(self.rows, other.cols, out)

    def transpose(self) -> "GMat":
        return GMat(self.cols, self.rows,
                    [self.data[r * self.cols + c] for c in range(self.cols) for r in range(self.rows)])

    def conj_transpose(self) -> "GMat":
        return GMat(self.cols, self.rows,
                    [self.data[r * self.cols + c].conj() for c in range(self.cols) for r in range(self.rows)])

    def trace(self) -> GaussRat:
        if self.rows != self.cols:
            raise DimensionError("trace of non-square matrix")
        acc = GaussRat(0)
        for d in range(self.rows):
            acc = acc + self.data[d * self.cols + d]
        return acc

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "GMat":
        return GMat(len(row_idx), len(col_idx),
                    [self.data[r * self.cols + c] for r in row_idx for c in col_idx])

    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_hermitian(self) -> bool:
        if self.rows != self.cols:
            return False
        for r in range(self.rows):
            for c in range(r + 1):
                if self[r, c] != self[c, r].conj():
                    return False
        return True

    def __eq__(self, other):
        if not isinstance(other, GMat):
            return NotImplemented
        return self.shape() == other.shape() and self.data == other.data

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(r)) for r in range(self.rows))
        return f"GMat[{self.rows}x{self.cols}: {body}]"

    def _same_shape(self, other: "GMat"):
        if self.shape() != other.shape():
            raise DimensionError(f"shape mismatch {self.shape()} vs {other.shape()}")


def kron(a: GMat, b: GMat) -> GMat:
    """Tensor (Kronecker) product with the left factor on the outer index."""
    out = []
    for ra in range(a.rows):
        for rb in range(b.rows):
            for ca in range(a.cols):
                for cb in range(b.cols):
                    out.append(a[ra, ca] * b[rb, cb])
    return GMat(a.rows * b.rows, a.cols * b.cols, out)


# ---------------------------------------------------------------------------
# Gaussian-integer helpers for the fraction-free path.  A Gaussian integer
# is represented as a plain (re, im) tuple of Python ints.


def _zi_mul(u, v):
    a, b = u
    c, d = v
    return (a * c - b * d, a * d + b * c)


def _zi_sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def _zi_exact_div(u, v):
    a, b = u
    c, d = v
    n = c * c + d * d
    re_num = a * c + b * d
    im_num = b * c - a * d
    qr, rr = divmod(re_num, n)
    qi, ri = divmod(im_num, n)
    if rr or ri:
        raise ArithmeticError("inexact Gaussian-integer division in Bareiss step")
    return (qr, qi)


def _common_denominator(m: GMat) -> int:
    d = 1
    for x in m.data:
        d = lcm(d, x.re.denominator, x.im.denominator)
    return d


def _lift(m: GMat, d: int):
    grid = []
    for r in range(m.rows):
        grid.append([(int(x.re * d), int(x.im * d)) for x in m.row(r)])
    return grid


def _det_bareiss(grid, n: int):
    sign = 1
    prev = (1, 0)
    for k in range(n - 1):
        piv = None
        for r in range(k, n):
            if grid[r][k] != (0, 0):
                piv = r
                break
        if piv is None:
            return (0, 0)
        if piv != k:
            grid[k], grid[piv] = grid[piv], grid[k]
            sign = -sign
        akk = grid[k][k]
        for r in range(k + 1, n):
            ark = grid[r][k]
            row_r = grid[r]
            row_k = grid[k]
            for c in range(k + 1, n):
                num = _zi_sub(_zi_mul(akk, row_r[c]), _zi_mul(ark, row_k[c]))
                row_r[c] = _zi_exact_div(num, prev)
            row_r[k] = (0, 0)
        prev = akk
    d = grid[n - 1][n - 1]
    return d if sign == 1 else (-d[0], -d[1])


def _det_rational(m: GMat) -> GaussRat:
    n = m.rows
    grid = [list(m.row(r)) for r in range(n)]
    det = GaussRat(1)
    for k in range(n):
        piv = None
        for r in range(k, n):
            if grid[r][k]:
                piv = r
                break
        if piv is None:
            return GaussRat(0)
        if piv != k:
            grid[k], grid[piv] = grid[piv], grid[k]
            det = -det
        pivot = grid[k][k]
        det = det * pivot
        for r in range(k + 1, n):
            if not grid[r][k]:
                continue
            factor = grid[r][k] / pivot
            grid[r] = [x - factor * y for x, y in zip(grid[r], grid[k])]
    return det


def det(m: GMat) -> GaussRat:
    """Exact determinant of a square matrix."""
    if not m.is_square():
        raise DimensionError(f"determinant of non-square {m.shape()} matrix")
    n = m.rows
    if n == 0:
        return GaussRat(1)
    d = _common_denominator(m)
    if d.bit_length() > _LIFT_BIT_LIMIT:
        return _det_rational(m)
    re_i, im_i = _det_bareiss(_lift(m, d), n)
    scale = Fraction(1, d) ** n
    return GaussRat(re_i * scale, im_i * scale)


def _row_echelon(m: GMat):
    """Reduced row echelon form; returns (grid, pivot_columns)."""
    grid = [list(m.row(r)) for r in range(m.rows)]
    pivots = []
    lead = 0
    for c in range(m.cols):
        piv = None
        for r in range(lead, m.rows):
            if grid[r][c]:
                piv = r
                break
        if piv is None:
            continue
        grid[lead], grid[piv] = grid[piv], grid[lead]
        inv = grid[lead][c]
        grid[lead] = [x / inv for x in grid[lead]]
        for r in range(m.rows):
            if r != lead and grid[r][c]:
                f = grid[r][c]
                grid[r] = [x - f * y for x, y in zip(grid[r], grid[lead])]
        pivots.append(c)
        lead += 1
        if lead == m.rows:
            break
    return grid, pivots


def connected_components(n: int, edges) -> list:
    """Connected components of the graph on 0..n-1 with the given edges.

    Each component is an ascending index list, and the components come in
    order of their least index, so the work done per component is
    deterministic.
    """
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def rank(m: GMat) -> int:
    """Exact rank over the Gaussian rationals.

    Rows and columns split into the connected components of the bipartite
    graph with an edge r-c wherever m[r, c] is nonzero.  Permuted, m is
    block diagonal in those components, so its rank is the sum of the
    blocks' ranks.
    """
    nr, nc = m.rows, m.cols
    edges = ((r, nr + c) for r in range(nr) for c in range(nc) if m.data[r * nc + c])
    total = 0
    for group in connected_components(nr + nc, edges):
        rows = [i for i in group if i < nr]
        cols = [i - nr for i in group if i >= nr]
        if rows and cols:
            total += len(_row_echelon(m.submatrix(rows, cols))[1])
    return total


def nullspace_basis(m: GMat) -> GMat:
    """Matrix whose columns span ker(m) exactly; zero columns mean trivial kernel."""
    grid, pivots = _row_echelon(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    basis_cols = []
    for fc in free_cols:
        vec = [GaussRat(0)] * m.cols
        vec[fc] = GaussRat(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -grid[prow][fc]
        basis_cols.append(vec)
    data = [basis_cols[c][r] for r in range(m.cols) for c in range(len(basis_cols))]
    return GMat(m.cols, len(basis_cols), data)


def column_spans_equal(a: GMat, b: GMat) -> bool:
    """True iff the column spans of two matrices with equal row counts coincide."""
    if a.rows != b.rows:
        raise DimensionError("row-count mismatch")
    ra = rank(a)
    rb = rank(b)
    if ra != rb:
        return False
    joint = GMat(a.rows, a.cols + b.cols,
                 [x for r in range(a.rows) for x in (a.row(r) + b.row(r))])
    return rank(joint) == ra


def require_hermitian(m: GMat, what: str = "matrix"):
    if not m.is_hermitian():
        raise SymmetryError(f"{what} is not Hermitian")
