"""Dense matrices over the Gaussian rationals and integers, with exact linear algebra.

``GMat`` holds GaussRats and ``ZMat`` GaussInts; ``integer_lift`` turns the
first into the second over the least common denominator.  The determinant
of a Hermitian ``ZMat`` is the signed constant term of its integer
characteristic polynomial (``charpoly``).  Rank and nullspace use rational
Gauss-Jordan elimination with exact pivots; rank eliminates each block of
the matrix's nonzero pattern on its own.

The modular helpers work in F_P for the prime P = 2^61 - 1: residues of
rationals, row echelon forms and kernel vectors mod P, and rational
reconstruction.  A rank mod P never exceeds the rank over the rationals of
the matrix it reduces, so it is a proven lower bound; callers use it to
certify Jacobian ranks and fall back to ``rank`` when it is not enough.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

from .errors import DimensionError, SymmetryError
from .gaussian import GaussRat, lift_to_integers


def _as_gauss(x) -> GaussRat:
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    raise TypeError(f"matrix entries must be GaussRat-compatible, got {type(x).__name__}")


class _Grid:
    """Immutable dense matrix, row-major storage; the entry type is the subclass's."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence):
        if rows < 0 or cols < 0:
            raise DimensionError("negative matrix dimension")
        entries = self._entries(data)
        if len(entries) != rows * cols:
            raise DimensionError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]):
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise DimensionError("ragged rows")
        return cls(n, m, [x for r in rows for x in r])

    # -- access ------------------------------------------------------
    def __getitem__(self, rc):
        r, c = rc
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(rc)
        return self.data[r * self.cols + c]

    def row(self, r: int) -> tuple:
        return self.data[r * self.cols : (r + 1) * self.cols]

    def transpose(self):
        return type(self)(self.cols, self.rows,
                          [self.data[r * self.cols + c] for c in range(self.cols) for r in range(self.rows)])

    def trace(self):
        if self.rows != self.cols:
            raise DimensionError("trace of non-square matrix")
        return sum(self.data[d * self.cols + d] for d in range(self.rows))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]):
        return type(self)(len(row_idx), len(col_idx),
                          [self.data[r * self.cols + c] for r in row_idx for c in col_idx])

    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_hermitian(self) -> bool:
        if self.rows != self.cols:
            return False
        n, data = self.rows, self.data
        for r in range(n):
            for c in range(r + 1):
                x, y = data[r * n + c], data[c * n + r]
                if x.re != y.re or x.im != -y.im:
                    return False
        return True

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.shape() == other.shape() and self.data == other.data

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(r)) for r in range(self.rows))
        return f"{type(self).__name__}[{self.rows}x{self.cols}: {body}]"

    def _same_shape(self, other):
        if self.shape() != other.shape():
            raise DimensionError(f"shape mismatch {self.shape()} vs {other.shape()}")


class GMat(_Grid):
    """Immutable dense matrix with GaussRat entries (ints and Fractions are coerced)."""

    __slots__ = ()

    @staticmethod
    def _entries(data) -> tuple:
        return tuple(_as_gauss(x) for x in data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GMat":
        return cls(rows, cols, [GaussRat(0)] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "GMat":
        return cls(n, n, [GaussRat(1 if r == c else 0) for r in range(n) for c in range(n)])

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

    def conj_transpose(self) -> "GMat":
        return GMat(self.cols, self.rows,
                    [self.data[r * self.cols + c].conj() for c in range(self.cols) for r in range(self.rows)])


class ZMat(_Grid):
    """Immutable dense matrix with GaussInt entries: the integer grids of classification.

    Entries are taken as given, without coercion, because these grids are
    built on the hot path from GaussInts only.
    """

    __slots__ = ()

    _entries = staticmethod(tuple)

    def over(self, den: int) -> GMat:
        """This matrix divided by the positive integer ``den``, as a GMat."""
        return GMat(self.rows, self.cols, [z.over(den) for z in self.data])


def integer_lift(m: GMat) -> tuple:
    """(d*m as a ZMat, d) for the least common denominator d of m's entries."""
    ints, d = lift_to_integers(m.data)
    return ZMat(m.rows, m.cols, ints), d


def kron(a: GMat, b: GMat) -> GMat:
    """Tensor (Kronecker) product with the left factor on the outer index."""
    out = []
    for ra in range(a.rows):
        for rb in range(b.rows):
            for ca in range(a.cols):
                for cb in range(b.cols):
                    out.append(a[ra, ca] * b[rb, cb])
    return GMat(a.rows * b.rows, a.cols * b.cols, out)


def det(m: ZMat) -> int:
    """Exact determinant of a Hermitian integer grid: (-1)^n times its char poly at 0."""
    from .charpoly import char_poly  # charpoly imports this module

    return (-1) ** m.rows * char_poly(m)[0]


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


# ---------------------------------------------------------------------------
# Arithmetic mod P.  P is 3 mod 4, so x^2 + 1 has no root mod P and F_P[i]
# is a field: the residue of a Gaussian rational is the pair of the
# residues of its parts, and complex conjugation commutes with reduction.

P = (1 << 61) - 1
_RECONSTRUCTION_BOUND = isqrt(P // 2)


def residue(x: Fraction) -> int:
    """x mod P; raises ZeroDivisionError when P divides the denominator."""
    den = x.denominator % P
    if not den:
        raise ZeroDivisionError("P divides the denominator")
    return x.numerator * pow(den, -1, P) % P


def gauss_residue(z: GaussRat) -> tuple:
    """(Re z, Im z) mod P with one inverse of the denominator; raises
    ZeroDivisionError when P divides it."""
    den = z.d % P
    if not den:
        raise ZeroDivisionError("P divides the denominator")
    inv = pow(den, -1, P)
    return z.x * inv % P, z.y * inv % P


def echelon_mod_p(rows: Sequence[Sequence[int]]) -> tuple:
    """Row echelon form over F_P: (nonzero rows with leading 1s, their pivot columns)."""
    rest = [[x % P for x in row] for row in rows]
    done, pivots = [], []
    for c in range(len(rest[0]) if rest else 0):
        k = next((k for k, row in enumerate(rest) if row[c]), None)
        if k is None:
            continue
        piv = rest.pop(k)
        inv = pow(piv[c], -1, P)
        piv = [x * inv % P for x in piv]
        rest = [[(x - f * y) % P for x, y in zip(row, piv)] if (f := row[c]) else row
                for row in rest]
        done.append(piv)
        pivots.append(c)
    return done, pivots


def kernel_vector_mod_p(echelon: list, pivots: list, free: int, width: int) -> list:
    """The kernel vector mod P with 1 at non-pivot column ``free``, 0 at the other non-pivots."""
    v = [0] * width
    v[free] = 1
    for row, pc in reversed(list(zip(echelon, pivots))):
        v[pc] = -sum(row[j] * v[j] for j in range(pc + 1, width)) % P
    return v


def rational_reconstruction(u: int):
    """The fraction n/d with |n|, d <= sqrt(P/2) and n = u*d mod P, or None (Wang 1981).

    Such a fraction is unique when it exists; callers verify it exactly.
    """
    r0, r1, s0, s1 = P, u % P, 0, 1
    while r1 > _RECONSTRUCTION_BOUND:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if not s1 or abs(s1) > _RECONSTRUCTION_BOUND:
        return None
    return Fraction(r1, s1)


def require_hermitian(m: GMat, what: str = "matrix"):
    if not m.is_hermitian():
        raise SymmetryError(f"{what} is not Hermitian")
