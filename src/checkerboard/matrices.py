"""Dense matrices over the Gaussian rationals and integers, with exact linear algebra.

``GMat`` holds GaussRats and ``ZMat`` GaussInts; ``integer_lift`` turns the
first into the second over the least common denominator.  The determinant
of a Hermitian ``ZMat`` is the signed constant term of its integer
characteristic polynomial (``charpoly``).  Rank uses rational
Gauss-Jordan elimination with exact pivots, on each block of the matrix's
nonzero pattern on its own.

The modular helpers work in F_p and F_p[i] for primes p = 3 mod 4, from
P = 2^61 - 1 down (``primes``): residues of rationals, sparse row echelon
forms and kernel vectors, and rational reconstruction of a number or of
a vector over one common denominator, from one prime or from several
combined by the Chinese remainder theorem.  A rank mod p never exceeds
the rank over the rationals of the matrix it reduces, so it is a proven
lower bound; callers use it to certify Jacobian ranks and fall back to
``rank`` when it is not enough.
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


# ---------------------------------------------------------------------------
# Arithmetic mod p for primes p = 3 mod 4.  Then x^2 + 1 has no root mod p
# and F_p[i] is a field: the residue of a Gaussian rational is the pair of
# the residues of its parts, and complex conjugation commutes with
# reduction.  P = 2^61 - 1 is the first prime of ``primes()``.

P = (1 << 61) - 1
# Deterministic Miller-Rabin: these bases decide primality for every n < 3.3 * 10^24.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIMES = [P]


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases: exact below 3.3 * 10^24."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes():
    """P, then the primes p = 3 mod 4 below it in descending order.

    Each prime is found on first use and cached, so the sequence is the
    same in every run and costs nothing until a caller walks past P.
    """
    k = 0
    while True:
        if k == len(_PRIMES):
            n = _PRIMES[-1] - 4
            while not is_prime(n):
                n -= 4
            _PRIMES.append(n)
        yield _PRIMES[k]
        k += 1


def residue(x: Fraction, p: int = P) -> int:
    """x mod p; raises ZeroDivisionError when p divides the denominator."""
    den = x.denominator % p
    if not den:
        raise ZeroDivisionError("p divides the denominator")
    return x.numerator * pow(den, -1, p) % p


def gauss_residue(z: GaussRat, p: int = P) -> tuple:
    """(Re z, Im z) mod p with one inverse of the denominator; raises
    ZeroDivisionError when p divides it."""
    den = z.d % p
    if not den:
        raise ZeroDivisionError("p divides the denominator")
    inv = pow(den, -1, p)
    return z.x * inv % p, z.y * inv % p


def echelon_mod_p(rows: Sequence[Sequence[int]]) -> tuple:
    """Row echelon form over F_P: (pivot rows led by 1, their pivot columns).

    Sparse, like ``complex_echelon_mod_p``: each pivot row is a dict from
    column to its nonzero entries, the columns are taken in order and the
    pivot row is the one with the fewest nonzeros.
    """
    rest = [row for row in ({c: x % P for c, x in enumerate(row) if x % P} for row in rows) if row]
    done, pivots = [], []
    for c in range(len(rows[0]) if rows else 0):
        hits = [k for k, row in enumerate(rest) if c in row]
        if not hits:
            continue
        piv = rest.pop(min(hits, key=lambda k: len(rest[k])))
        inv = pow(piv[c], -1, P)
        piv = {j: y * inv % P for j, y in piv.items()}
        entries = piv.items()
        below = []
        for row in rest:
            f = row.get(c)
            if f is not None:
                for j, y in entries:
                    z = (row.get(j, 0) - f * y) % P
                    if z:
                        row[j] = z
                    else:
                        del row[j]
                if not row:
                    continue
            below.append(row)
        rest = below
        done.append(piv)
        pivots.append(c)
    return done, pivots


def complex_echelon_mod_p(rows: Sequence[Sequence[tuple]], p: int) -> tuple:
    """Row echelon form over F_p[i] of rows of (re, im) residue pairs.

    Returns (echelon, pivots): ``echelon[k]`` is the pivot row of column
    ``pivots[k]``, led by (1, 0), as a dict from column to its nonzero
    entries.  The columns are taken in order, so the pivot columns are
    the first independent ones whichever row is chosen; the pivot row is
    the one with the fewest nonzeros, which keeps the sparse Jacobians
    sparse.  Every entry is reduced, so (0, 0) is the only zero.
    """
    rest = [row for row in ({c: z for c, z in enumerate(row) if z != (0, 0)} for row in rows)
            if row]
    done, pivots = [], []
    for c in range(len(rows[0]) if rows else 0):
        hits = [k for k, row in enumerate(rest) if c in row]
        if not hits:
            continue
        piv = rest.pop(min(hits, key=lambda k: len(rest[k])))
        ar, ai = piv[c]
        n = pow(ar * ar + ai * ai, -1, p)  # 1/(ar + i ai) = (ar - i ai)/(ar^2 + ai^2)
        ir, ii = ar * n % p, -ai * n % p
        piv = {j: ((yr * ir - yi * ii) % p, (yr * ii + yi * ir) % p) for j, (yr, yi) in piv.items()}
        entries = piv.items()
        below = []
        for row in rest:
            f = row.get(c)
            if f is not None:
                fr, fi = f
                for j, (yr, yi) in entries:
                    xr, xi = row.get(j, (0, 0))
                    zr, zi = (xr - fr * yr + fi * yi) % p, (xi - fr * yi - fi * yr) % p
                    if zr or zi:
                        row[j] = (zr, zi)
                    else:
                        del row[j]
                if not row:
                    continue
            below.append(row)
        rest = below
        done.append(piv)
        pivots.append(c)
    return done, pivots


def complex_kernel_vector_mod_p(echelon: list, pivots: list, free: int, width: int,
                                p: int) -> list:
    """The kernel vector over F_p[i] with 1 at non-pivot column ``free``, 0 at the other non-pivots."""
    v = [(0, 0)] * width
    v[free] = (1, 0)
    for row, pc in reversed(list(zip(echelon, pivots))):
        sr = si = 0
        for j, (ar, ai) in row.items():
            if j != pc:
                br, bi = v[j]
                sr += ar * br - ai * bi
                si += ar * bi + ai * br
        v[pc] = (-sr % p, -si % p)
    return v


def rational_reconstruction(u: int, m: int = P):
    """The fraction n/d with |n|, d <= sqrt(m/2) and n = u*d mod m, or None (Wang 1981).

    Such a fraction is unique when it exists; callers verify it exactly.
    """
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if not s1 or abs(s1) > bound:
        return None
    return Fraction(r1, s1)


def vector_reconstruction(residues: Sequence[int], m: int):
    """Fractions n_k/d with one common d, |n_k|, d <= sqrt(m/2) and n_k = u_k d mod m; or None.

    The entries are lifted in turn over the denominator found so far, and
    only an entry that is not then a small integer widens it.  Once d is
    known, a wrong residue passes only by landing within sqrt(m/2) of 0,
    so a false lift is rarer than with each entry on its own.  Such a
    vector is unique when it exists; callers verify it exactly.
    """
    bound, half = isqrt(m // 2), m // 2
    den, nums = 1, []
    for u in residues:
        y = u * den % m
        if y > half:
            y -= m
        if abs(y) > bound:
            q = rational_reconstruction(y, m)
            if q is None or den * q.denominator > bound:
                return None
            nums = [n * q.denominator for n in nums]
            den *= q.denominator
            y = q.numerator
        nums.append(y)
    if any(abs(n) > bound for n in nums):
        return None
    return [Fraction(n, den) for n in nums]


def require_hermitian(m: GMat, what: str = "matrix"):
    if not m.is_hermitian():
        raise SymmetryError(f"{what} is not Hermitian")
