"""Dense matrices over the Gaussian rationals and integers, with exact linear algebra.

``GMat`` holds GaussRats and ``ZMat`` GaussInts.  Neither has any
algebra: the state and its derived matrices are block pairs of int pairs
(see ``family``), and a grid is built only to be ranked or to have its
characteristic polynomial taken.  The determinant of a Hermitian
``ZMat`` is the signed constant term of that polynomial (``charpoly``).
Rank is one forward Gaussian elimination over the Gaussian rationals
with exact pivots.  No command calls ``kron``; the tests use it as a
reference, and the benchmark's layer table still names it.

The modular helpers work over F_p for the primes p = 1 mod 4 from
2^30 - 35 down (``primes``), so every residue is one CPython digit.
``split_prime_rank`` is the one walk over them: it splits the values at
the first usable prime and returns the rank a caller's row builder
takes there, a proven lower bound (proof in its docstring).
``counting`` uses it to certify the subfamily's Jacobian rank and falls
back to ``rank`` otherwise, and ``criteria`` to certify that a range
holds no product vector.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import islice

from .errors import DimensionError, SymmetryError
from .gaussian import GaussRat, gauss_over


def _as_gauss(x) -> GaussRat:
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, int):
        return gauss_over(int(x), 0, 1)
    if isinstance(x, Fraction):
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

    def shape(self) -> tuple:
        return (self.rows, self.cols)

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


class GMat(_Grid):
    """Immutable dense matrix with GaussRat entries (ints and Fractions are coerced)."""

    __slots__ = ()

    @staticmethod
    def _entries(data) -> tuple:
        return tuple(_as_gauss(x) for x in data)


class ZMat(_Grid):
    """Immutable dense matrix with GaussInt entries: the integer grids of classification.

    Entries are taken as given, without coercion, because these grids are
    built on the hot path from GaussInts only.
    """

    __slots__ = ()

    _entries = staticmethod(tuple)


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


def rank(m: GMat) -> int:
    """Exact rank over the Gaussian rationals, by forward Gaussian elimination.

    The columns are taken in order and the first row with a nonzero entry
    is the pivot.  Only the columns right of the pivot are updated, and a
    zero pivot-row entry is skipped, so sparse rows stay cheap.
    """
    grid = [list(m.row(r)) for r in range(m.rows)]
    found = 0
    for c in range(m.cols):
        piv = next((r for r in range(found, m.rows) if grid[r][c]), None)
        if piv is None:
            continue
        grid[found], grid[piv] = grid[piv], grid[found]
        head = grid[found]
        tail = [(j, y) for j, y in enumerate(head[c + 1:], c + 1) if y]
        for r in range(found + 1, m.rows):
            row = grid[r]
            if row[c]:
                f = row[c] / head[c]
                for j, y in tail:
                    row[j] = row[j] - f * y
        found += 1
        if found == m.rows:
            break
    return found


# Deterministic Miller-Rabin: these bases decide primality for every n < 3.3 * 10^24.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (p, iota) for p = 2^30 - 35, the largest prime p = 1 mod 4 below 2^30, whose
# least non-residue is 2: iota = 2^((p - 1)/4).  Below 2^30 every residue is
# one digit of a CPython int.
_PRIMES = [(1073741789, 933053945)]
# The most primes ``split_prime_rank`` walks.  The first usable prime
# decides, so this bounds only the primes skipped because they divide a
# denominator, a nonzero part or a divisor.
PRIME_BUDGET = 64


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
    """(p, iota) for the primes p = 1 mod 4 from 2^30 - 35 down, with iota^2 = -1 mod p.

    iota = c^((p - 1)/4) for the least non-residue c, as c^((p - 1)/2) =
    -1 by Euler's criterion.  Each pair past the first, a constant, is
    found on first use and cached, so the sequence is the same in every
    run and costs nothing until a caller walks past the first prime.
    """
    k = 0
    while True:
        if k == len(_PRIMES):
            n = _PRIMES[-1][0] - 4
            while not is_prime(n):
                n -= 4
            c = 2
            while pow(c, (n - 1) // 2, n) != n - 1:
                c += 1
            _PRIMES.append((n, pow(c, (n - 1) // 4, n)))
        yield _PRIMES[k]
        k += 1


def split_residue(z: GaussRat, p: int, iota: int) -> tuple:
    """(phi(z), phi(z*)) for the ring map phi: i -> iota into F_p; raises
    ZeroDivisionError when p divides the denominator."""
    den = z.d % p
    if not den:
        raise ZeroDivisionError("p divides the denominator")
    inv = pow(den, -1, p)
    return (z.x + iota * z.y) * inv % p, (z.x - iota * z.y) * inv % p


def split_prime_rank(values: Sequence[GaussRat], rank_at: Callable):
    """``rank_at(residues, p)`` at the first usable split prime, a lower bound of a rank; or None.

    The pairs (p, iota) come from ``primes()``, at most PRIME_BUDGET of
    them, and ``residues`` are the values' ``split_residue``s at p.  A
    prime is skipped when it divides a denominator of the values, when
    phi sends a nonzero value or its conjugate to 0, or when ``rank_at``
    raises ZeroDivisionError; any other exception passes through.  The
    first prime that is not skipped decides: its rank is returned.

    For p = 1 mod 4 and iota^2 = -1 mod p, phi: i -> iota is a ring map
    onto F_p from the quotients u/v of Gaussian integers with phi(v) != 0,
    among them every Gaussian rational whose denominator p does not
    divide.  So when ``rank_at`` ranks phi(M) for a matrix M built from
    the values and their conjugates by sums, products and quotients by
    elements that phi does not send to 0, a minor of phi(M) that is
    nonzero mod p is phi of a minor of M, which is then nonzero too: the
    rank returned is at most the rank of M.  Each caller
    proves its own upper bound, and takes its own fallback when the rank
    does not reach it or no prime is usable.
    """
    for p, iota in islice(primes(), PRIME_BUDGET):
        if any(not z.d % p for z in values):
            continue
        residues = [split_residue(z, p, iota) for z in values]
        if any(z and not (u and w) for z, (u, w) in zip(values, residues)):
            continue
        try:
            return rank_at(residues, p)
        except ZeroDivisionError:
            continue
    return None


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p of integer rows, by sparse elimination.

    Each row is kept as a dict from column to its nonzero residues.  The
    columns are taken in order, the pivot row is the one with the fewest
    nonzeros, which keeps the sparse Jacobians sparse, and it is scaled to
    lead with 1.
    """
    rest = list(filter(None, [{c: r for c, x in enumerate(row) if (r := x % p)} for row in rows]))
    found = 0
    for c in range(len(rows[0]) if rows else 0):
        hits = [k for k, row in enumerate(rest) if c in row]
        if not hits:
            continue
        piv = rest.pop(min(hits, key=lambda k: len(rest[k])))
        inv = pow(piv[c], -1, p)
        entries = [(j, y * inv % p) for j, y in piv.items()]
        for row in rest:
            f = row.get(c)
            if f is not None:
                for j, y in entries:
                    z = (row.get(j, 0) - f * y) % p
                    if z:
                        row[j] = z
                    else:
                        del row[j]
        rest = [row for row in rest if row]
        found += 1
    return found


def require_hermitian(m: GMat, what: str = "matrix"):
    if not m.is_hermitian():
        raise SymmetryError(f"{what} is not Hermitian")
