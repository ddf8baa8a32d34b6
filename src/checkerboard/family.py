"""Construction of checkerboard two-qutrit states from 18 complex parameters.

Basis convention
----------------
The 9-dimensional product space is ordered with the first subsystem on the
outer index: basis position = 3*(first index) + (second index).  The four
generating vectors live on complementary sublattices of that ordering,

    v1: a -> |00>, b -> |20>, c -> |11>, d -> |02>, e -> |22>
    v2: f -> |10>, g -> |01>, h -> |21>, i -> |12>
    v3, v4: same layout with (j,k,l,m,n) and (p,q,r,s).

With this ordering the unnormalized state sum |v><v| vanishes at every
entry whose index sum is odd (the checkerboard pattern), and restricting
to the odd and even sublattices in their natural order yields the 4x4 and
5x5 blocks used throughout the package.  A ``StateMatrix`` is that block
pair and nothing else; rho^Gamma and the reduction matrices are block
pairs too, read off it through index maps (``block_map``) built once at
import.  No 9x9 matrix is built: every command, ``reproduce`` included,
reads the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DegenerateStateError
from .gaussian import GaussRat, ZERO, conj, lift_to_integers
from .matrices import GMat

PARAM_LETTERS = "abcdefghijklmnpqrs"  # the letter "o" is unused

_VECTOR_SLOTS = (
    (("a", 0, 0), ("b", 2, 0), ("c", 1, 1), ("d", 0, 2), ("e", 2, 2)),
    (("f", 1, 0), ("g", 0, 1), ("h", 2, 1), ("i", 1, 2)),
    (("j", 0, 0), ("k", 2, 0), ("l", 1, 1), ("m", 0, 2), ("n", 2, 2)),
    (("p", 1, 0), ("q", 0, 1), ("r", 2, 1), ("s", 1, 2)),
)

ODD_POSITIONS = (1, 3, 5, 7)
EVEN_POSITIONS = (0, 2, 4, 6, 8)


@dataclass(frozen=True)
class CheckerParams:
    """The 18 complex parameters of the family (letter "o" intentionally absent)."""

    a: GaussRat = ZERO
    b: GaussRat = ZERO
    c: GaussRat = ZERO
    d: GaussRat = ZERO
    e: GaussRat = ZERO
    f: GaussRat = ZERO
    g: GaussRat = ZERO
    h: GaussRat = ZERO
    i: GaussRat = ZERO
    j: GaussRat = ZERO
    k: GaussRat = ZERO
    l: GaussRat = ZERO
    m: GaussRat = ZERO
    n: GaussRat = ZERO
    p: GaussRat = ZERO
    q: GaussRat = ZERO
    r: GaussRat = ZERO
    s: GaussRat = ZERO

    def as_dict(self) -> dict:
        return {ch: getattr(self, ch) for ch in PARAM_LETTERS}

    @classmethod
    def from_dict(cls, values: dict) -> "CheckerParams":
        extra = set(values) - set(PARAM_LETTERS)
        if extra:
            raise KeyError(f"unknown parameter letters: {sorted(extra)}")
        return cls(**{ch: values.get(ch, ZERO) for ch in PARAM_LETTERS})

    @cached_property
    def lifted(self) -> tuple:
        """(w, D): D is the least common denominator of the 36 parts and w the
        parameters times D, a CheckerParams of GaussInts.

        Computed once per instance; the state, its rank and t1 of a
        classification all come from it.
        """
        ints, d = lift_to_integers([getattr(self, ch) for ch in PARAM_LETTERS])
        return CheckerParams(*ints), d


BLOCK_POSITIONS = (ODD_POSITIONS, EVEN_POSITIONS)
# The rows of V_odd (columns v2, v4) and V_even (v1, v3) in position order:
# (g, q), (f, p), (i, s), (h, r) and (a, j), (d, m), (c, l), (b, k), (e, n).
BLOCK_ROWS = tuple(
    tuple((u, v) for _, u, v in sorted((3 * i + j, u, v) for (u, i, j), (v, _, _) in zip(x, y)))
    for x, y in ((_VECTOR_SLOTS[1], _VECTOR_SLOTS[3]), (_VECTOR_SLOTS[0], _VECTOR_SLOTS[2]))
)
# (block, row, column) of each 9x9 position inside the blocks.
_BLOCK_INDEX = {(r, c): (b, x, y) for b, pos in enumerate(BLOCK_POSITIONS)
                for x, r in enumerate(pos) for y, c in enumerate(pos)}


def block_map(terms) -> tuple:
    """For each entry of a block pair, the signed block entries that it sums.

    ``terms(r, c)`` lists the (sign, 9x9 position) pairs of entry (r, c).  A
    position outside the blocks is a KeyError, so a map built at import
    proves that its matrix keeps the checkerboard pattern.
    """
    return tuple(tuple(tuple(tuple((sign, *_BLOCK_INDEX[q]) for sign, q in terms(r, c))
                             for c in pos) for r in pos) for pos in BLOCK_POSITIONS)


def map_blocks(blocks, index_map) -> tuple:
    """The block pair whose entries are the signed sums of ``blocks`` that ``index_map`` names."""
    out = []
    for map_blk in index_map:
        rows = []
        for map_row in map_blk:
            row = []
            for terms in map_row:
                re = im = 0
                for sign, b, x, y in terms:
                    zr, zi = blocks[b][x][y]
                    re += sign * zr
                    im += sign * zi
                row.append((re, im))
            rows.append(tuple(row))
        out.append(tuple(rows))
    return tuple(out)


# rho^Gamma[3i+j, 3i'+j'] = rho[3i+j', 3i'+j]
_PT_MAP = block_map(lambda r, c: [(1, (r - r % 3 + c % 3, c - c % 3 + r % 3))])


def partial_transpose_blocks(blocks) -> tuple:
    """The blocks of rho^Gamma, read off the blocks of rho."""
    return map_blocks(blocks, _PT_MAP)


def _gram(rows) -> tuple:
    """V V* of the n x 2 matrix V with rows ((a, b), (c, d)) of (re, im) ints."""
    n = len(rows)
    out = [[None] * n for _ in range(n)]
    for r, ((a, b), (c, d)) in enumerate(rows):
        for k, ((e, f), (g, h)) in enumerate(rows[:r + 1]):
            re, im = a * e + b * f + c * g + d * h, b * e - a * f + d * g - c * h
            out[r][k], out[k][r] = (re, im), (re, -im)
    return tuple(map(tuple, out))


@dataclass(frozen=True)
class StateMatrix:
    """A state as its 4x4 and 5x5 blocks on ``BLOCK_POSITIONS``, N*rho = blocks/scale.

    The blocks are rows of (re, im) int pairs, and every other entry is
    zero.  ``build_state`` gives the blocks V V* of the lifted generator
    rows with scale D^2.  Every sign fact is read off the blocks.
    """

    blocks: tuple
    scale: int

    @property
    def trace(self) -> int:
        """trace(D^2 N rho)."""
        return sum(row[k][0] for blk in self.blocks for k, row in enumerate(blk))

    @cached_property
    def gamma(self) -> tuple:
        """The blocks of D^2 N rho^Gamma, built once per state."""
        return partial_transpose_blocks(self.blocks)

    @property
    def normalizer(self) -> Fraction:
        """N = trace(N*rho)."""
        return Fraction(self.trace, self.scale)


@dataclass(frozen=True)
class QuadForm:
    """Binary quadratic form c20*A1^2 + c11*A1*A3 + c02*A3^2."""

    c20: GaussRat
    c11: GaussRat
    c02: GaussRat

    def evaluate(self, a1: GaussRat, a3: GaussRat) -> GaussRat:
        return self.c20 * a1 * a1 + self.c11 * a1 * a3 + self.c02 * a3 * a3


# ---------------------------------------------------------------------------
# Generic construction helpers.  These operate on any scalar supporting the
# ring operations plus conj (GaussRat, Jet, or floating complex), so the
# Jacobian machinery can push jets through the same formulas.


def placed_vectors(values: dict) -> list:
    """The four vectors as sparse (position, scalar) lists under the fixed ordering."""
    return [
        [(3 * i_a + j_b, values[ch]) for ch, i_a, j_b in slots]
        for slots in _VECTOR_SLOTS
    ]


def outer_sum_entries(placed: list, zero) -> list:
    """9x9 nested list of sum_v v[r] * conj(v[c]) over the sparse vectors.

    The sum is Hermitian, so only entries on and below the diagonal are
    summed; each entry above is the conjugate of its mirror.
    """
    entries = [[zero for _ in range(9)] for _ in range(9)]
    for vec in placed:
        for r, vr in vec:
            for c, vc in vec:
                if r >= c:
                    entries[r][c] = entries[r][c] + vr * conj(vc)
    for r in range(9):
        for c in range(r):
            entries[c][r] = conj(entries[r][c])
    return entries


def build_vectors(p: CheckerParams) -> tuple:
    """The four generating 9-vectors as dense tuples in the fixed basis order."""
    dense = []
    for vec in placed_vectors(p.as_dict()):
        v = [ZERO] * 9
        for pos, val in vec:
            v[pos] = val
        dense.append(tuple(v))
    return tuple(dense)


def build_state(p: CheckerParams) -> StateMatrix:
    """The state sum |v><v| as the blocks V V* of the lifted generator rows, scale D^2."""
    w, d = p.lifted
    values = w.as_dict()
    if not any(values.values()):
        raise DegenerateStateError("all parameters are zero; the state has no trace")
    parts = {ch: (z.re, z.im) for ch, z in values.items()}
    return StateMatrix(tuple(_gram([(parts[u], parts[v]) for u, v in rows])
                             for rows in BLOCK_ROWS), d * d)


def _two_column_rank(rows) -> int:
    """Rank of an n x 2 matrix given as (u, v) rows: 2 iff some 2x2 minor is nonzero."""
    for k, (u, v) in enumerate(rows):
        if any(u * v2 != v * u2 for u2, v2 in rows[k + 1:]):
            return 2
    return 1 if any(u or v for u, v in rows) else 0


def state_rank(p: CheckerParams) -> int:
    """rank(N rho) = rank(V_odd) + rank(V_even), since rank(V V*) = rank(V)."""
    values = p.as_dict()
    return sum(_two_column_rank([(values[u], values[v]) for u, v in rows]) for rows in BLOCK_ROWS)


def quad_form_F(p: CheckerParams) -> QuadForm:
    return QuadForm(
        c20=p.a * p.e - p.b * p.d,
        c11=p.a * p.n + p.e * p.j - p.b * p.m - p.d * p.k,
        c02=p.j * p.n - p.k * p.m,
    )


def lambda_mu(p: CheckerParams) -> tuple:
    lam = (
        p.a * (p.h * p.s - p.i * p.r)
        + p.b * (p.i * p.q - p.g * p.s)
        + p.d * (p.f * p.r - p.h * p.p)
        + p.e * (p.g * p.p - p.f * p.q)
    )
    mu = (
        p.f * (p.m * p.r - p.n * p.q)
        + p.g * (p.n * p.p - p.k * p.s)
        + p.h * (p.j * p.s - p.m * p.p)
        + p.i * (p.k * p.q - p.j * p.r)
    )
    return lam, mu


# Degrees of the four factors of the Theorem 1 product, each homogeneous.
THEOREM1_DEGREES = (2, 2, 4, 8)


def theorem1_product(p: CheckerParams, reduce=None) -> GaussRat:
    """The genericity product (fs-ip)(gr-hq) F(l,-c) F(mu,-lambda).

    Generic over the scalar type.  With ``reduce``, each factor z of
    degree k (``THEOREM1_DEGREES``) is replaced by reduce(z, k) before the
    product: ``report.classify`` evaluates the factors on the lifted
    Gaussian integers w = D params and takes each over D^k, so t1 comes
    out as a product of four reduced values instead of one reduction of
    t1(w)/D^16.
    """
    form = quad_form_F(p)
    lam, mu = lambda_mu(p)
    factors = (p.f * p.s - p.i * p.p, p.g * p.r - p.h * p.q,
               form.evaluate(p.l, -p.c), form.evaluate(mu, -lam))
    if reduce is not None:
        factors = map(reduce, factors, THEOREM1_DEGREES)
    first, second, third, fourth = factors
    return first * second * third * fourth


def prime_block_null_basis(p: CheckerParams) -> GMat:
    """Closed-form 4x2 matrix whose columns span the kernel of the odd block."""
    z = ZERO
    c1 = conj(p.f * p.s - p.i * p.p)
    c2 = conj(p.f * p.r - p.h * p.p)
    c3 = conj(p.i * p.q - p.s * p.g)
    c4 = conj(p.h * p.q - p.g * p.r)
    c5 = conj(p.g * p.p - p.f * p.q)
    return GMat.from_rows([[c1, c2], [c3, c4], [c5, z], [z, c5]])
