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
5x5 blocks used throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateStateError, PatternError
from .gaussian import GaussRat, ZERO, conj
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
SPLIT_PERMUTATION = ODD_POSITIONS + EVEN_POSITIONS


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


@dataclass(frozen=True)
class StateMatrix:
    """A state as N*rho (entrywise exact) together with N = trace(N*rho)."""

    unnormalized: GMat
    normalizer: Fraction

    def normalized(self) -> GMat:
        inv = GaussRat(Fraction(1, 1) / self.normalizer)
        return self.unnormalized.scale(inv)


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
    """Unnormalized state sum |v><v| with its normalizer N = sum <v|v>."""
    values = p.as_dict()
    if not any(values.values()):
        raise DegenerateStateError("all parameters are zero; the state has no trace")
    entries = outer_sum_entries(placed_vectors(values), ZERO)
    unnorm = GMat.from_rows(entries)
    normalizer = unnorm.trace().real_fraction()
    return StateMatrix(unnorm, normalizer)


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


def theorem1_product(p: CheckerParams) -> GaussRat:
    """The genericity product (fs-ip)(gr-hq) F(l,-c) F(mu,-lambda)."""
    form = quad_form_F(p)
    lam, mu = lambda_mu(p)
    return (
        (p.f * p.s - p.i * p.p)
        * (p.g * p.r - p.h * p.q)
        * form.evaluate(p.l, -p.c)
        * form.evaluate(mu, -lam)
    )


def theorem1_generic(p: CheckerParams) -> bool:
    """True iff the genericity product is nonzero; then the state is entangled.

    The condition is sufficient only: a False result leaves the state
    undecided, it never certifies separability.
    """
    return bool(theorem1_product(p))


def has_checkerboard_pattern(m: GMat) -> bool:
    return all(
        not m[r, c]
        for r in range(m.rows)
        for c in range(m.cols)
        if (r + c) % 2 == 1
    )


def checkerboard_split(s: StateMatrix) -> tuple:
    """The 4x4 odd-sublattice block and 5x5 even-sublattice block of N*rho.

    Simultaneously permuting rows and columns of the unnormalized matrix by
    ``SPLIT_PERMUTATION`` gives exactly block_odd (+) block_even.
    """
    m = s.unnormalized
    if not has_checkerboard_pattern(m):
        raise PatternError("matrix does not have the checkerboard zero pattern")
    block_odd = m.submatrix(ODD_POSITIONS, ODD_POSITIONS)
    block_even = m.submatrix(EVEN_POSITIONS, EVEN_POSITIONS)
    return block_odd, block_even


def prime_block_null_basis(p: CheckerParams) -> GMat:
    """Closed-form 4x2 matrix whose columns span the kernel of the odd block."""
    z = ZERO
    c1 = conj(p.f * p.s - p.i * p.p)
    c2 = conj(p.f * p.r - p.h * p.p)
    c3 = conj(p.i * p.q - p.s * p.g)
    c4 = conj(p.h * p.q - p.g * p.r)
    c5 = conj(p.g * p.p - p.f * p.q)
    return GMat.from_rows([[c1, c2], [c3, c4], [c5, z], [z, c5]])
