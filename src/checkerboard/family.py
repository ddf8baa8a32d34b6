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
pairs too, read off it through tables of block entries built once at
import: rho^Gamma permutes the entries of rho (``partial_transpose_blocks``),
and each reduction matrix adds one partial-trace entry to -rho where the
partial trace has one (``criteria.reduction_blocks``).  No 9x9 matrix is
built: every command, ``reproduce`` included, reads the blocks.

Classification computes on int pairs only.  ``CheckerParams.lifted``
gives each letter of a generating vector v_k as the (re, im) ints of D_k
times its value, for D_k the least common denominator of the parts of
that vector's letters.  The rank of a full-family state (``state_rank``)
and the factors of the Theorem 1 and 2 products (``theorem_factors``) are
read off those pairs: scaling a column leaves a rank alone, and each
factor is homogeneous in each vector separately, so it is the factor of
the parameters times a product of powers of the D_k.  A factor is taken
over that product, a ``GaussRat``, only where its value is printed
(``factor_over``).  The blocks (``build_state``) mix the vectors, so
they read one common lift over D = lcm(D_1, ..., D_4), derived from the
per-vector one (``common_lift``).  Each D_k divides D, so a factor's divisor is never
larger than the power of D it would have over the common lift.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import attrgetter

from .errors import DegenerateStateError
from .gaussian import GaussRat, ZERO, conj, gauss_over
from .matrices import GMat
from .records import record

PARAM_LETTERS = "abcdefghijklmnpqrs"  # the letter "o" is unused

_VECTOR_SLOTS = (
    (("a", 0, 0), ("b", 2, 0), ("c", 1, 1), ("d", 0, 2), ("e", 2, 2)),
    (("f", 1, 0), ("g", 0, 1), ("h", 2, 1), ("i", 1, 2)),
    (("j", 0, 0), ("k", 2, 0), ("l", 1, 1), ("m", 0, 2), ("n", 2, 2)),
    (("p", 1, 0), ("q", 0, 1), ("r", 2, 1), ("s", 1, 2)),
)

# The letters of v1, v2, v3 and v4, and for each a getter of their values.
VECTOR_LETTERS = tuple("".join(ch for ch, _, _ in slots) for slots in _VECTOR_SLOTS)
_VECTOR_VALUES = tuple(attrgetter(*letters) for letters in VECTOR_LETTERS)

ODD_POSITIONS = (1, 3, 5, 7)
EVEN_POSITIONS = (0, 2, 4, 6, 8)


@record
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
        """(parts, dens): dens = (D_1, D_2, D_3, D_4), D_k the least common
        denominator of the parts of the letters of v_k, and ``parts`` maps each
        letter of v_k to the (re, im) ints of D_k times its value.

        Computed once per instance; the state, its rank and the Theorem 1/2
        factors of a classification all come from it.
        """
        parts = {}
        dens = []
        for letters, values_of in zip(VECTOR_LETTERS, _VECTOR_VALUES):
            values = values_of(self)
            d = lcm(*[z.d for z in values])
            dens.append(d)
            for ch, z in zip(letters, values):
                q = d // z.d
                parts[ch] = (z.x * q, z.y * q)
        return parts, tuple(dens)


BLOCK_POSITIONS = (ODD_POSITIONS, EVEN_POSITIONS)
# The rows of V_odd (columns v2, v4) and V_even (v1, v3) in position order:
# (g, q), (f, p), (i, s), (h, r) and (a, j), (d, m), (c, l), (b, k), (e, n).
BLOCK_ROWS = tuple(
    tuple((u, v) for _, u, v in sorted((3 * i + j, u, v) for (u, i, j), (v, _, _) in zip(x, y)))
    for x, y in ((_VECTOR_SLOTS[1], _VECTOR_SLOTS[3]), (_VECTOR_SLOTS[0], _VECTOR_SLOTS[2]))
)
# (block, row, column) of each 9x9 position inside the blocks.
BLOCK_INDEX = {(r, c): (b, x, y) for b, pos in enumerate(BLOCK_POSITIONS)
                for x, r in enumerate(pos) for y, c in enumerate(pos)}
# For each entry of the blocks of rho^Gamma, the (block, row, column) of the
# entry of rho that it is: rho^Gamma[3i+j, 3i'+j'] = rho[3i+j', 3i'+j].  A
# position outside the blocks is a KeyError, so building the table at import
# proves that rho^Gamma keeps the checkerboard pattern.
_GAMMA_SOURCE = tuple(tuple(tuple(BLOCK_INDEX[r - r % 3 + c % 3, c - c % 3 + r % 3] for c in pos)
                            for r in pos) for pos in BLOCK_POSITIONS)


def partial_transpose_blocks(blocks) -> tuple:
    """The blocks of rho^Gamma, a permutation of the entries of the blocks of rho."""
    return tuple([tuple([tuple([blocks[b][x][y] for b, x, y in row]) for row in blk])
                  for blk in _GAMMA_SOURCE])


def _gram(rows) -> tuple:
    """V V* of the n x 2 matrix V with rows ((a, b), (c, d)) of (re, im) ints."""
    n = len(rows)
    out = [[None] * n for _ in range(n)]
    for r, ((a, b), (c, d)) in enumerate(rows):
        for k, ((e, f), (g, h)) in enumerate(rows[:r + 1]):
            re, im = a * e + b * f + c * g + d * h, b * e - a * f + d * g - c * h
            out[r][k], out[k][r] = (re, im), (re, -im)
    return tuple(map(tuple, out))


@record
class StateMatrix:
    """A state as its 4x4 and 5x5 blocks on ``BLOCK_POSITIONS``, N*rho = blocks/scale.

    The blocks are rows of (re, im) int pairs, and every other entry is
    zero.  ``build_state`` gives the blocks V V* of the lifted generator
    rows with scale D^2.  Every sign fact is read off the blocks.
    """

    blocks: tuple
    scale: int

    def __init__(self, blocks: tuple, scale: int):
        fields = self.__dict__
        fields["blocks"], fields["scale"] = blocks, scale

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


def gamma_fixed_state(s: StateMatrix) -> StateMatrix:
    """``s``, the state of a completed point, with its own blocks cached as rho^Gamma's.

    Every completed point is Gamma-fixed: the eight fixed-point defects of
    ``subfamily.complete_parameters`` cancel to zero as rational functions
    wherever the completion is defined
    (tests/test_subfamily.py::test_completion_satisfies_the_fixed_point_conditions_symbolic).
    So rho^Gamma = rho entry by entry, and the blocks of D^2 N rho^Gamma
    are those of D^2 N rho: ``gamma`` is not built by permuting them.
    """
    s.__dict__["gamma"] = s.blocks
    return s


# ---------------------------------------------------------------------------
# Generic construction helpers.  These operate on any scalar supporting the
# ring operations plus conj (GaussRat, a jet, a sympy expression or a
# floating complex), so the tests can push reference jets through the same
# formulas.


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


def require_trace(p: CheckerParams) -> tuple:
    """``p.lifted``; DegenerateStateError if every parameter is zero, a state with no trace."""
    parts, dens = p.lifted
    if not any(map(any, parts.values())):
        raise DegenerateStateError("all parameters are zero; the state has no trace")
    return parts, dens


def common_lift(parts, dens) -> tuple:
    """(parts over D, D) from ``CheckerParams.lifted``, for D = lcm(D_1, ..., D_4).

    The letters of each v_k are taken times D/D_k, so every letter is D
    times its value, with D the least common denominator of the 36 parts.
    """
    d = lcm(*dens)
    common = dict(parts)
    for letters, dk in zip(VECTOR_LETTERS, dens):
        if dk != d:
            q = d // dk
            for ch in letters:
                x, y = parts[ch]
                common[ch] = (x * q, y * q)
    return common, d


def build_state(p: CheckerParams) -> StateMatrix:
    """The state sum |v><v| as the blocks V V* of the generator rows over D, scale D^2.

    rho^Gamma mixes the two blocks, so their entries share one scale: the
    rows are read off ``common_lift``, not off the per-vector lift.
    """
    parts, d = common_lift(*require_trace(p))
    return StateMatrix(tuple(_gram([(parts[u], parts[v]) for u, v in rows])
                             for rows in BLOCK_ROWS), d * d)


def _two_column_rank(rows) -> int:
    """Rank of an n x 2 matrix of (u, v) rows of (re, im) pairs: 2 iff some 2x2 minor is nonzero."""
    for k, ((a, b), (c, d)) in enumerate(rows):
        for (e, f), (g, h) in rows[k + 1:]:
            # u v' = v u' for u = a + ib, v = c + id, u' = e + if, v' = g + ih
            if a * g - b * h != c * e - d * f or a * h + b * g != c * f + d * e:
                return 2
    return 1 if any(any(u) or any(v) for u, v in rows) else 0


def state_rank(parts) -> int:
    """rank(N rho) = rank(V_odd) + rank(V_even), since rank(V V*) = rank(V).

    ``parts`` maps each letter to its (re, im) pair (``CheckerParams.lifted``).
    The columns of V_odd are v2 and v4, and those of V_even v1 and v3, so
    each column may be over its own D_k: scaling a column leaves the rank.
    """
    return sum(_two_column_rank([(parts[u], parts[v]) for u, v in rows]) for rows in BLOCK_ROWS)


# ---------------------------------------------------------------------------
# The genericity products of Theorems 1 and 2, on (re, im) pairs.  Only +, -
# and x are used, so a pair may hold ints or any other commutative ring's
# elements (the tests push sympy generators through).


def _mul(u, v) -> tuple:
    """u v for (re, im) pairs."""
    (a, b), (c, d) = u, v
    return a * c - b * d, a * d + b * c


def _minor(x, y, z, w) -> tuple:
    """x y - z w for (re, im) pairs."""
    (a, b), (c, d), (e, f), (g, h) = x, y, z, w
    return a * c - b * d - e * g + f * h, a * d + b * c - e * h - f * g


def _dot(us, vs) -> tuple:
    """sum_k us[k] vs[k] for two sequences of (re, im) pairs."""
    re = im = 0
    for (a, b), (c, d) in zip(us, vs):
        re += a * c - b * d
        im += a * d + b * c
    return re, im


def _form_at(c20, c11, c02, x, y) -> tuple:
    """F(x, -y) = c20 x^2 - c11 x y + c02 y^2 for (re, im) pairs."""
    xy_re, xy_im = _mul(x, y)
    return _dot((c20, c02, c11), (_mul(x, x), _mul(y, y), (-xy_re, -xy_im)))


# The degrees of each factor that ``theorem_factors`` returns in the letters of
# v1, v2, v3 and v4 (its docstring proves them), and their total degrees.
VECTOR_DEGREES = ((0, 1, 0, 1), (0, 1, 0, 1), (2, 0, 2, 0), (2, 2, 2, 2), (3, 1, 1, 0))
FACTOR_DEGREES = tuple(map(sum, VECTOR_DEGREES))


def theorem_factors(parts) -> tuple:
    """fs-ip, gr-hq, F(l,-c), F(mu,-lambda) and abf(ak-bj) as unreduced (re, im) pairs.

    The first four are the factors of Theorem 1's product t1 and the last
    is the one Theorem 2 adds, t2 = abf(ak-bj) t1.  The binary quadratic
    form is F(A1, A3) = (ae-bd) A1^2 + (an+ej-bm-dk) A1 A3 + (jn-km) A3^2,
    and lambda = a(hs-ir) + b(iq-gs) + d(fr-hp) + e(gp-fq),
    mu = f(mr-nq) + g(np-ks) + h(js-mp) + i(kq-jr).

    Each factor is homogeneous separately in the letters of each vector,
    of the degrees in ``VECTOR_DEGREES``.  Count a monomial's letters from
    v1, v2, v3 and v4: fs, ip, gr and hq are (0,1,0,1); the coefficients
    ae-bd, an+ej-bm-dk and jn-km of F are (2,0,0,0), (1,0,1,0) and
    (0,0,2,0), so with l from v3 and c from v1 each term of F(l,-c) is
    (2,0,2,0); every term of lambda is (1,1,0,1) and of mu (0,1,1,1), so
    each term of F(mu,-lambda) is (2,0,0,0) + (0,2,2,2), (1,0,1,0) +
    (0,1,1,1) + (1,1,0,1) or (0,0,2,0) + (2,2,0,2), all (2,2,2,2); and
    abf(ak-bj) is (3,1,1,0).  So on the parts of ``CheckerParams.lifted``,
    each letter of v_k being D_k times its value, a factor of degrees
    (e_1, e_2, e_3, e_4) is D_1^e_1 D_2^e_2 D_3^e_3 D_4^e_4 times the factor
    of the parameters, and a product vanishes exactly when one of its
    factors does.
    """
    a, b, c, d, e, f, g, h, i, j, k, l, m, n, p, q, r, s = (parts[ch] for ch in PARAM_LETTERS)
    c20, c02 = _minor(a, e, b, d), _minor(j, n, k, m)
    c11 = _dot((a, e, b, d), (n, j, (-m[0], -m[1]), (-k[0], -k[1])))
    lam = _dot((a, b, d, e), (_minor(h, s, i, r), _minor(i, q, g, s),
                              _minor(f, r, h, p), _minor(g, p, f, q)))
    mu = _dot((f, g, h, i), (_minor(m, r, n, q), _minor(n, p, k, s),
                             _minor(j, s, m, p), _minor(k, q, j, r)))
    return (_minor(f, s, i, p), _minor(g, r, h, q), _form_at(c20, c11, c02, l, c),
            _form_at(c20, c11, c02, mu, lam), _mul(_mul(_mul(a, b), f), _minor(a, k, b, j)))


def factor_over(factor, degrees, dens) -> GaussRat:
    """A factor of the parts of ``CheckerParams.lifted`` as the factor of the
    parameters: divided by D_1^e_1 D_2^e_2 D_3^e_3 D_4^e_4 for ``dens`` the D_k
    and ``degrees`` its e_k (``VECTOR_DEGREES``), in lowest terms."""
    x, y = factor
    return gauss_over(x, y, prod(d ** e for d, e in zip(dens, degrees)))


def theorem1_from_factors(factors, dens) -> GaussRat:
    """t1 from ``theorem_factors`` of the parts of ``CheckerParams.lifted``.

    Each factor is taken over its own product of the D_k and the four
    reduced values are multiplied, which gives t1 in lowest terms without
    reducing the full product.
    """
    first, second, third, fourth = (factor_over(z, e, dens)
                                    for z, e in zip(factors[:4], VECTOR_DEGREES))
    return first * second * third * fourth


def theorem1_product(p: CheckerParams) -> GaussRat:
    """The genericity product (fs-ip)(gr-hq) F(l,-c) F(mu,-lambda) of Theorem 1."""
    parts, dens = p.lifted
    return theorem1_from_factors(theorem_factors(parts), dens)


def prime_block_null_basis(p: CheckerParams) -> GMat:
    """Closed-form 4x2 matrix whose columns span the kernel of the odd block."""
    z = ZERO
    c1 = conj(p.f * p.s - p.i * p.p)
    c2 = conj(p.f * p.r - p.h * p.p)
    c3 = conj(p.i * p.q - p.s * p.g)
    c4 = conj(p.h * p.q - p.g * p.r)
    c5 = conj(p.g * p.p - p.f * p.q)
    return GMat.from_rows([[c1, c2], [c3, c4], [c5, z], [z, c5]])
