"""Entanglement and distillability criteria for the constructed states.

Every criterion is exact.  The criteria on a state read its block pair
D^2 N rho: rho^Gamma (``StateMatrix.gamma``) and both reduction matrices
are block pairs of the same scale, read off it through tables fixed at
import, and their inertia is that of the normalized matrices.  The
range criterion has two certificates: the genericity product of Theorem 1
(``range_certificate``), and a test of the range itself
(``range_has_no_product_vector``) that decides, mod one prime, whether
the span of the four generating vectors holds a product vector.

``partial_transpose_matrix`` is the 9x9 definition of rho^Gamma.  No
command calls it, since every state is a block pair; the tests check the
block tables against it, and the benchmark's layer table still names it.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from itertools import combinations, combinations_with_replacement, product
from math import lcm

from .charpoly import blocks_inertia, has_negative_eigenvalue
from .errors import DegenerateStateError, DimensionError
from .family import BLOCK_INDEX, BLOCK_POSITIONS, CheckerParams, StateMatrix, placed_vectors
from .gaussian import GaussRat, gauss_over
from .matrices import GMat, rank, rank_mod_p, split_prime_rank
from .records import record


class RangeCertificate(Enum):
    NO_PRODUCT_VECTOR = "no_product_vector"
    UNDECIDED = "undecided"


@record
class WitnessVector:
    """A 9-component vector used unnormalized in expectation values."""

    components: tuple

    @classmethod
    def from_components(cls, comps: Sequence[GaussRat]) -> "WitnessVector":
        comps = tuple(comps)
        if len(comps) != 9:
            raise DimensionError("witness vector needs 9 components")
        return cls(comps)

    @classmethod
    def from_pairs(cls, pairs) -> "WitnessVector":
        """Sum of product terms: each pair (u, v) contributes u (x) v."""
        comps = [GaussRat(0)] * 9
        for u, v in pairs:
            if len(u) != 3 or len(v) != 3:
                raise DimensionError("witness factors must be 3-vectors")
            for i in range(3):
                for j in range(3):
                    comps[3 * i + j] = comps[3 * i + j] + u[i] * v[j]
        return cls(tuple(comps))


# Flat source index of each entry of rho^Gamma: G[3i+j, 3i'+j'] = m[3i+j', 3i'+j].
_PT_SOURCE = tuple(9 * (3 * i + j2) + 3 * i2 + j
                   for i in range(3) for j in range(3) for i2 in range(3) for j2 in range(3))


def partial_transpose_matrix(m):
    """Transpose of the second subsystem of a 9x9 GMat or ZMat."""
    if m.shape() != (9, 9):
        raise DimensionError("partial transpose expects a 9x9 matrix")
    return type(m)(9, 9, [m.data[k] for k in _PT_SOURCE])


def is_ppt(s: StateMatrix) -> tuple:
    """(PPT flag, inertia of rho^Gamma); PPT iff no negative eigenvalues.

    The inertia is that of the blocks of D^2 N rho^Gamma, a positive
    multiple of rho^Gamma with the same sign counts.  It is never
    (0, 0, 9): rho^Gamma is never positive definite, in either family.

    Proof.  Since rho^Gamma[3i+j, 3i'+j'] = rho[3i+j', 3i'+j], every
    product vector has <e (x) conj(f)|rho^Gamma|e (x) conj(f)> =
    <e (x) f|rho|e (x) f>.  Take 2-vectors e and f (not the letters) on
    the indices 0 and 2 of each qutrit, so that e (x) f lies on positions
    0, 2, 6 and 8, where v2 and v4 are zero.  With M1 = [[a, d], [b, e]]
    and M3 = [[j, m], [k, n]] the corners of v1 and v3 there (rows: first
    index; columns: second), <v1|e (x) f> = u . f and <v3|e (x) f> = w . f
    for u = e^T conj(M1) and w = e^T conj(M3).  The binary quadric
    q(e) = det[u; w] vanishes identically or has a nonzero root over C:
    take e != 0 with q(e) = 0.  If u != 0, f = (-u2, u0) gives u . f = 0
    and w . f = q(e) = 0; if u = 0, take f != 0 with w . f = 0.  So
    e (x) f != 0 and rho (e (x) f) = 0, and e (x) conj(f) is a nonzero
    isotropic vector of rho^Gamma.  ``tests/test_criteria.py`` proves both
    identities with sympy, through ``partial_transpose_blocks`` and
    ``placed_vectors``.
    """
    inert = blocks_inertia(s.gamma)
    return inert.n_neg == 0, inert


# rho_A (x) 1 - rho has rho_A[i, i'] = sum_k rho[3i+k, 3i'+k] at (3i+j, 3i'+j), and
# 1 (x) rho_B - rho has rho_B[j, j'] = sum_k rho[3k+j, 3k+j'] at (3i+j, 3i+j'): each
# keeps one index of a position r = 3i+j and traces the other.  A partial trace of a
# checkerboard state is zero off its five entries (u, w) with u + w even.  Each table
# holds the block entries that each of those five sums (a position outside the blocks
# is a KeyError at import, which proves the pattern), and for each block entry the
# index of the partial-trace entry added there, or None.
_TRACE_KEYS = tuple((u, w) for u in range(3) for w in range(3) if (u + w) % 2 == 0)


def _reduction_table(kept, traced) -> tuple:
    return (tuple(tuple(BLOCK_INDEX[r, c] for r in range(9) for c in range(9)
                        if (kept(r), kept(c)) == key and traced(r) == traced(c))
                  for key in _TRACE_KEYS),
            tuple(tuple(tuple(_TRACE_KEYS.index((kept(r), kept(c))) if traced(r) == traced(c)
                              else None for c in pos) for r in pos) for pos in BLOCK_POSITIONS))


_REDUCTION_TABLES = (_reduction_table(lambda r: r // 3, lambda r: r % 3),
                     _reduction_table(lambda r: r % 3, lambda r: r // 3))


def reduction_matrices(s: StateMatrix):
    """The block pairs of D^2 N (rho_A (x) 1 - rho) and D^2 N (1 (x) rho_B - rho), lazily.

    Each partial trace is summed once; each block entry is then -rho there,
    plus the partial-trace entry that the table adds there, if any.
    """
    blocks = s.blocks
    for sums, adds in _REDUCTION_TABLES:
        trace = []
        for terms in sums:
            re = im = 0
            for b, x, y in terms:
                zr, zi = blocks[b][x][y]
                re += zr
                im += zi
            trace.append((re, im))
        yield tuple([tuple([tuple([(-zr, -zi) if t is None else (trace[t][0] - zr, trace[t][1] - zi)
                                   for t, (zr, zi) in zip(add_row, row)])
                            for add_row, row in zip(add_blk, blk)])
                     for add_blk, blk in zip(adds, blocks)])


def reduction_criterion(s: StateMatrix) -> bool:
    """True iff rho_A (x) 1 - rho or 1 (x) rho_B - rho has a negative eigenvalue.

    Violation certifies that the state is entangled and distillable.  The
    second matrix is built only when the first has no negative eigenvalue,
    and each test stops at its first negative pivot.
    """
    return any(map(has_negative_eigenvalue, reduction_matrices(s)))


def schmidt_rank(w: WitnessVector) -> int:
    """Rank of the 3x3 coefficient matrix M[i][j] = component at 3i+j."""
    if not any(w.components):
        raise DegenerateStateError("zero witness vector has no Schmidt rank")
    m = GMat.from_rows(
        [[w.components[3 * i + j] for j in range(3)] for i in range(3)]
    )
    return rank(m)


def witness_expectation(s: StateMatrix, w: WitnessVector) -> GaussRat:
    """Exact <w| rho^Gamma |w> with rho normalized and w used as given.

    A negative value together with Schmidt rank <= 2 certifies
    1-distillability.  With w lifted to (re, im) int pairs e*w over the
    lcm e of its denominators and G the blocks of D^2 N rho^Gamma, the
    value is <ew|G|ew> / (e^2 trace(D^2 N rho)).
    """
    e = lcm(*(z.d for z in w.components))
    v = [(z.x * (e // z.d), z.y * (e // z.d)) for z in w.components]
    acc_re = acc_im = 0
    for pos, blk in zip(BLOCK_POSITIONS, s.gamma):
        for r, row in zip(pos, blk):
            a, b = v[r]
            if a or b:
                # (G ew)_r, then times the conjugate of (ew)_r
                g_re = g_im = 0
                for c, (x, y) in zip(pos, row):
                    u, t = v[c]
                    g_re += x * u - y * t
                    g_im += x * t + y * u
                acc_re += a * g_re + b * g_im
                acc_im += a * g_im - b * g_re
    return gauss_over(acc_re, acc_im, e * e * s.trace)


def range_certificate(t1: GaussRat) -> RangeCertificate:
    """Range-criterion outcome from the genericity product ``theorem1_product``.

    NO_PRODUCT_VECTOR when the product is nonzero (the span of the four
    generating vectors then contains no nonzero product vector); UNDECIDED
    otherwise.
    """
    return RangeCertificate.NO_PRODUCT_VECTOR if t1 else RangeCertificate.UNDECIDED


# Monomials in lambda_1..lambda_4 as sorted index tuples: the 20 cubics, and
# the column of each of the 56 quintics.
_CUBICS = tuple(combinations_with_replacement(range(4), 3))
_QUINTIC_COLUMN = {m: k for k, m in enumerate(combinations_with_replacement(range(4), 5))}


def range_has_no_product_vector(p: CheckerParams) -> bool:
    """True when the span of the four generating vectors holds no nonzero product vector.

    A vector sum_k lambda_k v_k is a product vector exactly when its 3x3
    reshaping M(lambda), M[i][j] = sum_k lambda_k v_k[3i+j], has rank 1,
    that is when it is nonzero and its nine 2x2 minors vanish.  The minors
    are quadrics in lambda.  Each is multiplied by the 20 cubic monomials,
    giving 180 rows over the 56 quintic monomials, which are ranked mod
    the first usable prime of ``split_prime_rank``.

    Rank 56 is a proof.  The rank mod p is a lower bound (proof in
    ``split_prime_rank``), so the rows have rank 56 over the Gaussian
    rationals too.  So every quintic monomial lies in the ideal of the
    minors, lambda_k^5 among them, and the minors have no common zero but
    lambda = 0.  A product vector in the span would be such a zero:
    lambda != 0 because the vector is nonzero, and every minor vanishes
    because M(lambda) has rank 1.  Any other rank, or no usable prime, is
    undecided and gives False.  Over the Gaussian rationals the converse
    holds too: minors with no common nonzero zero generate an ideal that
    holds a regular sequence of four quadrics, whose quotient ring is 0
    from degree 5 on.  So only a prime that lowers the rank leaves such a
    range undecided.
    """
    values = p.as_dict()

    def rank_at(residues, prime):
        phi = {ch: u for ch, (u, _) in zip(values, residues)}
        forms = [[0] * 4 for _ in range(9)]  # forms[3i+j][k]: phi(v_k[3i+j])
        for k, vec in enumerate(placed_vectors(phi)):
            for pos, u in vec:
                forms[pos][k] = u
        rows = []
        for (i1, i2), (j1, j2) in product(combinations(range(3), 2), repeat=2):
            a, b = forms[3 * i1 + j1], forms[3 * i2 + j2]
            c, d = forms[3 * i1 + j2], forms[3 * i2 + j1]
            quadric = {}  # (k, l) with k <= l: the coefficient of lambda_k lambda_l
            for k, l in product(range(4), repeat=2):
                key = (min(k, l), max(k, l))
                quadric[key] = quadric.get(key, 0) + a[k] * b[l] - c[k] * d[l]
            for cubic in _CUBICS:
                row = [0] * len(_QUINTIC_COLUMN)
                for pair, x in quadric.items():
                    row[_QUINTIC_COLUMN[tuple(sorted(pair + cubic))]] += x
                rows.append(row)
        return rank_mod_p(rows, prime)

    return split_prime_rank(list(values.values()), rank_at) == len(_QUINTIC_COLUMN)
