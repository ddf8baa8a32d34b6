"""Entanglement and distillability criteria for the constructed states.

Every criterion is exact.  The criteria on a state read its block pair
D^2 N rho: rho^Gamma (``StateMatrix.gamma``) and both reduction matrices
are block pairs of the same scale, read off it through index maps fixed
at import, and their inertia is that of the normalized matrices.  The
range criterion has two certificates: the genericity product of Theorem 1
(``range_certificate``), and a test of the range itself
(``range_has_no_product_vector``) that decides, mod one prime, whether
the span of the four generating vectors holds a product vector.

``partial_transpose_matrix`` is the 9x9 definition of rho^Gamma.  No
command calls it, since every state is a block pair; the tests check the
block maps against it, and the benchmark's layer table still names it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations, combinations_with_replacement, islice, product
from typing import Sequence

from .charpoly import blocks_inertia, has_negative_eigenvalue
from .errors import DegenerateStateError, DimensionError
from .family import BLOCK_POSITIONS, CheckerParams, StateMatrix, block_map, map_blocks, placed_vectors
from .gaussian import GaussInt, GaussRat, lift_to_integers
from .matrices import PRIME_BUDGET, GMat, primes, rank, rank_mod_p, split_residue


class RangeCertificate(Enum):
    NO_PRODUCT_VECTOR = "no_product_vector"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
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
    multiple of rho^Gamma with the same sign counts.
    """
    inert = blocks_inertia(s.gamma)
    return inert.n_neg == 0, inert


# rho_A (x) 1 - rho has rho_A[i, i'] = sum_k rho[3i+k, 3i'+k] at (3i+j, 3i'+j), and
# 1 (x) rho_B - rho has rho_B[j, j'] = sum_k rho[3k+j, 3k+j'] at (3i+j, 3i+j').
_REDUCTION_MAPS = (
    block_map(lambda r, c: [(-1, (r, c))] + [(1, (r - r % 3 + k, c - c % 3 + k))
                                             for k in range(3) if r % 3 == c % 3]),
    block_map(lambda r, c: [(-1, (r, c))] + [(1, (3 * k + r % 3, 3 * k + c % 3))
                                             for k in range(3) if r // 3 == c // 3]),
)


def reduction_matrices(s: StateMatrix):
    """The block pairs of D^2 N (rho_A (x) 1 - rho) and D^2 N (1 (x) rho_B - rho), lazily."""
    return (map_blocks(s.blocks, index_map) for index_map in _REDUCTION_MAPS)


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
    1-distillability.  With w lifted to integers e*w and G the blocks of
    D^2 N rho^Gamma, the value is <ew|G|ew> / (e^2 trace(D^2 N rho)).
    """
    v, e = lift_to_integers(w.components)
    acc = GaussInt(0)
    for pos, blk in zip(BLOCK_POSITIONS, s.gamma):
        for r, row in zip(pos, blk):
            if v[r]:
                wr = v[r].conj()
                for c, z in zip(pos, row):
                    acc = acc + wr * GaussInt(*z) * v[c]
    return acc.over(e * e * s.trace)


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
    giving 180 rows over the 56 quintic monomials, and the rows are mapped
    by phi: i -> iota into F_p (``split_residue``) at the first (p, iota)
    of ``primes()``, within PRIME_BUDGET, where p divides no denominator.

    Rank 56 is a proof.  phi is a ring map, so a 56x56 minor of the rows
    that is nonzero mod p is nonzero, and the rows have rank 56 over the
    Gaussian rationals too.  So every quintic monomial lies in the ideal
    of the minors, lambda_k^5 among them, and the minors have no common
    zero but lambda = 0.  A product vector in the span would be such a zero:
    lambda != 0 because the vector is nonzero, and every minor vanishes
    because M(lambda) has rank 1.  Any other rank, or no usable prime, is
    undecided and gives False.  Over the Gaussian rationals the converse
    holds too: minors with no common nonzero zero generate an ideal that
    holds a regular sequence of four quadrics, whose quotient ring is 0
    from degree 5 on.  So only a prime that lowers the rank leaves such a
    range undecided.
    """
    values = p.as_dict()
    for prime, iota in islice(primes(), PRIME_BUDGET):
        if all(z.d % prime for z in values.values()):
            break
    else:
        return False
    forms = [[0] * 4 for _ in range(9)]  # forms[3i+j][k]: phi(v_k[3i+j])
    for k, vec in enumerate(placed_vectors(values)):
        for pos, z in vec:
            forms[pos][k] = split_residue(z, prime, iota)[0]
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
    return rank_mod_p(rows, prime) == len(_QUINTIC_COLUMN)
