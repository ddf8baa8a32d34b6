"""Entanglement and distillability criteria for the constructed states.

Everything except ``search_product_vector_numeric`` is exact.  The criteria
on a state read its Gaussian-integer grid D^2 N rho: rho^Gamma and both
reduction matrices are integer grids of the same scale, placed entry by
entry, and their inertia is that of the normalized matrices.  The numeric
search is a floating-point oracle used to cross-check the exact range
certificate; it never overrides it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .charpoly import inertia
from .errors import CheckerboardError, DegenerateStateError, DimensionError
from .family import CheckerParams, StateMatrix, placed_vectors, theorem1_product
from .gaussian import GaussInt, GaussRat, lift_to_integers
from .matrices import GMat, ZMat, rank


class RangeCertificate(Enum):
    NO_PRODUCT_VECTOR = "no_product_vector"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class ProductVector:
    """A product vector factor_a (x) factor_b in the fixed basis ordering.

    Produced by the numeric search, so the factors are floating complex;
    ``residual`` is the squared distance of the (unit) product vector from
    the range of the state.
    """

    factor_a: tuple
    factor_b: tuple
    residual: float


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


def partial_transpose(s: StateMatrix) -> GMat:
    """rho^Gamma of the normalized state."""
    return partial_transpose_matrix(s.normalized())


def is_ppt(s: StateMatrix) -> tuple:
    """(PPT flag, inertia of rho^Gamma); PPT iff no negative eigenvalues.

    The inertia is computed on the partial transpose of the integer grid,
    a positive multiple of rho^Gamma with the same sign counts.
    """
    inert = inertia(partial_transpose_matrix(s.grid))
    return inert.n_neg == 0, inert


def _partial_traces(m) -> tuple:
    """(tr_B m, tr_A m) of a 9x9 GMat or ZMat in the fixed basis ordering."""
    rho_a = type(m).from_rows(
        [[sum(m[3 * i + j, 3 * i2 + j] for j in range(3)) for i2 in range(3)] for i in range(3)]
    )
    rho_b = type(m).from_rows(
        [[sum(m[3 * i + j, 3 * i + j2] for i in range(3)) for j2 in range(3)] for j in range(3)]
    )
    return rho_a, rho_b


def reduced_states(s: StateMatrix) -> tuple:
    """Partial traces (rho_A, rho_B) of the normalized state."""
    return _partial_traces(s.normalized())


def reduction_criterion(s: StateMatrix) -> bool:
    """True iff rho_A (x) 1 - rho or 1 (x) rho_B - rho has a negative eigenvalue.

    Violation certifies that the state is entangled and distillable.
    Computed on the integer grid: rho_A (x) 1 has rho_A[i, i'] at
    (3i+j, 3i'+j) and 1 (x) rho_B has rho_B[j, j'] at (3i+j, 3i+j'), so
    both are placed into -grid directly.
    """
    m = s.grid.data
    ra, rb = _partial_traces(s.grid)
    zero = GaussInt(0)
    first = ZMat(9, 9, [(ra[r // 3, c // 3] if r % 3 == c % 3 else zero) - m[9 * r + c]
                        for r in range(9) for c in range(9)])
    second = ZMat(9, 9, [(rb[r % 3, c % 3] if r // 3 == c // 3 else zero) - m[9 * r + c]
                         for r in range(9) for c in range(9)])
    return inertia(first).n_neg > 0 or inertia(second).n_neg > 0


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
    1-distillability.  With w lifted to integers e*w and G the partial
    transpose of the grid, the value is <ew|G|ew> / (e^2 trace(grid)).
    G is read off the grid in place: with r = 3i+j and c = 3i'+j',
    G[r, c] = grid[3i+j', 3i'+j].
    """
    m = s.grid.data
    v, e = lift_to_integers(w.components)
    acc = GaussInt(0)
    for r in range(9):
        if not v[r]:
            continue
        wr = v[r].conj()
        for c in range(9):
            if v[c]:
                acc = acc + wr * m[_PT_SOURCE[9 * r + c]] * v[c]
    return acc.over(e * e * s.grid.trace().re)


def range_certificate(t1: GaussRat) -> RangeCertificate:
    """Range-criterion outcome from the genericity product ``theorem1_product``.

    NO_PRODUCT_VECTOR when the product is nonzero (the span of the four
    generating vectors then contains no nonzero product vector); UNDECIDED
    otherwise.
    """
    return RangeCertificate.NO_PRODUCT_VECTOR if t1 else RangeCertificate.UNDECIDED


def range_product_vector_certificate(p: CheckerParams) -> RangeCertificate:
    """Exact range-criterion outcome for the state built from ``p``."""
    return range_certificate(theorem1_product(p))


_SEESAW_ITERATIONS = 50


def search_product_vector_numeric(
    p: CheckerParams,
    attempts: int = 200,
    tolerance: float = 1e-8,
    seed: int = 0,
) -> Optional[ProductVector]:
    """Multi-start alternating minimization of the residual of product vectors.

    Minimizes || (1 - P) (alpha (x) delta) ||^2 over unit product vectors,
    where P projects onto the span of the four generating vectors.  For a
    fixed factor the residual is a 3x3 Hermitian quadratic form, so each
    half-step is an exact smallest-eigenvector update.  Deterministic for
    a given seed; attempts are merged by smallest residual with ties going
    to the lowest attempt index.
    """
    import numpy as np  # only this floating-point oracle needs numpy

    if attempts < 1:
        raise CheckerboardError("attempts must be >= 1")
    cols = np.zeros((9, 4), dtype=complex)
    for ci, vec in enumerate(placed_vectors(p.as_dict())):
        for pos, val in vec:
            cols[pos, ci] = complex(val)
    u, sing, _ = np.linalg.svd(cols, full_matrices=False)
    ncols = int((sing > 1e-12 * max(1.0, sing[0])).sum()) if sing.size else 0
    if ncols == 0:
        return None
    basis = u[:, :ncols]
    K = np.eye(9) - basis @ basis.conj().T
    Kr = K.reshape(3, 3, 3, 3)

    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal((attempts, 3)) + 1j * rng.standard_normal((attempts, 3))
    delta = rng.standard_normal((attempts, 3)) + 1j * rng.standard_normal((attempts, 3))
    alpha /= np.linalg.norm(alpha, axis=1, keepdims=True)
    delta /= np.linalg.norm(delta, axis=1, keepdims=True)

    for _ in range(_SEESAW_ITERATIONS):
        qa = np.einsum("aj,ijkl,al->aik", delta.conj(), Kr, delta)
        qa = (qa + qa.conj().transpose(0, 2, 1)) / 2
        _, vecs_a = np.linalg.eigh(qa)
        alpha = vecs_a[:, :, 0]
        qb = np.einsum("ai,ijkl,ak->ajl", alpha.conj(), Kr, alpha)
        qb = (qb + qb.conj().transpose(0, 2, 1)) / 2
        _, vecs_b = np.linalg.eigh(qb)
        delta = vecs_b[:, :, 0]

    prods = np.einsum("ai,aj->aij", alpha, delta).reshape(attempts, 9)
    residuals = np.real(np.einsum("ar,rc,ac->a", prods.conj(), K, prods))
    best = int(np.argmin(residuals))
    if residuals[best] < tolerance:
        return ProductVector(
            factor_a=tuple(alpha[best]),
            factor_b=tuple(delta[best]),
            residual=float(max(residuals[best], 0.0)),
        )
    return None
