"""Entanglement and distillability criteria for the constructed states.

Everything except ``search_product_vector_numeric`` is exact.  The numeric
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
from .gaussian import GaussRat
from .matrices import GMat, kron, rank


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


def partial_transpose_matrix(m: GMat) -> GMat:
    """Transpose of the second subsystem: G[3i+j, 3i'+j'] = m[3i+j', 3i'+j]."""
    if m.shape() != (9, 9):
        raise DimensionError("partial transpose expects a 9x9 matrix")
    out = []
    for i in range(3):
        for j in range(3):
            for i2 in range(3):
                for j2 in range(3):
                    out.append(m[3 * i + j2, 3 * i2 + j])
    return GMat(9, 9, out)


def partial_transpose(s: StateMatrix) -> GMat:
    """rho^Gamma of the normalized state."""
    return partial_transpose_matrix(s.normalized())


def is_ppt(s: StateMatrix) -> tuple:
    """(PPT flag, inertia of rho^Gamma); PPT iff no negative eigenvalues.

    The inertia is computed on the unnormalized matrix, which has the same
    sign counts and keeps the arithmetic in integers.
    """
    inert = inertia(partial_transpose_matrix(s.unnormalized))
    return inert.n_neg == 0, inert


def reduced_states(s: StateMatrix) -> tuple:
    """Partial traces (rho_A, rho_B) of the normalized state."""
    m = s.normalized()
    rho_a = GMat.from_rows(
        [[sum((m[3 * i + j, 3 * i2 + j] for j in range(3)), GaussRat(0))
          for i2 in range(3)] for i in range(3)]
    )
    rho_b = GMat.from_rows(
        [[sum((m[3 * i + j, 3 * i + j2] for i in range(3)), GaussRat(0))
          for j2 in range(3)] for j in range(3)]
    )
    return rho_a, rho_b


def reduction_criterion(s: StateMatrix) -> bool:
    """True iff rho_A (x) 1 - rho or 1 (x) rho_B - rho has a negative eigenvalue.

    Violation certifies that the state is entangled and distillable.
    Computed on the N-scaled matrices to stay in integer arithmetic.
    """
    m = s.unnormalized
    eye = GMat.identity(3)
    ra = GMat.from_rows(
        [[sum((m[3 * i + j, 3 * i2 + j] for j in range(3)), GaussRat(0))
          for i2 in range(3)] for i in range(3)]
    )
    rb = GMat.from_rows(
        [[sum((m[3 * i + j, 3 * i + j2] for i in range(3)), GaussRat(0))
          for j2 in range(3)] for j in range(3)]
    )
    first = kron(ra, eye) - m
    second = kron(eye, rb) - m
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
    1-distillability.
    """
    g = partial_transpose_matrix(s.unnormalized)
    acc = GaussRat(0)
    for r in range(9):
        wr = w.components[r].conj()
        if not wr:
            continue
        for c in range(9):
            if w.components[c]:
                acc = acc + wr * g[r, c] * w.components[c]
    return acc / GaussRat(s.normalizer)


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
