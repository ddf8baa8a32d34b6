"""The Fraction-matrix classification the package used before the integer lift.

These functions build N*rho, rho^Gamma and the reduction matrices as
``GMat``s of Gaussian rationals, lift each 4x4/5x5 block to integers
inside ``char_poly``, and take the state rank by rational elimination.
They are kept here, unchanged apart from their imports, as the
differential oracle for ``checkerboard.report.classify`` and the
certificate formatted from it (tests/test_oracle.py).

``FractionGaussRat`` is the scalar the package used before ``GaussRat``
became one Gaussian-integer numerator over one denominator: a pair of
Fractions, unchanged apart from its name.  tests/test_gaussian.py checks
every operation of ``GaussRat`` against it.

``grid``, ``unnormalized``, ``state_from_grid``, ``checkerboard_split``
and ``has_checkerboard_pattern`` are the 9x9 views of a block-pair
``checkerboard.family.StateMatrix`` that the package held before every
command read the block pair, and ``fixed_point_defects`` the eight
conditions equivalent to rho^Gamma = rho; the tests state 9x9
definitions with them.

``QuadForm``, ``quad_form_F``, ``lambda_mu`` and ``theorem1_product`` are
the Theorem 1 formulas on ``GaussRat`` parameters as the package stated
them before it evaluated the factors on lifted (re, im) int pairs
(``checkerboard.family.theorem_factors``); ``theorem2_product`` adds
Theorem 2's factor abf(ak-bj).  They are generic over the scalar type.

``search_product_vector_numeric`` is the floating-point seesaw search for
product vectors in the range that the package ran before its exact range
test, unchanged; tests/test_criteria.py checks the exact verdicts against
it.

``random_rational`` through ``random_bruss_peres_params`` are the seven
samplers as the package wrote them before it drew by table: every part a
``random.Random.randint`` call and every Gaussian rational reduced by
``gauss_over``, unchanged apart from their imports.
tests/test_sampling.py checks draw for draw that ``checkerboard.sampling``
returns the same values and leaves the generator in the same state.
"""

from __future__ import annotations

import random

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from checkerboard import family
from checkerboard.charpoly import Inertia, inertia_from_char_poly
from checkerboard.criteria import WitnessVector, range_certificate, schmidt_rank
from checkerboard.errors import (
    CheckerboardError, DegenerateStateError, DimensionError, SingularParameterError,
)
from checkerboard.family import (
    BLOCK_POSITIONS,
    EVEN_POSITIONS,
    ODD_POSITIONS,
    PARAM_LETTERS,
    CheckerParams,
    ZERO,
    outer_sum_entries,
    placed_vectors,
)
from checkerboard.gaussian import GaussInt, GaussRat, conj, gauss_over
from checkerboard.io import format_fraction, gauss_to_obj
from checkerboard.matrices import GMat, ZMat, kron, rank, require_hermitian
from checkerboard.report import jacobian_report
from checkerboard.sampling import DEFAULT_MAX_DENOMINATOR, DEFAULT_MAX_NUMERATOR, MAX_TRIES
from checkerboard.subfamily import BrussPeresParams, SubfamilyParams, derive_full_params

from linalg_reference import identity, integer_lift, over, scale, sub, submatrix, trace


# ---------------------------------------------------------------------------
# gaussian.py


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class FractionGaussRat:
    """Exact complex scalar with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    # -- predicates -------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return not self.im

    # -- involution and magnitude ----------------------------------
    def conj(self) -> "FractionGaussRat":
        return FractionGaussRat(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def real_fraction(self) -> Fraction:
        """The value as a Fraction; raises if the imaginary part is nonzero."""
        if self.im:
            raise ValueError(f"value {self!r} is not real")
        return self.re

    # -- ring operations -------------------------------------------
    @staticmethod
    def _coerce(x):
        if isinstance(x, FractionGaussRat):
            return x
        if isinstance(x, (int, Fraction)):
            return FractionGaussRat(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionGaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionGaussRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionGaussRat(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionGaussRat(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = o.abs2()
        if not den:
            raise ZeroDivisionError("division by zero GaussRat")
        return FractionGaussRat(
            (self.re * o.re + self.im * o.im) / den,
            (self.im * o.re - self.re * o.im) / den,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return FractionGaussRat(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = FractionGaussRat(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison and hashing ------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- conversion -------------------------------------------------
    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        ims = "i" if self.im == 1 else ("-i" if self.im == -1 else f"{self.im}i")
        if not self.re:
            return ims
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{ims}"


# ---------------------------------------------------------------------------
# matrices.py


def _common_denominator(m: GMat) -> int:
    d = 1
    for x in m.data:
        d = lcm(d, x.re.denominator, x.im.denominator)
    return d


def _lift(m: GMat, d: int):
    grid = []
    for r in range(m.rows):
        grid.append([(int(x.re * d), int(x.im * d)) for x in m.row(r)])
    return grid


# ---------------------------------------------------------------------------
# charpoly.py


def _zi_matmul(a, b, n):
    out = []
    for r in range(n):
        ar = a[r]
        row = []
        for c in range(n):
            sre = 0
            sim = 0
            for k in range(n):
                x, y = ar[k]
                u, v = b[k][c]
                sre += x * u - y * v
                sim += x * v + y * u
            row.append((sre, sim))
        out.append(row)
    return out


def char_poly(m: GMat) -> tuple:
    """Coefficients of det(lambda*I - m) for Hermitian m, lowest degree first."""
    require_hermitian(m, "char_poly input")
    n = m.rows
    if n == 0:
        return (Fraction(1),)
    d = _common_denominator(m)
    a = _lift(m, d)
    # b starts as the identity; c_k collects the lifted coefficients.
    b = [[(1, 0) if r == c else (0, 0) for c in range(n)] for r in range(n)]
    cs = []
    for k in range(1, n + 1):
        ab = _zi_matmul(a, b, n)
        tr_re = sum(ab[i][i][0] for i in range(n))
        tr_im = sum(ab[i][i][1] for i in range(n))
        if tr_im:
            raise ArithmeticError("non-real trace in char_poly of Hermitian matrix")
        ck, rem = divmod(-tr_re, k)
        if rem:
            raise ArithmeticError("inexact division in Faddeev-LeVerrier recursion")
        cs.append(ck)
        if k < n:
            for i in range(n):
                b[i] = [(x + (ck if i == j else 0), y) for j, (x, y) in enumerate(ab[i])]
    # det(lambda I - m) = sum_j c_{n-j} / d^{n-j} * lambda^j with c_0 = 1.
    coeffs = [Fraction(cs[n - 1 - j], d ** (n - j)) for j in range(n)] + [Fraction(1)]
    return tuple(coeffs)


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


def inertia(m: GMat) -> Inertia:
    """Exact (negative, zero, positive) eigenvalue counts of a Hermitian matrix.

    The indices split into the connected components of the graph with an
    edge r-c wherever m[r, c] or m[c, r] is nonzero.  The spectrum of m is
    the union of the spectra of those diagonal blocks, so each block's
    counts come from its own, smaller characteristic polynomial.
    """
    if m.rows != m.cols:
        raise DimensionError("inertia of non-square matrix")
    require_hermitian(m, "inertia input")
    n = m.rows
    edges = ((r, c) for r in range(n) for c in range(n) if r != c and m.data[r * n + c])
    n_neg = n_zero = n_pos = 0
    for group in connected_components(n, edges):
        part = inertia_from_char_poly(char_poly(submatrix(m, group, group)), len(group))
        n_neg += part.n_neg
        n_zero += part.n_zero
        n_pos += part.n_pos
    return Inertia(n_neg, n_zero, n_pos)


# ---------------------------------------------------------------------------
# family.py


@dataclass(frozen=True)
class StateMatrix:
    """A state as N*rho (entrywise exact) together with N = trace(N*rho)."""

    unnormalized: GMat
    normalizer: Fraction

    def normalized(self) -> GMat:
        inv = GaussRat(Fraction(1, 1) / self.normalizer)
        return scale(self.unnormalized, inv)


SPLIT_PERMUTATION = ODD_POSITIONS + EVEN_POSITIONS


class PatternError(CheckerboardError):
    """A matrix expected to have the checkerboard zero pattern does not."""


def has_checkerboard_pattern(m) -> bool:
    return all(
        not m[r, c]
        for r in range(m.rows)
        for c in range(m.cols)
        if (r + c) % 2 == 1
    )


def grid(s) -> ZMat:
    """D^2 N rho of a ``checkerboard.family.StateMatrix`` as a 9x9 grid, zero off the blocks."""
    data = [GaussInt(0)] * 81
    for pos, blk in zip(BLOCK_POSITIONS, s.blocks):
        for r, row in zip(pos, blk):
            for c, z in zip(pos, row):
                data[9 * r + c] = GaussInt(*z)
    return ZMat(9, 9, data)


def unnormalized(s) -> GMat:
    """N*rho of a ``checkerboard.family.StateMatrix``, as a 9x9 GMat."""
    return over(grid(s), s.scale)


def normalized(s) -> GMat:
    """rho = grid / trace(grid) of a ``checkerboard.family.StateMatrix``, as a 9x9 GMat.

    The 9x9 path the ``build`` dump took before it read the block pair.
    """
    return over(grid(s), s.trace)


def state_from_grid(m: ZMat, den: int) -> "family.StateMatrix":
    """The block-pair state of a 9x9 integer grid D^2 N rho with the checkerboard pattern."""
    if not has_checkerboard_pattern(m):
        raise PatternError("matrix does not have the checkerboard zero pattern")
    return family.StateMatrix(tuple(tuple(tuple((m[r, c].re, m[r, c].im) for c in pos) for r in pos)
                                    for pos in BLOCK_POSITIONS), den)


def checkerboard_split(s) -> tuple:
    """The 4x4 odd-sublattice block and 5x5 even-sublattice block of N*rho.

    Simultaneously permuting rows and columns of the unnormalized matrix by
    ``SPLIT_PERMUTATION`` gives exactly block_odd (+) block_even.
    """
    return tuple(GMat(len(blk), len(blk), [GaussInt(*z).over(s.scale) for row in blk for z in row])
                 for blk in s.blocks)


def build_state(p: CheckerParams) -> StateMatrix:
    """Unnormalized state sum |v><v| with its normalizer N = sum <v|v>."""
    values = p.as_dict()
    if not any(values.values()):
        raise DegenerateStateError("all parameters are zero; the state has no trace")
    entries = outer_sum_entries(placed_vectors(values), ZERO)
    unnorm = GMat.from_rows(entries)
    normalizer = trace(unnorm).real_fraction()
    return StateMatrix(unnorm, normalizer)


@dataclass(frozen=True)
class QuadForm:
    """Binary quadratic form c20*A1^2 + c11*A1*A3 + c02*A3^2."""

    c20: GaussRat
    c11: GaussRat
    c02: GaussRat

    def evaluate(self, a1: GaussRat, a3: GaussRat) -> GaussRat:
        return self.c20 * a1 * a1 + self.c11 * a1 * a3 + self.c02 * a3 * a3


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


def theorem_factors(p: CheckerParams) -> tuple:
    """fs-ip, gr-hq, F(l,-c), F(mu,-lambda) and abf(ak-bj) on the parameters themselves."""
    form = quad_form_F(p)
    lam, mu = lambda_mu(p)
    return (p.f * p.s - p.i * p.p, p.g * p.r - p.h * p.q,
            form.evaluate(p.l, -p.c), form.evaluate(mu, -lam),
            p.a * p.b * p.f * (p.a * p.k - p.b * p.j))


def theorem1_product(p: CheckerParams) -> GaussRat:
    """The genericity product (fs-ip)(gr-hq) F(l,-c) F(mu,-lambda)."""
    first, second, third, fourth, _ = theorem_factors(p)
    return first * second * third * fourth


def theorem2_product(sp: SubfamilyParams) -> GaussRat:
    """abf(ak-bj) times Theorem 1's product, on the completed parameters."""
    full = derive_full_params(sp)
    return theorem_factors(full)[4] * theorem1_product(full)


# ---------------------------------------------------------------------------
# criteria.py


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


def is_ppt(s: StateMatrix) -> tuple:
    """(PPT flag, inertia of rho^Gamma); PPT iff no negative eigenvalues.

    The inertia is computed on the unnormalized matrix, which has the same
    sign counts and keeps the arithmetic in integers.
    """
    inert = inertia(partial_transpose_matrix(s.unnormalized))
    return inert.n_neg == 0, inert


def _partial_traces(m: GMat) -> tuple:
    """(tr_B m, tr_A m) of a 9x9 matrix in the fixed basis ordering."""
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
    eye = identity(3)
    ra, rb = _partial_traces(m)
    first = sub(kron(ra, eye), m)
    second = sub(kron(eye, rb), m)
    return inertia(first).n_neg > 0 or inertia(second).n_neg > 0


def witness_expectation(s: StateMatrix, w: WitnessVector) -> GaussRat:
    """Exact <w| rho^Gamma |w> with rho normalized and w used as given.

    A negative value together with Schmidt rank <= 2 certifies
    1-distillability.  rho^Gamma is read off rho in place: with r = 3i+j
    and c = 3i'+j', rho^Gamma[r, c] = rho[3i+j', 3i'+j].
    """
    m = s.unnormalized
    acc = GaussRat(0)
    for r in range(9):
        wr = w.components[r].conj()
        if not wr:
            continue
        for c in range(9):
            if w.components[c]:
                acc = acc + wr * m[r - r % 3 + c % 3, c - c % 3 + r % 3] * w.components[c]
    return acc / GaussRat(s.normalizer)


# The floating-point product-vector search the package used before
# ``criteria.range_has_no_product_vector``.


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


# ---------------------------------------------------------------------------
# subfamily.py


def fixed_point_defects(p: CheckerParams) -> tuple:
    """The eight defects that all vanish exactly when rho^Gamma = rho.

    Five are lhs - rhs of complex conditions and three are z - conj(z) of
    values that must be real.  Generic over the scalar type; each defect
    is homogeneous of degree two, so a positive scale of p keeps its zeros.
    """
    lhs_rhs = (
        (p.f * conj(p.g) + p.p * conj(p.q), p.c * conj(p.a) + p.l * conj(p.j)),
        (p.i * conj(p.g) + p.s * conj(p.q), p.c * conj(p.d) + p.l * conj(p.m)),
        (p.f * conj(p.h) + p.p * conj(p.r), p.c * conj(p.b) + p.l * conj(p.k)),
        (p.i * conj(p.h) + p.s * conj(p.r), p.c * conj(p.e) + p.l * conj(p.n)),
        (p.a * conj(p.e) + p.j * conj(p.n), p.d * conj(p.b) + p.m * conj(p.k)),
    )
    real_parts = (
        p.a * conj(p.d) + p.j * conj(p.m),
        p.b * conj(p.e) + p.k * conj(p.n),
        p.f * conj(p.i) + p.p * conj(p.s),
    )
    return tuple(lhs - rhs for lhs, rhs in lhs_rhs) + tuple(z - conj(z) for z in real_parts)


def fixed_point_conditions(p: CheckerParams) -> bool:
    """The eight exact conditions equivalent to rho^Gamma = rho."""
    return not any(fixed_point_defects(p))


# ---------------------------------------------------------------------------
# report.py


@dataclass(frozen=True)
class Classification:
    """The exact facts about one state; ``t2`` is None outside the ppt family."""

    kind: str
    params: object
    state: StateMatrix
    t1: GaussRat
    t2: Optional[GaussRat]
    ppt: bool
    inertia: Inertia
    gamma_fixed: bool
    reduction_violated: bool

    @property
    def pd_gamma(self) -> bool:
        return self.inertia == Inertia(0, 0, 9)


def classify(kind: str, params) -> Classification:
    """Every exact fact about the state of ``params``, each computed once.

    ``kind`` is "full" (CheckerParams) or "ppt" (SubfamilyParams, completed
    first).  ``t1``/``t2`` are the Theorem 1/2 products and ``inertia`` is
    that of rho^Gamma, built once, in ``is_ppt``.  ``gamma_fixed`` comes
    from the eight conditions that are equivalent to rho^Gamma = rho.
    """
    if kind == "ppt":
        full = derive_full_params(params)
    elif kind == "full":
        full = params
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")
    state = build_state(full)
    ppt, inert = is_ppt(state)
    t1 = theorem1_product(full)
    return Classification(
        kind=kind,
        params=params,
        state=state,
        t1=t1,
        t2=theorem_factors(full)[4] * t1 if kind == "ppt" else None,
        ppt=ppt,
        inertia=inert,
        gamma_fixed=fixed_point_conditions(full),
        reduction_violated=reduction_criterion(state),
    )


def format_certificate(rec: Classification, witness: Optional[WitnessVector] = None,
                       include_jacobian: bool = False) -> dict:
    """The certificate of a classified state; all exact values are fraction strings.

    Theorem 2's product is a multiple of Theorem 1's, so ``t1`` alone
    decides ``certified_entangled``.
    """
    state, inert = rec.state, rec.inertia
    cert = {
        "family": rec.kind,
        "normalizer": format_fraction(state.normalizer),
        "trace": "1",
        "rank": rank(state.unnormalized),
        "checkerboard": has_checkerboard_pattern(state.unnormalized),
        "theorem1": {"value": gauss_to_obj(rec.t1), "generic": bool(rec.t1)},
        "ppt": {
            "is_ppt": rec.ppt,
            "inertia": {"neg": inert.n_neg, "zero": inert.n_zero, "pos": inert.n_pos},
        },
        "gamma_fixed": rec.gamma_fixed,
        "reduction_violated": rec.reduction_violated,
        "range_certificate": range_certificate(rec.t1).value,
        "certified_entangled": bool(rec.t1),
        "distillable": rec.reduction_violated,
    }
    if rec.t2 is not None:
        cert["theorem2"] = {"value": gauss_to_obj(rec.t2), "generic": bool(rec.t2)}
    if witness is not None:
        value = witness_expectation(state, witness)
        srank = schmidt_rank(witness)
        one_distillable = (not value.im) and value.re < 0 and srank <= 2
        cert["witness"] = {
            "value": format_fraction(value.real_fraction()),
            "schmidt_rank": srank,
            "one_distillable": one_distillable,
        }
        cert["distillable"] = cert["distillable"] or one_distillable
    if include_jacobian:
        cert["jacobian"] = jacobian_report(rec.kind, rec.params)
    return cert


# ---------------------------------------------------------------------------
# sampling.py


def _fraction_parts(rng: random.Random) -> tuple:
    """A numerator and then a denominator."""
    return (rng.randint(-DEFAULT_MAX_NUMERATOR, DEFAULT_MAX_NUMERATOR),
            rng.randint(1, DEFAULT_MAX_DENOMINATOR))


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(*_fraction_parts(rng))


def random_gauss(rng: random.Random) -> GaussRat:
    """xn/xd + i yn/yd, drawn in the order of two ``random_rational`` calls."""
    (xn, xd), (yn, yd) = _fraction_parts(rng), _fraction_parts(rng)
    return gauss_over(xn * yd, yn * xd, xd * yd)


def random_nonzero_gauss(rng: random.Random) -> GaussRat:
    while True:
        z = random_gauss(rng)
        if z:
            return z


def random_checker_params(rng: random.Random) -> CheckerParams:
    while True:
        values = {ch: random_gauss(rng) for ch in PARAM_LETTERS}
        if any(values.values()):
            return CheckerParams.from_dict(values)


def draw_subfamily_params(rng: random.Random) -> SubfamilyParams:
    """One unvalidated draw; the elimination denominators may vanish."""
    return SubfamilyParams(
        t=random_rational(rng),
        x=random_rational(rng),
        y=random_rational(rng),
        a=random_gauss(rng),
        b=random_gauss(rng),
        c=random_gauss(rng),
        f=random_gauss(rng),
        j=random_gauss(rng),
        k=random_gauss(rng),
        l=random_gauss(rng),
        m=random_gauss(rng),
        p=random_gauss(rng),
        s=random_gauss(rng),
    )


def random_subfamily_params(rng: random.Random) -> tuple:
    """A valid subfamily point and its completion: (SubfamilyParams, CheckerParams).

    Valid means every elimination denominator is nonzero; the completion
    that proves it is returned rather than computed again by the caller.
    """
    for _ in range(MAX_TRIES):
        sp = draw_subfamily_params(rng)
        try:
            full = derive_full_params(sp)
        except SingularParameterError:
            continue
        return sp, full
    raise SingularParameterError("subfamily-sample-retries-exhausted")


def random_bruss_peres_params(rng: random.Random) -> BrussPeresParams:
    """A valid embedded-family point: a, b, c, f, x and x|a|^2 - t|f|^2 all nonzero."""
    for _ in range(MAX_TRIES):
        t = random_rational(rng)
        x = random_rational(rng)
        a = random_nonzero_gauss(rng)
        b = random_nonzero_gauss(rng)
        c = random_nonzero_gauss(rng)
        f = random_nonzero_gauss(rng)
        if not x:
            continue
        if x * a.abs2() - t * f.abs2() == 0:
            continue
        return BrussPeresParams(t=t, x=x, a=a, b=b, c=c, f=f)
    raise SingularParameterError("unable to sample a valid embedded-family point")
