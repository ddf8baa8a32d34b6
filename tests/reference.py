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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from checkerboard.charpoly import Inertia, inertia_from_char_poly
from checkerboard.criteria import WitnessVector, range_certificate, schmidt_rank
from checkerboard.errors import DegenerateStateError, DimensionError
from checkerboard.family import (
    CheckerParams,
    ZERO,
    has_checkerboard_pattern,
    outer_sum_entries,
    placed_vectors,
    theorem1_product,
)
from checkerboard.gaussian import GaussRat
from checkerboard.io import format_fraction, gauss_to_obj
from checkerboard.matrices import GMat, kron, rank, require_hermitian
from checkerboard.report import jacobian_report
from checkerboard.subfamily import derive_full_params, fixed_point_conditions, theorem2_from_theorem1


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
    if not m.is_square():
        raise DimensionError("inertia of non-square matrix")
    require_hermitian(m, "inertia input")
    n = m.rows
    edges = ((r, c) for r in range(n) for c in range(n) if r != c and m.data[r * n + c])
    n_neg = n_zero = n_pos = 0
    for group in connected_components(n, edges):
        part = inertia_from_char_poly(char_poly(m.submatrix(group, group)), len(group))
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
        return self.unnormalized.scale(inv)


def build_state(p: CheckerParams) -> StateMatrix:
    """Unnormalized state sum |v><v| with its normalizer N = sum <v|v>."""
    values = p.as_dict()
    if not any(values.values()):
        raise DegenerateStateError("all parameters are zero; the state has no trace")
    entries = outer_sum_entries(placed_vectors(values), ZERO)
    unnorm = GMat.from_rows(entries)
    normalizer = unnorm.trace().real_fraction()
    return StateMatrix(unnorm, normalizer)


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
    eye = GMat.identity(3)
    ra, rb = _partial_traces(m)
    first = kron(ra, eye) - m
    second = kron(eye, rb) - m
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
        t2=theorem2_from_theorem1(full, t1) if kind == "ppt" else None,
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
