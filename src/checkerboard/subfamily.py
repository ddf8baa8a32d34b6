"""The subfamily fixed by partial transposition.

Eight of the 18 parameters (g, q, h, r, d, e, i, n) are eliminated in
favour of three real parameters t, x, y and ten free complex ones, so
that the resulting state satisfies rho^Gamma = rho entry-exactly.  All
denominators appearing in the elimination formulas must be nonzero;
hitting a zero one raises SingularParameterError naming the culprit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CheckerboardError, SingularParameterError
from .family import CheckerParams, theorem1_product
from .gaussian import GaussRat, conj

COMPLEX_LETTERS = "abcfjklmps"


@dataclass(frozen=True)
class SubfamilyParams:
    """Free parameters of the fixed-point subfamily: reals t, x, y plus ten complex."""

    t: Fraction
    x: Fraction
    y: Fraction
    a: GaussRat
    b: GaussRat
    c: GaussRat
    f: GaussRat
    j: GaussRat
    k: GaussRat
    l: GaussRat
    m: GaussRat
    p: GaussRat
    s: GaussRat


@dataclass(frozen=True)
class BrussPeresParams:
    """Inputs of the embedded five/seven-parameter family: t, x real; a, b, c, f complex."""

    t: Fraction
    x: Fraction
    a: GaussRat
    b: GaussRat
    c: GaussRat
    f: GaussRat


def complete_parameters(t, x, y, a, b, c, f, j, k, l, m, p, s) -> dict:
    """Derive g, q, h, r, d, e, i, n from the free parameters.

    Generic over the scalar type (exact scalars, jets, or floating complex);
    t, x, y must be real-valued scalars.  Evaluation order matters only in
    that i is needed before the fs-ip test and n before e.
    """
    if not a:
        raise SingularParameterError("a")
    if not b:
        raise SingularParameterError("b")
    if not f:
        raise SingularParameterError("f")
    i = (t - s * conj(p)) / conj(f)
    den_fs = f * s - i * p
    if not den_fs:
        raise SingularParameterError("fs-ip")
    akbj = a * k - b * j
    if not akbj:
        raise SingularParameterError("ak-bj")
    n = (a * conj(a) * y - b * conj(b) * x - conj(m) * conj(b) * akbj) / (a * conj(akbj))
    d = (x - m * conj(j)) / conj(a)
    e = (y - n * conj(k)) / conj(b)
    den = conj(den_fs)
    ac_jl = a * conj(c) + j * conj(l)
    dc_ml = d * conj(c) + m * conj(l)
    bc_kl = b * conj(c) + k * conj(l)
    ec_nl = e * conj(c) + n * conj(l)
    g = (conj(s) * ac_jl - conj(p) * dc_ml) / den
    q = (conj(f) * dc_ml - conj(i) * ac_jl) / den
    h = (conj(s) * bc_kl - conj(p) * ec_nl) / den
    r = (conj(f) * ec_nl - conj(i) * bc_kl) / den
    return dict(a=a, b=b, c=c, d=d, e=e, f=f, g=g, h=h, i=i, j=j, k=k, l=l,
                m=m, n=n, p=p, q=q, r=r, s=s)


def derive_full_params(sp: SubfamilyParams) -> CheckerParams:
    """The completed 18-parameter set whose state is fixed by partial transposition."""
    values = complete_parameters(
        GaussRat(sp.t), GaussRat(sp.x), GaussRat(sp.y),
        sp.a, sp.b, sp.c, sp.f, sp.j, sp.k, sp.l, sp.m, sp.p, sp.s,
    )
    return CheckerParams.from_dict(values)


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


def theorem2_from_theorem1(full: CheckerParams, t1: GaussRat) -> GaussRat:
    """Theorem 2's product abf(ak-bj) t1 from the completion and t1 = theorem1_product(full).

    Generic over the scalar type: ``report.classify`` calls it on the
    lifted Gaussian integers.
    """
    return full.a * full.b * full.f * (full.a * full.k - full.b * full.j) * t1


def theorem2_product(sp: SubfamilyParams) -> GaussRat:
    """abf (fs-ip)(gr-hq)(ak-bj) F(l,-c) F(mu,-lambda) on the completed parameters."""
    full = derive_full_params(sp)
    return theorem2_from_theorem1(full, theorem1_product(full))


def theorem2_generic(sp: SubfamilyParams) -> bool:
    """True iff the product is nonzero; then the state is PPT entangled."""
    return bool(theorem2_product(sp))


def bruss_peres_embed(bp: BrussPeresParams, real_only: bool = False) -> SubfamilyParams:
    """Free parameters reproducing the classic embedded family.

    Sets k = y = 0, j = c*, l = -a*, m = x/c, p = t c f*/(x a),
    s = x a*/(f c*).  With ``real_only`` the inputs a, b, c, f are
    required to be real, recovering the five-real-parameter version;
    left complex they give the seven-parameter variant.
    """
    for name in ("a", "c", "f"):
        if not getattr(bp, name):
            raise SingularParameterError(name)
    if not bp.x:
        raise SingularParameterError("x")
    if real_only:
        for name in ("a", "b", "c", "f"):
            if getattr(bp, name).im:
                raise CheckerboardError(
                    f"parameter {name} must be real in the real-only embedding"
                )
    t, x = bp.t, bp.x
    a, b, c, f = bp.a, bp.b, bp.c, bp.f
    return SubfamilyParams(
        t=t,
        x=x,
        y=Fraction(0),
        a=a,
        b=b,
        c=c,
        f=f,
        j=c.conj(),
        k=GaussRat(0),
        l=-a.conj(),
        m=x / c,
        p=(t * c * f.conj()) / (x * a),
        s=(x * a.conj()) / (f * c.conj()),
    )
