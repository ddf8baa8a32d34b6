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
from .family import (
    VECTOR_DEGREES,
    CheckerParams,
    factor_over,
    theorem1_from_factors,
    theorem_factors,
)
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
    cf, cp, cs = conj(f), conj(p), conj(s)
    i = (t - s * cp) / cf
    den_fs = f * s - i * p
    if not den_fs:
        raise SingularParameterError("fs-ip")
    akbj = a * k - b * j
    if not akbj:
        raise SingularParameterError("ak-bj")
    ca, cb, cc, cl, ci = conj(a), conj(b), conj(c), conj(l), conj(i)
    n = (a * ca * y - b * cb * x - conj(m) * cb * akbj) / (a * conj(akbj))
    d = (x - m * conj(j)) / ca
    e = (y - n * conj(k)) / cb
    den = conj(den_fs)
    ac_jl = a * cc + j * cl
    dc_ml = d * cc + m * cl
    bc_kl = b * cc + k * cl
    ec_nl = e * cc + n * cl
    g = (cs * ac_jl - cp * dc_ml) / den
    q = (cf * dc_ml - ci * ac_jl) / den
    h = (cs * bc_kl - cp * ec_nl) / den
    r = (cf * ec_nl - ci * bc_kl) / den
    return dict(a=a, b=b, c=c, d=d, e=e, f=f, g=g, h=h, i=i, j=j, k=k, l=l,
                m=m, n=n, p=p, q=q, r=r, s=s)


def derive_full_params(sp: SubfamilyParams) -> CheckerParams:
    """The completed 18-parameter set whose state is fixed by partial transposition."""
    values = complete_parameters(
        GaussRat(sp.t), GaussRat(sp.x), GaussRat(sp.y),
        sp.a, sp.b, sp.c, sp.f, sp.j, sp.k, sp.l, sp.m, sp.p, sp.s,
    )
    return CheckerParams.from_dict(values)


def theorem2_from_factors(factors, dens, t1: GaussRat) -> GaussRat:
    """Theorem 2's product abf(ak-bj) t1 from ``family.theorem_factors`` of a
    completion's ``lifted`` pairs over ``dens`` and t1 = ``theorem1_from_factors(factors, dens)``.

    The factor abf(ak-bj) is taken over D_1^3 D_2 D_3 on its own, as t1's
    factors are over theirs.
    """
    return factor_over(factors[4], VECTOR_DEGREES[4], dens) * t1


def theorem2_product(sp: SubfamilyParams) -> GaussRat:
    """abf (fs-ip)(gr-hq)(ak-bj) F(l,-c) F(mu,-lambda) on the completed parameters."""
    parts, dens = derive_full_params(sp).lifted
    factors = theorem_factors(parts)
    return theorem2_from_factors(factors, dens, theorem1_from_factors(factors, dens))


def bruss_peres_embed(bp: BrussPeresParams, real_only: bool = False) -> SubfamilyParams:
    """Free parameters reproducing the classic embedded family.

    Sets k = y = 0, j = c*, l = -a*, m = x/c, p = t c f*/(x a),
    s = x a*/(f c*).  With ``real_only`` the inputs a, b, c, f are
    required to be real, recovering the five-real-parameter version;
    left complex they give the seven-parameter variant.  a, b, c, f and x
    must be nonzero, else SingularParameterError names the culprit: the
    embedding divides by a, c, f and x, and its ak - bj = -b c* is the
    denominator of the completion.
    """
    for name in ("a", "b", "c", "f"):
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
