"""Deterministic rational sampling of parameter sets.

Numerators and denominators are drawn uniformly from small integer ranges
(magnitude 4) to keep the exact arithmetic downstream fast; the
example states themselves use coefficients of this size.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import SingularParameterError
from .family import CheckerParams, PARAM_LETTERS
from .gaussian import GaussRat, gauss_over
from .subfamily import BrussPeresParams, SubfamilyParams, derive_full_params

DEFAULT_MAX_NUMERATOR = 4
DEFAULT_MAX_DENOMINATOR = 4
# Draws before a sampler of valid subfamily or embedded-family points gives up.
MAX_TRIES = 64


def rng_for(seed: int, index: int = 0) -> random.Random:
    """Independent generator for (seed, sample index), stable across runs."""
    return random.Random((seed * 1_000_003 + index) & 0xFFFFFFFFFFFF)


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
