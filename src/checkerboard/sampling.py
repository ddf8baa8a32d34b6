"""Deterministic rational sampling of parameter sets.

Numerators and denominators are drawn uniformly from small integer ranges
(magnitude 4) to keep the exact arithmetic downstream fast; the
example states themselves use coefficients of this size.

Seed contract: sample i of ``scan --seed s`` comes from ``rng_for(s, i)``,
as do the seeded loops of ``reproduce`` and ``scripts/``.  Every rational
is a numerator and then a denominator, each a rejection draw from
``getrandbits``: k = width.bit_length() bits, drawn again while the value
is at least the width (9 numerators, 4 denominators).  That is the draw
``randint(-4, 4)`` and ``randint(1, 4)`` make through CPython's
``_randbelow_with_getrandbits`` (3.10 and 3.11 alike), so the samplers
read the Mersenne Twister words in the same order as the ``randint``
samplers they replace.  A Gaussian rational draws its real part first.
The ``random`` module guarantees only ``random()``'s sequence across
versions, so tests/test_sampling.py pins this stream, draw for draw,
against those ``randint`` samplers (kept in tests/reference.py).

A draw is an index into two immutable tables, the 36 rationals and the
36 x 36 reduced Gaussian rationals; they are built on the first draw of
a process, never at import.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

from .errors import SingularParameterError
from .family import CheckerParams, PARAM_LETTERS
from .gaussian import GaussRat, gauss_over
from .subfamily import COMPLEX_LETTERS, BrussPeresParams, SubfamilyParams, derive_full_params

DEFAULT_MAX_NUMERATOR = 4
DEFAULT_MAX_DENOMINATOR = 4
# Draws before a sampler of valid subfamily or embedded-family points gives up.
MAX_TRIES = 64

_NUMERATORS = 2 * DEFAULT_MAX_NUMERATOR + 1
_NUM_BITS = _NUMERATORS.bit_length()
_DEN_BITS = DEFAULT_MAX_DENOMINATOR.bit_length()
# Rationals in draw-index order; a Gaussian rational's index is
# _RATIONALS * (index of its real part) + (index of its imaginary part).
_RATIONALS = _NUMERATORS * DEFAULT_MAX_DENOMINATOR


def rng_for(seed: int, index: int = 0) -> random.Random:
    """Independent generator for (seed, sample index), stable across runs."""
    return random.Random((seed * 1_000_003 + index) & 0xFFFFFFFFFFFF)


def _parts() -> list:
    """(numerator, denominator) of draw index 4 * (numerator + 4) + denominator - 1."""
    return [(n, d) for n in range(-DEFAULT_MAX_NUMERATOR, DEFAULT_MAX_NUMERATOR + 1)
            for d in range(1, DEFAULT_MAX_DENOMINATOR + 1)]


@cache
def _rational_table() -> tuple:
    return tuple(Fraction(n, d) for n, d in _parts())


@cache
def _gauss_table() -> tuple:
    """xn/xd + i yn/yd, reduced, for every pair of rationals in draw-index order."""
    parts = _parts()
    return tuple(gauss_over(xn * yd, yn * xd, xd * yd) for xn, xd in parts for yn, yd in parts)


def _draw(getrandbits) -> int:
    """Draw index of a numerator and then a denominator, as ``randint`` draws them."""
    n = getrandbits(_NUM_BITS)
    while n >= _NUMERATORS:
        n = getrandbits(_NUM_BITS)
    d = getrandbits(_DEN_BITS)
    while d >= DEFAULT_MAX_DENOMINATOR:
        d = getrandbits(_DEN_BITS)
    return n * DEFAULT_MAX_DENOMINATOR + d


def _gauss_index(getrandbits) -> int:
    """Draw index of a Gaussian rational: its real part, then its imaginary part."""
    return _draw(getrandbits) * _RATIONALS + _draw(getrandbits)


def random_rational(rng: random.Random) -> Fraction:
    return _rational_table()[_draw(rng.getrandbits)]


def random_gauss(rng: random.Random) -> GaussRat:
    """xn/xd + i yn/yd, drawn in the order of two ``random_rational`` calls."""
    return _gauss_table()[_gauss_index(rng.getrandbits)]


def random_nonzero_gauss(rng: random.Random) -> GaussRat:
    while True:
        z = random_gauss(rng)
        if z:
            return z


def random_checker_params(rng: random.Random) -> CheckerParams:
    getrandbits, table = rng.getrandbits, _gauss_table()
    while True:
        values = [table[_gauss_index(getrandbits)] for _ in PARAM_LETTERS]
        if any(values):
            return CheckerParams(*values)


def draw_subfamily_params(rng: random.Random) -> SubfamilyParams:
    """One unvalidated draw; the elimination denominators may vanish."""
    getrandbits, rationals, table = rng.getrandbits, _rational_table(), _gauss_table()
    return SubfamilyParams(*[rationals[_draw(getrandbits)] for _ in "txy"],
                           *[table[_gauss_index(getrandbits)] for _ in COMPLEX_LETTERS])


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
