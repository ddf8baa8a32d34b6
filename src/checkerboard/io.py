"""Lossless JSON interchange: fraction strings, parameter files, witnesses.

All exact values travel as decimal-free fraction strings ("p/q" or "p"),
complex values as {"re": ..., "im": ...} objects.  Parsing is strict:
unknown keys, floats, and zero denominators are rejected.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .criteria import WitnessVector
from .errors import ParseError
from .family import BLOCK_POSITIONS, CheckerParams, PARAM_LETTERS, StateMatrix
from .gaussian import GaussRat
from .subfamily import BrussPeresParams, COMPLEX_LETTERS, SubfamilyParams

# ASCII digits only, matched against the whole string: "3\n" and "٣/٤" are not fractions.
_FRACTION_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")

PPT_REAL_KEYS = ("t", "x", "y")
BRUSS_PERES_REAL_KEYS = ("t", "x")
BRUSS_PERES_COMPLEX_KEYS = ("a", "b", "c", "f")


def _int_to_str(n: int) -> str:
    """str(n); past the interpreter's int->str digit limit, split in decimal halves."""
    try:
        return str(n)
    except ValueError:
        half = n.bit_length() * 3 // 20  # about half the decimal digits
        high, low = divmod(abs(n), 10 ** half)
        return ("-" if n < 0 else "") + _int_to_str(high) + _int_to_str(low).zfill(half)


def _ratio_to_str(num: int, den: int) -> str:
    """The fraction string of num/den, given in lowest terms with den > 0."""
    if den == 1:
        return _int_to_str(num)
    return f"{_int_to_str(num)}/{_int_to_str(den)}"


def format_fraction(value: Fraction) -> str:
    return _ratio_to_str(value.numerator, value.denominator)


def parse_fraction(text) -> Fraction:
    if not isinstance(text, str) or not _FRACTION_RE.fullmatch(text):
        raise ParseError(f"bad fraction string {text!r}")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or "1")
    except ValueError as exc:  # int() refuses strings past the interpreter's digit limit
        raise ParseError(f"fraction string too long ({len(text)} characters)") from exc
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def gauss_to_obj(z: GaussRat) -> dict:
    return {"re": format_fraction(z.re), "im": format_fraction(z.im)}


def obj_to_gauss(obj) -> GaussRat:
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ParseError(f"complex value must be an object with keys re, im: {obj!r}")
    return GaussRat(parse_fraction(obj["re"]), parse_fraction(obj["im"]))


# ---------------------------------------------------------------------------
# Parameter documents.


def subfamily_params_to_doc(sp: SubfamilyParams) -> dict:
    params = {key: format_fraction(getattr(sp, key)) for key in PPT_REAL_KEYS}
    params.update({ch: gauss_to_obj(getattr(sp, ch)) for ch in COMPLEX_LETTERS})
    return {"family": "ppt", "params": params}


def _require_keys(mapping, expected, what):
    if not isinstance(mapping, dict):
        raise ParseError(f"{what} must be a JSON object")
    got = set(mapping)
    expected = set(expected)
    if got != expected:
        unknown = sorted(got - expected)
        missing = sorted(expected - got)
        parts = []
        if unknown:
            parts.append(f"unknown keys {unknown}")
        if missing:
            parts.append(f"missing keys {missing}")
        raise ParseError(f"{what}: " + "; ".join(parts))


def parse_param_doc(doc) -> tuple:
    """Parse a parameter document; returns ("full", CheckerParams) or ("ppt", SubfamilyParams)."""
    _require_keys(doc, ("family", "params"), "parameter document")
    family = doc["family"]
    params = doc["params"]
    if family == "full":
        _require_keys(params, PARAM_LETTERS, "full-family params")
        return "full", CheckerParams.from_dict(
            {ch: obj_to_gauss(params[ch]) for ch in PARAM_LETTERS}
        )
    if family == "ppt":
        _require_keys(params, PPT_REAL_KEYS + tuple(COMPLEX_LETTERS), "ppt-family params")
        kwargs = {key: parse_fraction(params[key]) for key in PPT_REAL_KEYS}
        kwargs.update({ch: obj_to_gauss(params[ch]) for ch in COMPLEX_LETTERS})
        return "ppt", SubfamilyParams(**kwargs)
    raise ParseError(f"unknown family {family!r} (expected 'full' or 'ppt')")


def parse_bruss_peres_doc(doc) -> BrussPeresParams:
    _require_keys(doc, ("family", "params"), "parameter document")
    if doc["family"] != "bruss-peres":
        raise ParseError(f"expected family 'bruss-peres', got {doc['family']!r}")
    params = doc["params"]
    _require_keys(params, BRUSS_PERES_REAL_KEYS + BRUSS_PERES_COMPLEX_KEYS,
                  "bruss-peres params")
    return BrussPeresParams(
        t=parse_fraction(params["t"]),
        x=parse_fraction(params["x"]),
        a=obj_to_gauss(params["a"]),
        b=obj_to_gauss(params["b"]),
        c=obj_to_gauss(params["c"]),
        f=obj_to_gauss(params["f"]),
    )


# ---------------------------------------------------------------------------
# Witness documents: either 9 components or a list of product pairs.


def parse_witness_doc(doc) -> WitnessVector:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ParseError("witness document must have exactly one of: components, pairs")
    if "components" in doc:
        comps = doc["components"]
        if not isinstance(comps, list) or len(comps) != 9:
            raise ParseError("witness components must be a list of 9 complex values")
        return WitnessVector.from_components([obj_to_gauss(c) for c in comps])
    if "pairs" in doc:
        pairs = doc["pairs"]
        if not isinstance(pairs, list) or not pairs:
            raise ParseError("witness pairs must be a nonempty list")
        parsed = []
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError("each witness pair must be [factor_a, factor_b]")
            u, v = pair
            if not (isinstance(u, list) and isinstance(v, list) and len(u) == len(v) == 3):
                raise ParseError("witness factors must be 3-vectors")
            parsed.append(([obj_to_gauss(z) for z in u], [obj_to_gauss(z) for z in v]))
        return WitnessVector.from_pairs(parsed)
    raise ParseError("witness document must have exactly one of: components, pairs")


# ---------------------------------------------------------------------------
# Matrix dumps: nested row-major lists of complex objects.


def _negated(text: str) -> str:
    """The fraction string of minus the value that ``text`` spells."""
    if text == "0":
        return text
    return text[1:] if text[0] == "-" else "-" + text


def matrix_to_obj(s: StateMatrix) -> list:
    """rho = blocks / trace as a 9x9 row-major nested list of complex objects.

    Each part x of the 41 block entries is x/T in lowest terms, T the
    trace of the blocks.  The blocks are Hermitian, so only the entries on
    and below each block's diagonal are formatted: g = gcd(T, every such
    part) is taken once, each part is written as (x/g)/T' with T' = T/g
    over gcd(x/g, T'), and the string of T' serves every part coprime to
    it.  An entry's mirror takes the same real part and the negated
    imaginary part, and a diagonal entry's imaginary part is "0".  The 40
    entries outside the blocks are zero.  Every part is a ``_ratio_to_str``
    string, made of the characters [-0-9/] only.
    """
    blocks = s.blocks
    t = s.trace
    g = gcd(t, *(part for blk in blocks for i, row in enumerate(blk)
                 for entry in row[:i + 1] for part in entry))
    t //= g
    over_t = "" if t == 1 else "/" + _int_to_str(t)

    def ratio(x: int) -> str:
        x //= g
        d = gcd(x, t)
        return _int_to_str(x) + over_t if d == 1 else _ratio_to_str(x // d, t // d)

    zero = {"re": "0", "im": "0"}
    rows = [[zero] * 9 for _ in range(9)]
    for pos, blk in zip(BLOCK_POSITIONS, blocks):
        for i, (r, row) in enumerate(zip(pos, blk)):
            out = rows[r]
            for c, (x, y) in zip(pos[:i], row):
                re, im = ratio(x), ratio(y)
                out[c] = {"re": re, "im": im}
                rows[c][r] = {"re": re, "im": _negated(im)}
            out[r] = {"re": ratio(row[i][0]), "im": "0"}
    return rows
