"""Document writers and a matrix reader that only the tests use.

The package parses full-family, Bruss-Peres and witness documents and
writes matrices; these are the other directions, for round trips and
fixtures.  ``gmat_to_obj`` is the 9x9 dump the package wrote before
``matrix_to_obj`` read the block pair.
"""

from checkerboard.errors import ParseError
from checkerboard.family import PARAM_LETTERS
from checkerboard.io import (
    BRUSS_PERES_COMPLEX_KEYS,
    BRUSS_PERES_REAL_KEYS,
    format_fraction,
    gauss_to_obj,
    obj_to_gauss,
)
from checkerboard.matrices import GMat


def checker_params_to_doc(p) -> dict:
    return {
        "family": "full",
        "params": {ch: gauss_to_obj(getattr(p, ch)) for ch in PARAM_LETTERS},
    }


def bruss_peres_params_to_doc(bp) -> dict:
    params = {key: format_fraction(getattr(bp, key)) for key in BRUSS_PERES_REAL_KEYS}
    params.update({ch: gauss_to_obj(getattr(bp, ch)) for ch in BRUSS_PERES_COMPLEX_KEYS})
    return {"family": "bruss-peres", "params": params}


def witness_to_doc(w) -> dict:
    return {"components": [gauss_to_obj(z) for z in w.components]}


def parse_matrix_obj(obj) -> GMat:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ParseError("matrix must be a nested list of complex values")
    width = len(obj[0])
    if any(len(r) != width for r in obj):
        raise ParseError("matrix rows have unequal lengths")
    return GMat.from_rows([[obj_to_gauss(x) for x in row] for row in obj])


def gmat_to_obj(m: GMat) -> list:
    return [[gauss_to_obj(m[r, c]) for c in range(m.cols)] for r in range(m.rows)]
