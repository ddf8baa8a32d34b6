"""The jet-based Jacobian builders the package used before the closed form.

They push forward-mode jets through the state construction and are kept
here, unchanged, as the reference for ``checkerboard.counting``: the
closed-form full-family rows must equal ``psi_coordinate_jets`` row for
row, and the certified ranks must equal the exact ranks computed here.
"""

from fractions import Fraction

from checkerboard.counting import LAMBDA_COORDS, LAMBDA_SLOTS, PSI_COORDS, PSI_SLOTS
from checkerboard.family import (
    EVEN_POSITIONS,
    ODD_POSITIONS,
    PARAM_LETTERS,
    outer_sum_entries,
    placed_vectors,
)
from checkerboard.gaussian import GaussRat
from checkerboard.jets import jet_complex_var, jet_const, jet_rank, jet_real_var
from checkerboard.matrices import GMat, rank
from checkerboard.subfamily import COMPLEX_LETTERS, complete_parameters


def _tall_block_coords(entries, positions, width):
    """Independent real coordinates of the first ``width`` columns of a Hermitian block."""
    coords = []
    for d in range(width):
        coords.append(entries[positions[d]][positions[d]].real_part())
    for ri in range(len(positions)):
        for ci in range(min(ri, width)):
            ent = entries[positions[ri]][positions[ci]]
            coords.append(ent.real_part())
            coords.append(ent.imag_part())
    return coords


def psi_coordinate_jets(p) -> list:
    values = {}
    for idx, ch in enumerate(PARAM_LETTERS):
        values[ch] = jet_complex_var(getattr(p, ch), 2 * idx, 2 * idx + 1, PSI_SLOTS)
    entries = outer_sum_entries(placed_vectors(values), jet_const(0, PSI_SLOTS))
    coords = _tall_block_coords(entries, ODD_POSITIONS, 2)
    coords += _tall_block_coords(entries, EVEN_POSITIONS, 2)
    assert len(coords) == PSI_COORDS
    return coords


def lambda_coordinate_jets(sp) -> list:
    t = jet_real_var(GaussRat(sp.t), 0, LAMBDA_SLOTS)
    x = jet_real_var(GaussRat(sp.x), 1, LAMBDA_SLOTS)
    y = jet_real_var(GaussRat(sp.y), 2, LAMBDA_SLOTS)
    cvars = {}
    for idx, ch in enumerate(COMPLEX_LETTERS):
        cvars[ch] = jet_complex_var(
            getattr(sp, ch), 3 + 2 * idx, 4 + 2 * idx, LAMBDA_SLOTS
        )
    values = complete_parameters(
        t, x, y,
        cvars["a"], cvars["b"], cvars["c"], cvars["f"], cvars["j"],
        cvars["k"], cvars["l"], cvars["m"], cvars["p"], cvars["s"],
    )
    entries = outer_sum_entries(placed_vectors(values), jet_const(0, LAMBDA_SLOTS))
    coords = []
    for d in range(9):
        coords.append(entries[d][d].real_part())
    for r in range(9):
        for c in range(r):
            if (r + c) % 2 == 0:
                coords.append(entries[r][c].real_part())
                coords.append(entries[r][c].imag_part())
    assert len(coords) == LAMBDA_COORDS
    return coords


def psi_rank(p) -> int:
    """Exact rank of the 28x36 real Jacobian, from the jets."""
    return jet_rank(psi_coordinate_jets(p), PSI_SLOTS)


def lambda_rank(sp) -> int:
    """Exact rank of the 41x13 holomorphic-column Jacobian, from the jets."""
    half = Fraction(1, 2)
    rows = []
    for jet in lambda_coordinate_jets(sp):
        g = jet.grad
        row = [g[0], g[1], g[2]]
        for idx in range(len(COMPLEX_LETTERS)):
            gx = g[3 + 2 * idx].re
            gy = g[4 + 2 * idx].re
            row.append(GaussRat(gx * half, -gy * half))
        rows.append(row)
    return rank(GMat.from_rows(rows))
