"""The jet-based Jacobian builders the package used before the chain rule.

They push forward-mode jets through the whole state construction, the
completion and the outer sum, and are kept here, unchanged, as the
reference for ``checkerboard.counting``: the closed-form full-family rows
must equal ``psi_coordinate_jets`` row for row, the chain-rule subfamily
rows mod P must equal ``lambda_rows_mod_p``, and the certified ranks must
equal the exact ranks computed here.
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
from checkerboard.jets import ModJet, jet_complex_var, jet_const, jet_rank, jet_real_var
from checkerboard.matrices import P, GMat, gauss_residue, rank
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


def lambda_rows_mod_p(sp) -> list:
    """The 41x13 complex Jacobian mod P from ModJets through the completion and the outer sum.

    Rows of (re, im) pairs: d/dt, d/dx, d/dy and d/dx_k - i d/dy_k.
    """
    values = [GaussRat(sp.t), GaussRat(sp.x), GaussRat(sp.y)] + [
        getattr(sp, ch) for ch in COMPLEX_LETTERS
    ]
    seeds = []
    for idx, z in enumerate(values):
        unit = [(0, 0)] * LAMBDA_SLOTS
        if idx < 3:
            unit[idx] = (1, 0)
        else:
            unit[2 * idx - 3], unit[2 * idx - 2] = (1, 0), (0, 1)
        seeds.append(ModJet(gauss_residue(z), unit))
    zero = ModJet((0, 0), [(0, 0)] * LAMBDA_SLOTS)
    entries = outer_sum_entries(placed_vectors(complete_parameters(*seeds)), zero)
    coords = [entries[d][d].real_part() for d in range(9)]
    for r in range(9):
        for c in range(r):
            if (r + c) % 2 == 0:
                coords += [entries[r][c].real_part(), entries[r][c].imag_part()]
    rows = []
    for jet in coords:
        g = [re for re, _ in jet.grad]
        a = g[:3] + g[3::2]  # d/dt, d/dx, d/dy, d/dx_k
        b = [0, 0, 0] + [-y % P for y in g[4::2]]  # -d/dy_k
        rows.append(list(zip(a, b)))
    return rows
