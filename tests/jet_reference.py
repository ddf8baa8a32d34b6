"""The jet-based Jacobian builders the package used before the chain rule.

They push forward-mode jets through the whole state construction, the
completion and the outer sum, and are kept here as the reference for
``checkerboard.counting``: the closed-form full-family rows must equal
``psi_coordinate_jets`` row for row, the subfamily rows mod the first
prime must equal ``lambda_rows_mod_p`` (split jets through the outer
sum), and the certified ranks must equal the exact ranks computed here.
``real_part`` and ``imag_part`` split a jet over the Gaussian rationals
into the real coordinates those builders take, and ``jet_const`` is the
constant jet they start the outer sum from.
"""

from fractions import Fraction

from checkerboard.counting import (
    LAMBDA_COLUMNS,
    LAMBDA_COORDS,
    LAMBDA_SLOTS,
    PSI_COORDS,
    PSI_SLOTS,
)
from checkerboard.family import (
    EVEN_POSITIONS,
    ODD_POSITIONS,
    PARAM_LETTERS,
    outer_sum_entries,
    placed_vectors,
)
from checkerboard.gaussian import GaussInt, GaussRat
from checkerboard.jets import Jet, SplitJet, jet_complex_var, jet_rank, jet_real_var
from checkerboard.matrices import GMat, primes, rank, split_residue
from checkerboard.subfamily import COMPLEX_LETTERS, complete_parameters


def jet_const(value, slots: int) -> Jet:
    return Jet(GaussRat(0) + value, (GaussRat(0),) * slots)


def real_part(jet: Jet) -> Jet:
    """The real part of a jet over the Gaussian rationals, value and gradient."""
    return Jet(GaussInt(jet.value.x).over(jet.value.d),
               tuple(GaussInt(g.x).over(g.d) for g in jet.grad))


def imag_part(jet: Jet) -> Jet:
    """The imaginary part of a jet over the Gaussian rationals, value and gradient."""
    return Jet(GaussInt(jet.value.y).over(jet.value.d),
               tuple(GaussInt(g.y).over(g.d) for g in jet.grad))


def _tall_block_coords(entries, positions, width):
    """Independent real coordinates of the first ``width`` columns of a Hermitian block."""
    coords = []
    for d in range(width):
        coords.append(real_part(entries[positions[d]][positions[d]]))
    for ri in range(len(positions)):
        for ci in range(min(ri, width)):
            ent = entries[positions[ri]][positions[ci]]
            coords.append(real_part(ent))
            coords.append(imag_part(ent))
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
        coords.append(real_part(entries[d][d]))
    for r in range(9):
        for c in range(r):
            if (r + c) % 2 == 0:
                coords.append(real_part(entries[r][c]))
                coords.append(imag_part(entries[r][c]))
    assert len(coords) == LAMBDA_COORDS
    return coords


def psi_rank(p) -> int:
    """Exact rank of the 28x36 real Jacobian, from the jets."""
    return jet_rank(psi_coordinate_jets(p), PSI_SLOTS)


def lambda_jacobian(sp) -> list:
    """Rows of the exact 41x13 Jacobian, from the jets: d/dt, d/dx, d/dy and d/dz_k = (d/dx_k - i d/dy_k)/2."""
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
    return rows


def lambda_rank(sp) -> int:
    """Exact rank of the 41x13 holomorphic-column Jacobian, from the jets."""
    return rank(GMat.from_rows(lambda_jacobian(sp)))


def lambda_rows_mod_p(sp) -> list:
    """The 41x13 Wirtinger Jacobian mod the first prime, from SplitJets through the whole outer sum.

    Rows dE for the diagonal entries E, then dE and dE* for each entry
    below it, over d/dt, d/dx, d/dy and d/dz_k.
    """
    p, iota = next(primes())
    values = [GaussRat(sp.t), GaussRat(sp.x), GaussRat(sp.y)] + [
        getattr(sp, ch) for ch in COMPLEX_LETTERS
    ]
    seeds = []
    for idx, z in enumerate(values):
        unit = [0] * LAMBDA_COLUMNS
        unit[idx] = 1
        conj_unit = unit if idx < 3 else [0] * LAMBDA_COLUMNS  # dz*/dz = 0
        seeds.append(SplitJet(*split_residue(z, p, iota), unit, conj_unit, p))
    zero = SplitJet(0, 0, [0] * LAMBDA_COLUMNS, [0] * LAMBDA_COLUMNS, p)
    entries = outer_sum_entries(placed_vectors(complete_parameters(*seeds)), zero)
    rows = [entries[d][d].grad for d in range(9)]
    for r in range(9):
        for c in range(r):
            if (r + c) % 2 == 0:
                rows += [entries[r][c].grad, entries[r][c].conj_grad]
    return rows
