"""Exact Jacobian ranks of the family maps.

Two maps are differentiated:

* the full-family map sending the 18 complex parameters (36 real slots)
  to the first two columns of both checkerboard blocks of N*rho
  (28 independent real coordinates); its rank is taken over the reals,
  one column per real slot;
* the fixed-point-subfamily map sending (t, x, y, ten complex) through
  the parameter completion to all 41 independent real Hermitian
  coordinates of N*rho.  Its rank is taken over the complex field with
  one column per parameter variable (13 columns: t, x, y and the
  holomorphic derivative of each complex parameter), which is the
  convention under which the reference value 12 at the distinguished
  point is stated.  The plain 23-real-slot rank is exposed separately
  as ``jacobian_rank_lambda_real_slots`` (it is 15 at that point).

The full-family map is quadratic, so its Jacobian is written down
directly: every entry is plus or minus the real or imaginary part of one
parameter, doubled on the diagonal coordinates.  Both ranks are first
certified mod P = 2^61 - 1, where a rank is a lower bound of the exact
one as long as P divides no denominator on the way.  For the full family
a rank of 28, the row count, settles it.  For the subfamily the Jacobian
comes from jets over F_P[i]; a rank of 13, the column count, settles it,
and a rank of 12 does once a kernel vector, lifted from its residues by
rational reconstruction, is checked exactly as a directional derivative
that vanishes on all 41 coordinates.  Every other outcome falls back to
the exact ``rank`` of the exact Jacobian.

The slot ordering is fixed so Jacobians are bit-reproducible: for the
full family, (re, im) pairs of the letters in alphabetical order; for
the subfamily, t, x, y and then (re, im) pairs of a, b, c, f, j, k, l,
m, p, s.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SingularParameterError
from .family import (
    CheckerParams,
    EVEN_POSITIONS,
    ODD_POSITIONS,
    PARAM_LETTERS,
    StateMatrix,
    build_state,
    outer_sum_entries,
    placed_vectors,
)
from .gaussian import GaussRat
from .jets import Jet, ModJet, jet_complex_var, jet_const, jet_rank, jet_real_var
from .matrices import (
    GMat,
    echelon_mod_p,
    gauss_residue,
    kernel_vector_mod_p,
    rank,
    rational_reconstruction,
)
from .subfamily import COMPLEX_LETTERS, SubfamilyParams, complete_parameters, derive_full_params

PSI_SLOTS = 36
PSI_COORDS = 28
LAMBDA_SLOTS = 23
LAMBDA_COORDS = 41
LAMBDA_COLUMNS = 13
LAMBDA_SLOT_ORDER = ("t", "x", "y") + tuple(COMPLEX_LETTERS)

# The two letters placed at each basis position (one per vector of its
# sublattice, in vector order) and the real slot of each letter.
_LETTERS_AT = {}
for _vec in placed_vectors({ch: ch for ch in PARAM_LETTERS}):
    for _pos, _ch in _vec:
        _LETTERS_AT.setdefault(_pos, []).append(_ch)
_SLOT = {ch: 2 * idx for idx, ch in enumerate(PARAM_LETTERS)}


def psi_map(p: CheckerParams) -> tuple:
    """First two columns of the 4x4 and 5x5 blocks of the unnormalized state.

    Works at every parameter point, including all-zero (where the blocks
    vanish), so it is built directly from the outer-product entries.
    """
    entries = outer_sum_entries(placed_vectors(p.as_dict()), GaussRat(0))
    m = GMat.from_rows(entries)
    tall_odd = m.submatrix(ODD_POSITIONS, ODD_POSITIONS[:2])
    tall_even = m.submatrix(EVEN_POSITIONS, EVEN_POSITIONS[:2])
    return tall_odd, tall_even


def psi_jacobian(parts: dict) -> list:
    """Rows of the 28x36 real Jacobian of the two-column map.

    ``parts`` maps each letter to the (re, im) parts of its value, in any
    ring.  Per block, the rows are Re of the two leading diagonal
    entries, then Re and Im of each entry below the diagonal in the first
    two columns, row by row.  An entry is u w* + u' w'* over the letters
    of the block's two vectors, and d Re(u w*) = Re w dRe u + Im w dIm u
    + Re u dRe w + Im u dIm w, d Im(u w*) = -Im w dRe u + Re w dIm u
    + Im u dRe w - Re u dIm w.
    """
    rows = []
    for positions in (ODD_POSITIONS, EVEN_POSITIONS):
        for d in positions[:2]:
            row = [0] * PSI_SLOTS
            for ch in _LETTERS_AT[d]:
                re, im = parts[ch]
                row[_SLOT[ch]], row[_SLOT[ch] + 1] = 2 * re, 2 * im
            rows.append(row)
        for ri, r in enumerate(positions):
            for c in positions[:min(ri, 2)]:
                re_row, im_row = [0] * PSI_SLOTS, [0] * PSI_SLOTS
                for u, w in zip(_LETTERS_AT[r], _LETTERS_AT[c]):
                    (u1, u2), (w1, w2), su, sw = parts[u], parts[w], _SLOT[u], _SLOT[w]
                    re_row[su], re_row[su + 1], re_row[sw], re_row[sw + 1] = w1, w2, u1, u2
                    im_row[su], im_row[su + 1], im_row[sw], im_row[sw + 1] = -w2, w1, u2, -u1
                rows += [re_row, im_row]
    return rows


def jacobian_rank_psi(p: CheckerParams) -> int:
    """Exact rank of the 28x36 real Jacobian of the two-column map at ``p``.

    Rank 28 mod P is the row count and settles it; otherwise, or when P
    divides a denominator, the exact rank is computed.
    """
    values = p.as_dict()
    try:
        rows = psi_jacobian({ch: gauss_residue(z) for ch, z in values.items()})
        if len(echelon_mod_p(rows)[1]) == PSI_COORDS:
            return PSI_COORDS
    except ZeroDivisionError:
        pass
    return rank(GMat.from_rows(psi_jacobian({ch: (z.re, z.im) for ch, z in values.items()})))


def lambda_map(sp: SubfamilyParams) -> StateMatrix:
    """The fixed-point state reached through the parameter completion."""
    return build_state(derive_full_params(sp))


def _lambda_coordinates(seeds: list, zero) -> list:
    """The 41 real coordinates of N*rho as jets, from jets of t, x, y and COMPLEX_LETTERS.

    They are Re of the diagonal, then Re and Im of each entry below it
    with an even index sum, row by row.
    """
    entries = outer_sum_entries(placed_vectors(complete_parameters(*seeds)), zero)
    coords = [entries[d][d].real_part() for d in range(9)]
    for r in range(9):
        for c in range(r):
            if (r + c) % 2 == 0:
                coords += [entries[r][c].real_part(), entries[r][c].imag_part()]
    assert len(coords) == LAMBDA_COORDS
    return coords


def _lambda_values(sp: SubfamilyParams) -> list:
    return [GaussRat(sp.t), GaussRat(sp.x), GaussRat(sp.y)] + [
        getattr(sp, ch) for ch in COMPLEX_LETTERS
    ]


def _lambda_coordinate_jets(sp: SubfamilyParams) -> list:
    """The coordinates with exact gradients over the 23 real slots."""
    return _lambda_coordinates([
        jet_real_var(z, idx, LAMBDA_SLOTS) if idx < 3
        else jet_complex_var(z, 2 * idx - 3, 2 * idx - 2, LAMBDA_SLOTS)
        for idx, z in enumerate(_lambda_values(sp))
    ], jet_const(0, LAMBDA_SLOTS))


def _lambda_kernel_vanishes(sp: SubfamilyParams, v: list) -> bool:
    """True iff J v = 0 exactly, J the 41x13 Jacobian with columns d/dt, d/dx, d/dy, d/dx_k - i d/dy_k.

    ``v`` holds the pairs (a, b) of v_k = a + ib.  For a real coordinate
    f, v_k (f_x - i f_y) has real part a f_x + b f_y and imaginary part
    b f_x - a f_y.  So J v = 0 says that f has zero derivative along two
    real directions, taken together as the two slots of one jet.
    """
    seeds = []
    for idx, z in enumerate(_lambda_values(sp)):
        a, b = v[idx]
        grad = (GaussRat(a), GaussRat(b)) if idx < 3 else (GaussRat(a, b), GaussRat(b, -a))
        seeds.append(Jet(z, grad))
    return not any(g for jet in _lambda_coordinates(seeds, jet_const(0, 2)) for g in jet.grad)


def _certified_rank_lambda(sp: SubfamilyParams):
    """The rank from F_P[i], when it is a proof; None otherwise.

    The complex 41x13 Jacobian A + iB has rank over F_P[i] half the rank
    over F_P of [[A, -B], [B, A]], acting on (Re v, Im v).
    """
    seeds = []
    for idx, z in enumerate(_lambda_values(sp)):
        unit = [(0, 0)] * LAMBDA_SLOTS
        if idx < 3:
            unit[idx] = (1, 0)
        else:
            unit[2 * idx - 3], unit[2 * idx - 2] = (1, 0), (0, 1)
        seeds.append(ModJet(gauss_residue(z), unit))
    top, bottom = [], []
    for jet in _lambda_coordinates(seeds, ModJet((0, 0), [(0, 0)] * LAMBDA_SLOTS)):
        g = [re for re, _ in jet.grad]
        a = g[:3] + g[3::2]  # d/dt, d/dx, d/dy, d/dx_k
        b = [0, 0, 0] + [-y for y in g[4::2]]  # -d/dy_k
        top.append(a + [-y for y in b])
        bottom.append(b + a)
    echelon, pivots = echelon_mod_p(top + bottom)
    if len(pivots) == 2 * LAMBDA_COLUMNS:
        return LAMBDA_COLUMNS
    if len(pivots) != 2 * LAMBDA_COLUMNS - 2:
        return None
    free = min(set(range(2 * LAMBDA_COLUMNS)) - set(pivots))
    kernel = kernel_vector_mod_p(echelon, pivots, free, 2 * LAMBDA_COLUMNS)
    lifted = [rational_reconstruction(x) for x in kernel]
    if None in lifted:
        return None
    v = list(zip(lifted[:LAMBDA_COLUMNS], lifted[LAMBDA_COLUMNS:]))
    return LAMBDA_COLUMNS - 1 if _lambda_kernel_vanishes(sp, v) else None


def jacobian_rank_lambda(sp: SubfamilyParams) -> int:
    """Rank of the subfamily-map Jacobian with one column per parameter variable.

    The 41 real coordinates are differentiated holomorphically in each of
    the ten complex parameters (d/dz = (d/dx - i d/dy)/2) and ordinarily
    in t, x, y, giving a 41x13 matrix whose rank is taken over the
    complex field.  Because the coordinates are real-valued, the
    conjugate derivatives carry no extra information for this rank.  The
    rank is certified mod P when it can be (see the module docstring) and
    computed exactly otherwise.
    """
    try:
        certified = _certified_rank_lambda(sp)
    except (ZeroDivisionError, SingularParameterError):
        certified = None  # a nonzero value is 0 mod P; a singular point raises again below
    if certified is not None:
        return certified
    half = Fraction(1, 2)
    rows = []
    for jet in _lambda_coordinate_jets(sp):
        g = jet.grad
        row = [g[0], g[1], g[2]]
        for idx in range(len(COMPLEX_LETTERS)):
            gx = g[3 + 2 * idx].re
            gy = g[4 + 2 * idx].re
            row.append(GaussRat(gx * half, -gy * half))
        rows.append(row)
    return rank(GMat.from_rows(rows))


def jacobian_rank_lambda_real_slots(sp: SubfamilyParams) -> int:
    """Rank over the rationals of the full 41x23 real-slot Jacobian.

    Never smaller than ``jacobian_rank_lambda``; the two differ when the
    map is not holomorphic in the complex parameters, which is the
    generic situation here.
    """
    return jet_rank(_lambda_coordinate_jets(sp), LAMBDA_SLOTS)
