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

The outer sum is quadratic, so its Jacobian over the letters' real slots
is written down directly (``outer_jacobian``): every entry is plus or
minus the real or imaginary part of one parameter, doubled on the
diagonal coordinates.  Its rows on the full family's 28 coordinates are
that map's Jacobian.  On all 41 coordinates they give the subfamily's by
the chain rule, times the Jacobian of the completion, which jets pushed
through ``complete_parameters`` alone supply; the ten free letters have
unit gradients, so only the eight completed ones need products.

A rank over F_p, or over F_p[i] for p = 3 mod 4, is a lower bound of the
exact one as long as p divides no denominator on the way.  The full
family's rank is certified mod P = 2^61 - 1, where a rank of 28, the row
count, settles it.  The subfamily's 41x13 complex Jacobian is eliminated
over F_p[i] for the primes of ``matrices.primes()``: a rank of 13, the
column count, settles it, and a rank of 12 does once a kernel vector is
checked exactly as a directional derivative that vanishes on all 41
coordinates.  That vector is lifted from its residues modulo several
primes by the Chinese remainder theorem and rational reconstruction
(von zur Gathen and Gerhard, Modern Computer Algebra, 5.10; Wang 1981),
so a point with 20-digit parameters, whose kernel entries have about 900
bits, is certified by about 30 primes.  Every other outcome falls back
to the exact ``rank`` of the exact Jacobian.

The slot ordering is fixed so Jacobians are bit-reproducible: for the
full family, (re, im) pairs of the letters in alphabetical order; for
the subfamily, t, x, y and then (re, im) pairs of a, b, c, f, j, k, l,
m, p, s.
"""

from __future__ import annotations

from itertools import islice

from .errors import SingularParameterError
from .family import CheckerParams, EVEN_POSITIONS, ODD_POSITIONS, PARAM_LETTERS, placed_vectors
from .gaussian import GaussRat, lift_to_integers
from .jets import Jet, ModJet, jet_complex_var, jet_real_var
from .matrices import (
    GMat,
    complex_echelon_mod_p,
    complex_kernel_vector_mod_p,
    echelon_mod_p,
    gauss_residue,
    primes,
    rank,
    vector_reconstruction,
)
from .subfamily import COMPLEX_LETTERS, SubfamilyParams, complete_parameters, derive_full_params

PSI_SLOTS = 36
PSI_COORDS = 28
LAMBDA_SLOTS = 23
LAMBDA_COORDS = 41
LAMBDA_COLUMNS = 13
LAMBDA_SLOT_ORDER = ("t", "x", "y") + tuple(COMPLEX_LETTERS)
# The most primes one lambda rank walks before the exact elimination: a
# modulus of about 3,900 bits, which lifts kernel entries of up to about
# 1,950 bits, twice what 20-digit parameters need.
PRIME_BUDGET = 64

# The two letters placed at each basis position (one per vector of its
# sublattice, in vector order) and the real slot of each letter.
_LETTERS_AT = {}
for _vec in placed_vectors({ch: ch for ch in PARAM_LETTERS}):
    for _pos, _ch in _vec:
        _LETTERS_AT.setdefault(_pos, []).append(_ch)
_SLOT = {ch: 2 * idx for idx, ch in enumerate(PARAM_LETTERS)}

# The entries (r, c), r >= c, of N*rho whose real coordinates each map
# takes: Re of a diagonal entry, Re and Im of an entry below it.  For the
# full family, per block, the two leading diagonal entries and then the
# entries below the diagonal in the first two columns, row by row; for the
# subfamily the whole diagonal and then every entry with an even index
# sum below it, row by row.
PSI_ENTRIES = tuple(
    entry for pos in (ODD_POSITIONS, EVEN_POSITIONS)
    for entry in [(d, d) for d in pos[:2]] + [(r, c) for ri, r in enumerate(pos)
                                              for c in pos[:min(ri, 2)]])
LAMBDA_ENTRIES = tuple((d, d) for d in range(9)) + tuple(
    (r, c) for r in range(9) for c in range(r) if (r + c) % 2 == 0)
# The column of each free letter of the subfamily map, and the letters the
# completion derives.
_COLUMN = {ch: 3 + idx for idx, ch in enumerate(COMPLEX_LETTERS)}
_COMPLETED = tuple(ch for ch in PARAM_LETTERS if ch not in _COLUMN)


def outer_jacobian(parts: dict, entries) -> list:
    """Sparse rows of the real Jacobian of the outer sum, over the letters' real slots.

    ``parts`` maps each letter to the (re, im) parts of its value, in any
    ring.  A diagonal entry gives one row, Re, and an entry below the
    diagonal two, Re and Im.  A row lists (letter, dRe, dIm): the
    derivatives of its coordinate in the real and imaginary part of that
    letter, the only nonzero ones.  A diagonal entry is the sum of |u|^2
    over its letters, so d|u|^2 = 2 Re u dRe u + 2 Im u dIm u; an entry
    below it is u w* + u' w'* over the letters of its vectors, and
    d Re(u w*) = Re w dRe u + Im w dIm u + Re u dRe w + Im u dIm w,
    d Im(u w*) = -Im w dRe u + Re w dIm u + Im u dRe w - Re u dIm w.
    """
    rows = []
    for r, c in entries:
        if r == c:
            rows.append([(ch, 2 * parts[ch][0], 2 * parts[ch][1]) for ch in _LETTERS_AT[r]])
            continue
        re_row, im_row = [], []
        for u, w in zip(_LETTERS_AT[r], _LETTERS_AT[c]):
            (u1, u2), (w1, w2) = parts[u], parts[w]
            re_row += [(u, w1, w2), (w, u1, u2)]
            im_row += [(u, -w2, w1), (w, u2, -u1)]
        rows += [re_row, im_row]
    return rows


def psi_jacobian(parts: dict) -> list:
    """Rows of the 28x36 real Jacobian of the two-column map: ``outer_jacobian`` on PSI_ENTRIES.

    ``parts`` maps each letter to the (re, im) parts of its value, in any
    ring; the letters' slots are (re, im) pairs in alphabetical order.
    """
    rows = []
    for sparse in outer_jacobian(parts, PSI_ENTRIES):
        row = [0] * PSI_SLOTS
        for ch, d_re, d_im in sparse:
            row[_SLOT[ch]], row[_SLOT[ch] + 1] = d_re, d_im
        rows.append(row)
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


def _lambda_values(sp: SubfamilyParams) -> list:
    return [GaussRat(sp.t), GaussRat(sp.x), GaussRat(sp.y)] + [
        getattr(sp, ch) for ch in COMPLEX_LETTERS
    ]


def _residues(values: list, p: int):
    """The values mod p, or None when p divides a denominator or a nonzero part."""
    if any(not z.d % p or (z.x and not z.x % p) or (z.y and not z.y % p) for z in values):
        return None
    return [gauss_residue(z, p) for z in values]


def _lambda_rows_mod(residues: list, p: int) -> list:
    """The 41x13 complex Jacobian mod p, as rows of (re, im) pairs, by the chain rule.

    ``ModJet``s over the 23 real slots go through ``complete_parameters``
    only.  A row is then the sum over the letters of its ``outer_jacobian``
    row: a free letter's gradient is a unit vector, so its (dRe, dIm) adds
    dRe - i dIm to its own column, and a completed letter's adds
    dRe d(Re L) + dIm d(Im L) along each slot.  The column of a complex
    parameter z = x + iy is d/dx - i d/dy.  Raises ZeroDivisionError or
    SingularParameterError when the completion divides by, or tests, a
    value that is 0 mod p.
    """
    seeds = []
    for idx, value in enumerate(residues):
        unit = [(0, 0)] * LAMBDA_SLOTS
        if idx < 3:
            unit[idx] = (1, 0)
        else:
            unit[2 * idx - 3], unit[2 * idx - 2] = (1, 0), (0, 1)
        seeds.append(ModJet(value, unit, p))
    letters = complete_parameters(*seeds)
    # For each completed letter L, four real 13-vectors A, B, C, D: column j
    # of a row gains dRe * A[j] + dIm * B[j] in its real part and
    # dRe * C[j] + dIm * D[j] in its imaginary part.  A and B are d(Re L)
    # and d(Im L) along t, x, y and each x_k; C and D are minus those along
    # each y_k, and 0 for t, x, y.
    columns = {}
    for ch in _COMPLETED:
        g_re = [a for a, _ in letters[ch].grad]
        g_im = [b for _, b in letters[ch].grad]
        columns[ch] = (g_re[:3] + g_re[3::2], g_im[:3] + g_im[3::2],
                       [0, 0, 0] + [-a for a in g_re[4::2]], [0, 0, 0] + [-b for b in g_im[4::2]])
    rows = []
    for sparse in outer_jacobian({ch: jet.value for ch, jet in letters.items()}, LAMBDA_ENTRIES):
        re, im = [0] * LAMBDA_COLUMNS, [0] * LAMBDA_COLUMNS
        for ch, d_re, d_im in sparse:
            k = _COLUMN.get(ch)
            if k is not None:
                re[k] += d_re
                im[k] -= d_im
            else:
                a, b, c, d = columns[ch]
                re = [x + d_re * y + d_im * z for x, y, z in zip(re, a, b)]
                im = [x + d_re * y + d_im * z for x, y, z in zip(im, c, d)]
        rows.append([(x % p, y % p) for x, y in zip(re, im)])
    return rows


def _directional_derivatives(letters: dict, slots: int) -> list:
    """Rows of the 41 coordinates' derivatives along ``slots`` directions, each scaled by one positive integer.

    ``letters`` maps each letter to an exact ``Jet`` of it.  Lifting the
    values and the gradients to Gaussian integers scales each by a
    positive common denominator, which changes no rank and no zero.
    """
    values, _ = lift_to_integers([letters[ch].value for ch in PARAM_LETTERS])
    grads, _ = lift_to_integers([g for ch in PARAM_LETTERS for g in letters[ch].grad])
    parts = {ch: (z.re, z.im) for ch, z in zip(PARAM_LETTERS, values)}
    grad = {ch: grads[k * slots:(k + 1) * slots] for k, ch in enumerate(PARAM_LETTERS)}
    rows = []
    for sparse in outer_jacobian(parts, LAMBDA_ENTRIES):
        row = [0] * slots
        for ch, d_re, d_im in sparse:
            row = [x + d_re * g.re + d_im * g.im for x, g in zip(row, grad[ch])]
        rows.append(row)
    return rows


def _lambda_kernel_vanishes(values: list, v: list) -> bool:
    """True iff J v = 0 exactly, J the 41x13 Jacobian with columns d/dt, d/dx, d/dy, d/dx_k - i d/dy_k.

    ``v`` holds the pairs (a, b) of v_k = a + ib.  For a real coordinate
    f, v_k (f_x - i f_y) has real part a f_x + b f_y and imaginary part
    b f_x - a f_y.  So J v = 0 says that f has zero derivative along two
    real directions, taken together as the two slots of one jet.
    """
    seeds = []
    for idx, (z, (a, b)) in enumerate(zip(values, v)):
        grad = (GaussRat(a), GaussRat(b)) if idx < 3 else (GaussRat(a, b), GaussRat(b, -a))
        seeds.append(Jet(z, grad))
    return not any(x for row in _directional_derivatives(complete_parameters(*seeds), 2)
                   for x in row)


def _certified_rank_lambda(sp: SubfamilyParams):
    """The rank from eliminations over F_p[i], when they prove it; None otherwise.

    The primes come from ``primes()``, at most PRIME_BUDGET of them.  A
    prime is skipped when it divides a denominator or a nonzero part of a
    parameter, or when the completion divides by a value that is 0 mod p;
    the first such prime also runs the exact completion, which raises
    SingularParameterError at a singular point.  A rank mod p is a lower
    bound, so 13 proves 13.  The primes whose (rank, free column) is the
    best seen so far are kept and the others dropped: a free column mod p
    is never later than the exact one.  At rank 12 their kernel vectors,
    normalized to 1 in the free column, are combined by the Chinese
    remainder theorem and lifted over one common denominator after every
    prime.  A lift not checked before is checked exactly; it is nonzero,
    so passing the check proves 12.  A lift that fails leaves the residues
    in place: more primes widen the modulus past the true vector's size,
    and past it by one more prime q if q's residues were wrong, since the
    true n/d also lifts as nq/(dq).  Two kept primes below rank 12 end
    the walk, since no single kernel vector can prove such a rank.
    """
    values = _lambda_values(sp)
    best, kept, completed, tried = None, 0, False, None
    for p in islice(primes(), PRIME_BUDGET):
        residues = _residues(values, p)
        if residues is None:
            continue
        try:
            rows = _lambda_rows_mod(residues, p)
        except (ZeroDivisionError, SingularParameterError):
            if not completed:
                derive_full_params(sp)  # raises at a singular point
                completed = True
            continue
        echelon, pivots = complex_echelon_mod_p(rows, p)
        if len(pivots) == LAMBDA_COLUMNS:
            return LAMBDA_COLUMNS
        free = min(set(range(LAMBDA_COLUMNS)) - set(pivots))
        key = (len(pivots), free)
        if best is None or key > best:
            best, kept, modulus, lifted = key, 0, 1, [0] * 2 * LAMBDA_COLUMNS
        elif key < best:
            continue
        kept += 1
        if len(pivots) < LAMBDA_COLUMNS - 1:
            if kept == 2:
                return None
            continue
        kernel = [x for pair in complex_kernel_vector_mod_p(echelon, pivots, free, LAMBDA_COLUMNS, p)
                  for x in pair]
        step = pow(modulus, -1, p)
        lifted = [x + modulus * ((r - x) * step % p) for x, r in zip(lifted, kernel)]
        modulus *= p
        candidate = vector_reconstruction(lifted, modulus)
        if candidate is not None and candidate != tried:
            if _lambda_kernel_vanishes(values, list(zip(candidate[::2], candidate[1::2]))):
                return LAMBDA_COLUMNS - 1
            tried = candidate
    return None


def _lambda_real_jacobian(sp: SubfamilyParams) -> list:
    """The exact 41x23 real-slot Jacobian, scaled by one positive integer, as rows of ints."""
    seeds = [jet_real_var(z, idx, LAMBDA_SLOTS) if idx < 3
             else jet_complex_var(z, 2 * idx - 3, 2 * idx - 2, LAMBDA_SLOTS)
             for idx, z in enumerate(_lambda_values(sp))]
    return _directional_derivatives(complete_parameters(*seeds), LAMBDA_SLOTS)


def jacobian_rank_lambda(sp: SubfamilyParams) -> int:
    """Rank of the subfamily-map Jacobian with one column per parameter variable.

    The 41 real coordinates are differentiated holomorphically in each of
    the ten complex parameters (d/dz = (d/dx - i d/dy)/2) and ordinarily
    in t, x, y, giving a 41x13 matrix whose rank is taken over the
    complex field.  Because the coordinates are real-valued, the
    conjugate derivatives carry no extra information for this rank.  The
    rank is certified over F_p[i] when it can be (see the module
    docstring) and computed exactly otherwise.
    """
    certified = _certified_rank_lambda(sp)
    if certified is not None:
        return certified
    rows = [[GaussRat(x) for x in row[:3]] + [GaussRat(x, -y) for x, y in zip(row[3::2], row[4::2])]
            for row in _lambda_real_jacobian(sp)]
    return rank(GMat.from_rows(rows))


def jacobian_rank_lambda_real_slots(sp: SubfamilyParams) -> int:
    """Rank over the rationals of the full 41x23 real-slot Jacobian.

    Never smaller than ``jacobian_rank_lambda``; the two differ when the
    map is not holomorphic in the complex parameters, which is the
    generic situation here.
    """
    return rank(GMat.from_rows(_lambda_real_jacobian(sp)))
