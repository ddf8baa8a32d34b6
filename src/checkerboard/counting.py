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
that map's Jacobian.  On all 41 coordinates, times the Jacobian of the
completion from exact jets, they give the subfamily's real-slot
Jacobian by the chain rule, for the exact fallback and the real-slot
rank.

The full family's rank is 28 exactly when the leading 2x2 minor of both
blocks' generator rows is nonzero (proof in ``jacobian_rank_psi``);
otherwise it is the exact ``rank`` of ``psi_jacobian``.

The subfamily's rank is at most 12 at every point, because a kernel
vector is known in closed form, and a rank of 12 mod the first usable
prime p = 1 mod 4 of ``matrices.primes()`` proves 12 (proofs in
``_certified_rank_lambda``); ``SplitJet``s through
``complete_parameters`` give the rows mod p.  Every other outcome falls
back to the exact ``rank`` of the exact Jacobian.

The slot ordering is fixed so Jacobians are bit-reproducible: for the
full family, (re, im) pairs of the letters in alphabetical order; for
the subfamily, t, x, y and then (re, im) pairs, or the d/dz columns, of
a, b, c, f, j, k, l, m, p, s.
"""

from __future__ import annotations

from itertools import islice

from .errors import SingularParameterError
from .family import BLOCK_POSITIONS, BLOCK_ROWS, CheckerParams, PARAM_LETTERS, placed_vectors
from .gaussian import GaussRat, lift_to_integers
from .jets import SplitJet, jet_complex_var, jet_real_var
from .matrices import PRIME_BUDGET, GMat, primes, rank, rank_mod_p, split_residue
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

# The entries (r, c), r >= c, of N*rho whose real coordinates each map
# takes: Re of a diagonal entry, Re and Im of an entry below it.  For the
# full family, per block, the two leading diagonal entries and then the
# entries below the diagonal in the first two columns, row by row; for the
# subfamily the whole diagonal and then every entry with an even index
# sum below it, row by row.
PSI_ENTRIES = tuple(
    entry for pos in BLOCK_POSITIONS
    for entry in [(d, d) for d in pos[:2]] + [(r, c) for ri, r in enumerate(pos)
                                              for c in pos[:min(ri, 2)]])
LAMBDA_ENTRIES = tuple((d, d) for d in range(9)) + tuple(
    (r, c) for r in range(9) for c in range(r) if (r + c) % 2 == 0)
# The column of each free letter of the subfamily map, and for each entry
# of LAMBDA_ENTRIES the pairs (u, w) of its letters and whether it is below
# the diagonal.
_COLUMN = {ch: 3 + idx for idx, ch in enumerate(COMPLEX_LETTERS)}
_ENTRY_PAIRS = tuple((tuple(zip(_LETTERS_AT[r], _LETTERS_AT[c])), r != c)
                     for r, c in LAMBDA_ENTRIES)


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

    Per block, the map sends the generator rows V = [A; B] of
    ``BLOCK_ROWS`` to the first two columns of V V*, that is (A A*, B A*),
    whose 4 + 4(n - 2) real coordinates are 12 for the odd block and 16
    for the even one; A is the 2x2 matrix of the first two rows.  If
    det A != 0 the differential is onto: dA = H A^-*/2 gives d(A A*) = H
    for any Hermitian H, and dB = (C - B dA*) A^-* gives d(B A*) = C for
    any C.  If det A = 0, some w != 0 has A* w = 0, and w* d(A A*) w = 0
    for every dA, so the rank is lower.  So the rank is 28 exactly when
    both minors, gp - qf and am - jd, are nonzero.  Only the first
    direction is relied on: any other point takes the exact ``rank``.
    """
    values = p.as_dict()
    if all(values[u0] * values[v1] != values[v0] * values[u1]
           for (u0, v0), (u1, v1), *_ in BLOCK_ROWS):
        return PSI_COORDS
    return rank(GMat.from_rows(psi_jacobian({ch: (z.re, z.im) for ch, z in values.items()})))


def _lambda_values(sp: SubfamilyParams) -> list:
    return [GaussRat(sp.t), GaussRat(sp.x), GaussRat(sp.y)] + [
        getattr(sp, ch) for ch in COMPLEX_LETTERS
    ]


def _residues(values: list, p: int, iota: int):
    """The values' split residues, or None when p divides a denominator or phi
    sends a nonzero value or its conjugate to 0."""
    if any(not z.d % p for z in values):
        return None
    residues = [split_residue(z, p, iota) for z in values]
    return None if any(z and not (u and w) for z, (u, w) in zip(values, residues)) else residues


def _lambda_rows_mod(residues: list, p: int) -> list:
    """The 41x13 Wirtinger Jacobian mod p, as unreduced integer rows, from ``SplitJet``s.

    The jets go through ``complete_parameters`` only.  Each entry E =
    sum u w* of N*rho over the letters of its vectors gives the row
    dE = sum w* du + u dw*, and an entry below the diagonal also the row
    dE* = sum w du* + u* dw.  The columns are d/dt, d/dx, d/dy and d/dz_k.
    A free letter z_k has du = e_k and du* = 0, so it adds one scalar to
    its own column; a completed letter's gradients are dense.  Raises
    ZeroDivisionError or SingularParameterError when the completion
    divides by, or tests, a value that is 0 mod p.
    """
    seeds = []
    for idx, (z, z_conj) in enumerate(residues):
        unit = [0] * LAMBDA_COLUMNS
        unit[idx] = 1
        seeds.append(SplitJet(z, z_conj, unit, unit if idx < 3 else [0] * LAMBDA_COLUMNS, p))
    letters = complete_parameters(*seeds)
    rows = []
    for pairs, below in _ENTRY_PAIRS:
        d_e, d_e_conj = [0] * LAMBDA_COLUMNS, [0] * LAMBDA_COLUMNS
        for u, w in pairs:
            ju, jw, ku, kw = letters[u], letters[w], _COLUMN.get(u), _COLUMN.get(w)
            if ku is None:
                s, t = jw.conj_value, jw.value
                d_e = [x + s * g for x, g in zip(d_e, ju.grad)]
                d_e_conj = [x + t * g for x, g in zip(d_e_conj, ju.conj_grad)]
            else:
                d_e[ku] += jw.conj_value
            if kw is None:
                s, t = ju.value, ju.conj_value
                d_e = [x + s * g for x, g in zip(d_e, jw.conj_grad)]
                d_e_conj = [x + t * g for x, g in zip(d_e_conj, jw.grad)]
            else:
                d_e_conj[kw] += ju.conj_value
        rows.append(d_e)
        if below:
            rows.append(d_e_conj)
    return rows


def _certified_rank_lambda(sp: SubfamilyParams):
    """12 when a rank mod a split prime proves it; None otherwise.

    Let J be the 41x13 matrix of the derivatives of the 41 real
    coordinates (Re E of each diagonal entry E, Re E and Im E of each
    entry below it) along d/dt, d/dx, d/dy and d/dx_k - i d/dy_k.  The
    map sends the odd block's generator rows V = [(g, q); (f, p);
    (i, s); (h, r)] of ``BLOCK_ROWS`` to V V*, which is unchanged when V
    becomes V U for any unitary 2x2 U.  So the rank is at most 12: take
    v = 0 on t, x, y and every letter but v_f = f p*, v_p = -|f|^2 and
    v_s = s p* - t.  Column k is d/dx_k - i d/dy_k, so J v = 0 says that
    every coordinate has zero derivative along the two real directions
    dz = v and dz = -i v.  Along them every odd row moves as dV = V X,
    with X = [[p* - p, -f*], [f, 0]] and X = -i [[p + p*, -f*], [-f, 0]];
    for (f, p) this is v itself, for (i, s) it uses i f* = t - s p*, and
    for (g, q) and (h, r) it follows from the completion's formulas (a
    sympy test proves all 16 identities through ``complete_parameters``).
    Both X are anti-Hermitian, so d(V V*) = V (X + X*) V* = 0.  The even
    letters a, b, c, j, k, l, m do not move, and d, e, n do not depend on
    t, f, p, s, so the even block is fixed too.  The completion needs
    f != 0, so v_p != 0 and v is a kernel vector at every point where the
    completion is defined.

    The rank mod p is taken of a matrix with the rank of J.  Its rows
    are dE and dE* (dE alone on the diagonal), which span the rows
    d Re E and d Im E, as Re E = (E + E*)/2 and Im E = (E - E*)/2i; its
    columns d/dz_k = (d/dx_k - i d/dy_k)/2 are half those of J.  Both
    changes are invertible over the Gaussian rationals.  For p = 1 mod 4
    and iota^2 = -1 mod p, phi: i -> iota is a ring map onto F_p from the
    Gaussian rationals whose denominators p does not divide;
    ``SplitJet``s compute phi of every entry, and phi only lowers a rank,
    since a minor that is nonzero mod p is nonzero.  So a rank of 12 mod
    one prime proves exactly 12.

    The pairs (p, iota) come from ``primes()``, at most PRIME_BUDGET of
    them.  A prime is skipped when it divides a denominator, when phi
    sends a nonzero parameter or its conjugate to 0, or when the
    completion divides by a value that is 0 mod p; the first such prime
    also runs the exact completion, which raises SingularParameterError
    at a singular point.  Two usable primes below 12 end the walk, and a
    rank of 13 mod p, which the kernel vector rules out, counts as no
    proof.
    """
    values = _lambda_values(sp)
    usable, completed = 0, False
    for p, iota in islice(primes(), PRIME_BUDGET):
        residues = _residues(values, p, iota)
        if residues is None:
            continue
        try:
            rows = _lambda_rows_mod(residues, p)
        except (ZeroDivisionError, SingularParameterError):
            if not completed:
                derive_full_params(sp)  # raises at a singular point
                completed = True
            continue
        if rank_mod_p(rows, p) == LAMBDA_COLUMNS - 1:
            return LAMBDA_COLUMNS - 1
        usable += 1
        if usable == 2:
            return None
    return None


def _lambda_real_jacobian(sp: SubfamilyParams) -> list:
    """The exact 41x23 real-slot Jacobian, scaled by one positive integer, as rows of ints.

    Exact jets over the 23 real slots go through ``complete_parameters``;
    lifting the letters' values and gradients to Gaussian integers scales
    each by a positive common denominator, which changes no rank.
    """
    seeds = [jet_real_var(z, idx, LAMBDA_SLOTS) if idx < 3
             else jet_complex_var(z, 2 * idx - 3, 2 * idx - 2, LAMBDA_SLOTS)
             for idx, z in enumerate(_lambda_values(sp))]
    letters = complete_parameters(*seeds)
    values, _ = lift_to_integers([letters[ch].value for ch in PARAM_LETTERS])
    grads, _ = lift_to_integers([g for ch in PARAM_LETTERS for g in letters[ch].grad])
    parts = {ch: (z.re, z.im) for ch, z in zip(PARAM_LETTERS, values)}
    grad = {ch: grads[k * LAMBDA_SLOTS:(k + 1) * LAMBDA_SLOTS] for k, ch in enumerate(PARAM_LETTERS)}
    rows = []
    for sparse in outer_jacobian(parts, LAMBDA_ENTRIES):
        row = [0] * LAMBDA_SLOTS
        for ch, d_re, d_im in sparse:
            row = [x + d_re * g.re + d_im * g.im for x, g in zip(row, grad[ch])]
        rows.append(row)
    return rows


def jacobian_rank_lambda(sp: SubfamilyParams) -> int:
    """Rank of the subfamily-map Jacobian with one column per parameter variable.

    The 41 real coordinates are differentiated holomorphically in each of
    the ten complex parameters (d/dz = (d/dx - i d/dy)/2) and ordinarily
    in t, x, y, giving a 41x13 matrix whose rank is taken over the
    complex field.  Because the coordinates are real-valued, the
    conjugate derivatives carry no extra information for this rank.  The
    rank is certified mod a prime p = 1 mod 4 when it can be (see the
    module docstring) and computed exactly otherwise.
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
