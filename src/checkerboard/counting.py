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

The full family's Jacobian is written down directly (``psi_jacobian``):
the outer sum is quadratic, so every entry is plus or minus the real or
imaginary part of one parameter, doubled on the diagonal coordinates.
Its rank is 28 exactly when the leading 2x2 minor of both blocks'
generator rows is nonzero (proof in ``jacobian_rank_psi``); otherwise it
is the exact ``rank`` of ``psi_jacobian``.

The subfamily's Jacobian has one row builder, ``_lambda_rows``: jets of
the free parameters pushed through ``complete_parameters`` give the
Wirtinger rows dE and dE* of the entries E of N*rho, mod p from
``SplitJet``s and exact from ``GaussJet``s.  Its holomorphic rank is at
most 12 at every point, because a kernel vector is known in closed form,
and a closed form proves 12 exactly where the completion is defined and
am != jd: a 12x12 minor is block triangular, with a determinant that is
nonzero exactly when a, b, f, ak - bj, f*(fs - ip) and a*(am - jd) are
(proofs in ``jacobian_rank_lambda``).  The test takes a dozen
``GaussRat`` operations on the free parameters.  Elsewhere 12 pivots mod
the first usable prime of ``matrices.split_prime_rank`` prove 12; the
rows mod p take 12 columns, the 13 but d/dp, which the kernel vector
puts in the span of the others.  Every other outcome falls back to the
exact ``rank`` of the exact 41x13 rows.  The real-slot rank is the exact
rank of the realification of the same 41 rows (proof in
``jacobian_rank_lambda_real_slots``).

The slot ordering is fixed so Jacobians are bit-reproducible: for the
full family, (re, im) pairs of the letters in alphabetical order; for
the subfamily, t, x, y and then (re, im) pairs, or the d/dz columns, of
a, b, c, f, j, k, l, m, p, s.
"""

from __future__ import annotations

from math import lcm

from .errors import SingularParameterError
from .family import BLOCK_POSITIONS, BLOCK_ROWS, CheckerParams, PARAM_LETTERS, placed_vectors
from .gaussian import IUNIT, ONE, ZERO, GaussRat
from .jets import GaussJet, SplitJet
from .matrices import GMat, rank, rank_mod_p, split_prime_rank
from .subfamily import COMPLEX_LETTERS, SubfamilyParams, complete_parameters, derive_full_params

PSI_SLOTS = 36
PSI_COORDS = 28
LAMBDA_SLOTS = 23
LAMBDA_COORDS = 41
LAMBDA_COLUMNS = 13
LAMBDA_SLOT_ORDER = ("t", "x", "y") + tuple(COMPLEX_LETTERS)

# The two letters placed at each basis position (one per vector of its
# sublattice, in vector order) and the (re, im) real slots of each letter.
_LETTERS_AT = {}
for _vec in placed_vectors({ch: ch for ch in PARAM_LETTERS}):
    for _pos, _ch in _vec:
        _LETTERS_AT.setdefault(_pos, []).append(_ch)
_SLOT = {ch: slice(2 * idx, 2 * idx + 2) for idx, ch in enumerate(PARAM_LETTERS)}

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
# The column of each parameter variable in the exact rows, and in the rows
# mod p: all but p, whose column is dropped (see ``jacobian_rank_lambda``).
# For each entry of LAMBDA_ENTRIES, the pairs (u, w) of its letters and
# whether it is below the diagonal.
_EXACT_COLUMN = {ch: idx for idx, ch in enumerate(LAMBDA_SLOT_ORDER)}
_COLUMN = {ch: idx for idx, ch in enumerate(ch for ch in LAMBDA_SLOT_ORDER if ch != "p")}
_ENTRY_PAIRS = tuple((tuple(zip(_LETTERS_AT[r], _LETTERS_AT[c])), r != c)
                     for r, c in LAMBDA_ENTRIES)


def psi_jacobian(parts: dict) -> list:
    """Rows of the 28x36 real Jacobian of the two-column map, over the letters' real slots.

    ``parts`` maps each letter to the (re, im) parts of its value, in any
    ring; the letters' slots are (re, im) pairs in alphabetical order.  A
    diagonal entry of PSI_ENTRIES gives one row, Re, and an entry below
    the diagonal two, Re and Im, each nonzero only in the slots of the
    entry's letters.  A diagonal entry is the sum of |u|^2 over its
    letters, so d|u|^2 = 2 Re u dRe u + 2 Im u dIm u; an entry below it is
    u w* + u' w'* over the letters of its vectors, and
    d Re(u w*) = Re w dRe u + Im w dIm u + Re u dRe w + Im u dIm w,
    d Im(u w*) = -Im w dRe u + Re w dIm u + Im u dRe w - Re u dIm w.
    """
    rows = []
    for r, c in PSI_ENTRIES:
        if r == c:
            row = [0] * PSI_SLOTS
            for ch in _LETTERS_AT[r]:
                row[_SLOT[ch]] = 2 * parts[ch][0], 2 * parts[ch][1]
            rows.append(row)
            continue
        re_row, im_row = [0] * PSI_SLOTS, [0] * PSI_SLOTS
        for u, w in zip(_LETTERS_AT[r], _LETTERS_AT[c]):
            (u1, u2), (w1, w2) = parts[u], parts[w]
            re_row[_SLOT[u]], re_row[_SLOT[w]] = (w1, w2), (u1, u2)
            im_row[_SLOT[u]], im_row[_SLOT[w]] = (-w2, w1), (u2, -u1)
        rows += [re_row, im_row]
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


def _lambda_rows(letters: dict, column: dict, zero):
    """The rows of the Wirtinger Jacobian of N*rho, each built when it is taken.

    ``letters`` maps the 18 letters to the jets ``complete_parameters``
    returns, ``SplitJet``s or ``GaussJet``s, whose gradients have a column
    for each parameter variable in ``column``; ``zero`` is their scalar 0.
    Each entry E = sum u w* of N*rho over the letters of its vectors gives
    the row dE = sum w* du + u dw*, and an entry below the diagonal also
    the row dE* = sum w du* + u* dw, in LAMBDA_ENTRIES order.  A free
    letter z_k has du = e_k and du* = 0, so it adds one scalar to its own
    column, or nothing when ``column`` has none; a completed letter's
    gradients are dense.
    """
    width = len(column)
    for pairs, below in _ENTRY_PAIRS:
        d_e, d_e_conj = [zero] * width, [zero] * width
        for u, w in pairs:
            ju, jw = letters[u], letters[w]
            if u not in COMPLEX_LETTERS:
                s, t = jw.conj_value, jw.value
                d_e = [x + s * g for x, g in zip(d_e, ju.grad)]
                d_e_conj = [x + t * g for x, g in zip(d_e_conj, ju.conj_grad)]
            elif u in column:
                d_e[column[u]] += jw.conj_value
            if w not in COMPLEX_LETTERS:
                s, t = ju.value, ju.conj_value
                d_e = [x + s * g for x, g in zip(d_e, jw.conj_grad)]
                d_e_conj = [x + t * g for x, g in zip(d_e_conj, jw.grad)]
            elif w in column:
                d_e_conj[column[w]] += ju.conj_value
        yield d_e
        if below:
            yield d_e_conj


def _lambda_rows_mod(residues: list, p: int):
    """The rows of ``_lambda_rows`` mod p without column p, as unreduced integer rows.

    A generator: ``SplitJet``s go through ``complete_parameters`` when the
    first row is taken, which raises ZeroDivisionError or
    SingularParameterError when the completion divides by, or tests, a
    value that is 0 mod p.  The 12 columns are d/dt, d/dx, d/dy and d/dz_k
    for every free letter but p, whose jet has zero gradients.
    """
    width = len(_COLUMN)
    zero = [0] * width
    seeds = []
    for ch, (z, z_conj) in zip(LAMBDA_SLOT_ORDER, residues):
        unit = [0] * width
        if ch in _COLUMN:
            unit[_COLUMN[ch]] = 1
        seeds.append(SplitJet(z, z_conj, unit, unit if ch in "txy" else zero, p))
    yield from _lambda_rows(complete_parameters(*seeds), _COLUMN, 0)


def _lambda_exact_rows(sp: SubfamilyParams):
    """The exact rows of ``_lambda_rows`` over all 13 columns, from ``GaussJet``s."""
    width = len(_EXACT_COLUMN)
    zero = [ZERO] * width
    seeds = []
    for idx, (ch, z) in enumerate(zip(LAMBDA_SLOT_ORDER, _lambda_values(sp))):
        unit = [ZERO] * width
        unit[idx] = ONE
        seeds.append(GaussJet(z, z.conj(), unit, unit if ch in "txy" else zero))
    return _lambda_rows(complete_parameters(*seeds), _EXACT_COLUMN, ZERO)


def jacobian_rank_lambda(sp: SubfamilyParams) -> int:
    """Rank of the subfamily-map Jacobian with one column per parameter variable.

    Let J be the 41x13 matrix of the derivatives of the 41 real
    coordinates (Re E of each diagonal entry E, Re E and Im E of each
    entry below it) along d/dt, d/dx, d/dy and d/dx_k - i d/dy_k, twice
    the holomorphic d/dz_k; its rank is taken over the complex field.
    The coordinates are real-valued, so the conjugate derivatives carry
    no extra information for this rank.  The rows dE and dE* (dE alone on
    the diagonal) span the rows d Re E and d Im E, as Re E = (E + E*)/2
    and Im E = (E - E*)/2i, and the columns d/dz_k are half those of J;
    both changes are invertible, so J has the rank of the Wirtinger rows
    dE and dE* over the columns d/dt, d/dx, d/dy and d/dz_k, in which a
    free letter z_k has dz_k = 1 and dz_k* = 0.

    The rank is at most 12.  The map sends the odd block's generator rows
    V = [(g, q); (f, p); (i, s); (h, r)] of ``BLOCK_ROWS`` to V V*, which
    is unchanged when V becomes V U for any unitary 2x2 U.  Take v = 0 on
    t, x, y and every letter but v_f = f p*, v_p = -|f|^2 and
    v_s = s p* - t.  J v = 0 says that every coordinate has zero
    derivative along the two real directions dz = v and dz = -i v.  Along
    them every odd row moves as dV = V X, with X = [[p* - p, -f*], [f, 0]]
    and X = -i [[p + p*, -f*], [-f, 0]]; for (f, p) this is v itself, for
    (i, s) it uses i f* = t - s p*, and for (g, q) and (h, r) it follows
    from the completion's formulas (a sympy test proves all 16 identities
    through ``complete_parameters``).  Both X are anti-Hermitian, so
    d(V V*) = V (X + X*) V* = 0.  The even letters a, b, c, j, k, l, m do
    not move, and d, e, n do not depend on t, f, p, s, so the even block
    is fixed too.  The completion needs f != 0, so v_p != 0 and v is a
    kernel vector wherever the completion is defined.  So column p is in
    the span of columns f and s, and the 12 other columns have the rank
    of J.

    The rank is 12 where a, b, f, ak - bj, f*(fs - ip) and a*(am - jd)
    are all nonzero.  Take the rows dE00, dE60*, dE60, dE66, dE40, dE64*,
    dE33 | dE53, dE20, dE86 | dE55, dE22 and the columns
    a, j, b, k, c, l, f | t, x, y | s, m.  This minor is block lower
    triangular:

    * Positions 0, 6, 4 and 3 hold only free letters (a, j; b, k; c, l;
      f, p), so E00 = |a|^2 + |j|^2, E60* = a b* + j k*, E60 = b a* + k j*,
      E66 = |b|^2 + |k|^2, E40 = c a* + l j*, E64* = c b* + l k* and
      E33 = |f|^2 + |p|^2 have no derivative along t, x, y, s or m.  Their
      block is three copies of [[a*, j*], [b*, k*]] and f*, with
      determinant f* (ak - bj)*^3.
    * The completion makes E53 = i f* + s p* = t, E20 = d a* + m j* = x
      and E86 = e b* + n k* = y identically, so their rows are the unit
      rows of t, x and y.
    * E55 = |i|^2 + |s|^2 and E22 = |d|^2 + |m|^2, where i = (t - s p*)/f*
      does not depend on m and d = (x - m j*)/a* does not depend on s.  So
      dE55/ds = s* - i* p*/f* = ((fs - ip)/f)*, dE55/dm = 0,
      dE22/ds = 0 and dE22/dm = m* - d* j*/a* = ((am - jd)/a)*.

    The minor's determinant is f* (ak - bj)*^3 ((fs - ip)/f)* ((am - jd)/a)*
    (a sympy test proves the pattern through ``complete_parameters``).
    With i and d from the completion, f*(fs - ip) = s(|f|^2 + |p|^2) - t p
    and a*(am - jd) = m(|a|^2 + |j|^2) - x j, so the test reads only the
    free parameters; and where it holds, the completion divides by no 0.

    Elsewhere 12 is proved mod the first usable prime of
    ``split_prime_rank``: ``SplitJet``s compute phi of every row dE and
    dE*, and 12 pivots among them prove 12.  A prime where the completion
    divides by a value that is 0 mod p is skipped.  Where it tests one,
    the exact completion runs first, which raises SingularParameterError
    at a singular point, and then the prime is skipped.  Any other rank,
    or no usable prime, takes the exact ``rank`` of the exact rows dE and
    dE*, from ``GaussJet``s.
    """
    full = LAMBDA_COLUMNS - 1
    a, b, f, j, p = sp.a, sp.b, sp.f, sp.j, sp.p
    if (a and b and f and a * sp.k != b * j
            and sp.s * (f * f.conj() + p * p.conj()) != p * sp.t
            and sp.m * (a * a.conj() + j * j.conj()) != j * sp.x):
        return full

    def rank_at(residues, prime):
        try:
            rows = list(_lambda_rows_mod(residues, prime))
        except SingularParameterError:
            derive_full_params(sp)  # raises at a singular point
            raise ZeroDivisionError("the completion tests a value that is 0 mod p") from None
        return rank_mod_p(rows, prime)

    if split_prime_rank(_lambda_values(sp), rank_at) == full:
        return full
    return rank(GMat.from_rows(_lambda_exact_rows(sp)))


def _lambda_real_rows(sp: SubfamilyParams) -> list:
    """The 41 exact rows of ``_lambda_rows``, realified over the 23 real slots, as rows of ints.

    The rows are dE on the diagonal, and dE + dE* and i (dE* - dE) below
    it; each complex column becomes the two columns (Re, -Im), and t, x
    and y, whose entries are real, stay one column each.  Each row is
    lifted over the lcm of its denominators.
    """
    rows = list(_lambda_exact_rows(sp))
    real = rows[:9]
    for d_e, d_e_conj in zip(rows[9::2], rows[10::2]):
        real += [[a + b for a, b in zip(d_e, d_e_conj)],
                 [IUNIT * (b - a) for a, b in zip(d_e, d_e_conj)]]
    lifted = []
    for row in real:
        den = lcm(*(z.d for z in row))
        lifted.append([z.x * (den // z.d) for z in row[:3]] + [
            v for z in row[3:] for v in (z.x * (den // z.d), -z.y * (den // z.d))])
    return lifted


def jacobian_rank_lambda_real_slots(sp: SubfamilyParams) -> int:
    """Rank over the rationals of the full 41x23 real-slot Jacobian.

    Never smaller than ``jacobian_rank_lambda``; the two differ when the
    map is not holomorphic in the complex parameters, which is the
    generic situation here.

    It is the rank of ``_lambda_real_rows``.  For a real function G of
    z_k = x_k + i y_k, dG/dz_k* is the conjugate of dG/dz_k, so
    dG/dx_k = dG/dz_k + dG/dz_k* = 2 Re dG/dz_k and
    dG/dy_k = i (dG/dz_k - dG/dz_k*) = -2 Im dG/dz_k.  Below the
    diagonal, dE + dE* and i (dE* - dE) are the Wirtinger rows of the
    real functions 2 Re E and 2 Im E, and on it dE is that of E = Re E.
    So each realified row is the real-slot row of Re E or Im E, with the
    columns t, x and y doubled, times 1 below the diagonal and 1/2 on it.
    Doubling three columns, and scaling each row by a positive rational,
    changes no rank.
    """
    return rank(GMat.from_rows(_lambda_real_rows(sp)))
