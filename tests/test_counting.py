from fractions import Fraction

import numpy as np
import pytest

from checkerboard import presets, sampling
from checkerboard.counting import (
    LAMBDA_SLOTS,
    PSI_SLOTS,
    jacobian_rank_lambda,
    jacobian_rank_lambda_real_slots,
    jacobian_rank_psi,
)
from checkerboard.criteria import partial_transpose_matrix
from checkerboard.errors import SingularParameterError
from checkerboard.family import (
    EVEN_POSITIONS,
    ODD_POSITIONS,
    CheckerParams,
    StateMatrix,
    build_state,
    outer_sum_entries,
    placed_vectors,
)
from checkerboard.gaussian import GaussRat
from checkerboard.matrices import GMat
from checkerboard.subfamily import (
    COMPLEX_LETTERS,
    SubfamilyParams,
    complete_parameters,
    derive_full_params,
)
from jet_reference import lambda_coordinate_jets, psi_coordinate_jets
from linalg_reference import submatrix
from reference import unnormalized


def psi_map(p: CheckerParams) -> tuple:
    """First two columns of the 4x4 and 5x5 blocks of the unnormalized state.

    Works at every parameter point, including all-zero (where the blocks
    vanish), so it is built directly from the outer-product entries.
    """
    entries = outer_sum_entries(placed_vectors(p.as_dict()), GaussRat(0))
    m = GMat.from_rows(entries)
    tall_odd = submatrix(m, ODD_POSITIONS, ODD_POSITIONS[:2])
    tall_even = submatrix(m, EVEN_POSITIONS, EVEN_POSITIONS[:2])
    return tall_odd, tall_even


def lambda_map(sp: SubfamilyParams) -> StateMatrix:
    """The fixed-point state reached through the parameter completion."""
    return build_state(derive_full_params(sp))


def test_psi_map_shapes_and_entries():
    tall_odd, tall_even = psi_map(presets.ONE_DISTILLABLE_PARAMS)
    assert tall_odd.shape() == (4, 2)
    assert tall_even.shape() == (5, 2)
    assert tall_even[0, 0] == GaussRat(2)  # |a|^2 + |j|^2
    # Hermiticity of the underlying block: entry (1,0) vs (0,1)
    assert tall_odd[1, 0] == tall_odd[0, 1].conj()


def test_psi_map_zero_point():
    tall_odd, tall_even = psi_map(CheckerParams())
    assert not any(tall_odd.data)
    assert not any(tall_even.data)


def test_psi_rank_at_reference_point():
    assert jacobian_rank_psi(presets.ONE_DISTILLABLE_PARAMS) == 28


def test_psi_rank_zero_point():
    assert jacobian_rank_psi(CheckerParams()) == 0


def test_psi_rank_bounded():
    for idx in range(3):
        p = sampling.random_checker_params(sampling.rng_for(61, idx))
        assert jacobian_rank_psi(p) == 28


def test_lambda_map_at_rank_point():
    state = lambda_map(presets.SUBFAMILY_RANK_POINT)
    assert partial_transpose_matrix(unnormalized(state)) == unnormalized(state)


def test_lambda_map_singular():
    sp = SubfamilyParams(
        t=Fraction(1), x=Fraction(0), y=Fraction(0),
        a=GaussRat(0), b=GaussRat(1), c=GaussRat(1), f=GaussRat(1),
        j=GaussRat(1), k=GaussRat(1), l=GaussRat(1), m=GaussRat(1),
        p=GaussRat(1), s=GaussRat(1),
    )
    with pytest.raises(SingularParameterError):
        lambda_map(sp)


def test_lambda_rank_at_reference_point():
    assert jacobian_rank_lambda(presets.SUBFAMILY_RANK_POINT) == 12


def test_lambda_real_slot_rank_at_reference_point():
    # the full real-slot Jacobian has strictly larger rank at the same point
    assert jacobian_rank_lambda_real_slots(presets.SUBFAMILY_RANK_POINT) == 15


def test_lambda_rank_bounds_and_sampled_maximum():
    for idx in range(20):
        sp, _ = sampling.random_subfamily_params(sampling.rng_for(62, idx))
        assert jacobian_rank_lambda(sp) == 12


def _entries_float(point):
    t, x, y = point[0], point[1], point[2]
    cv = {}
    for i, ch in enumerate(COMPLEX_LETTERS):
        cv[ch] = point[3 + 2 * i] + 1j * point[4 + 2 * i]
    values = complete_parameters(
        t, x, y, cv["a"], cv["b"], cv["c"], cv["f"], cv["j"],
        cv["k"], cv["l"], cv["m"], cv["p"], cv["s"],
    )
    entries = outer_sum_entries(placed_vectors(values), 0j)
    coords = []
    for d in range(9):
        coords.append(entries[d][d].real)
    for r in range(9):
        for c in range(r):
            if (r + c) % 2 == 0:
                coords.append(entries[r][c].real)
                coords.append(entries[r][c].imag)
    return np.array(coords)


def test_lambda_jets_match_finite_differences():
    """Jet gradients vs central differences at 10 random valid points."""
    checked = 0
    idx = 0
    while checked < 10:
        sp, _ = sampling.random_subfamily_params(sampling.rng_for(63, idx))
        idx += 1
        jets = lambda_coordinate_jets(sp)
        point = [float(sp.t), float(sp.x), float(sp.y)]
        for ch in COMPLEX_LETTERS:
            z = getattr(sp, ch)
            point += [float(z.re), float(z.im)]
        point = np.array(point)
        eps = 1e-6
        exact = np.array(
            [[float(g.re) for g in jet.grad] for jet in jets]
        )
        fd = np.zeros_like(exact)
        bad = False
        for col in range(LAMBDA_SLOTS):
            dp = np.zeros(LAMBDA_SLOTS)
            dp[col] = eps
            try:
                fd[:, col] = (_entries_float(point + dp) - _entries_float(point - dp)) / (2 * eps)
            except (ZeroDivisionError, SingularParameterError):
                bad = True
                break
        if bad:
            continue
        scale = np.maximum(1.0, np.abs(exact))
        assert np.max(np.abs(fd - exact) / scale) < 1e-4
        checked += 1


def test_psi_jets_match_finite_differences():
    p = sampling.random_checker_params(sampling.rng_for(64, 0))
    jets = psi_coordinate_jets(p)
    point = []
    for ch in "abcdefghijklmnpqrs":
        z = getattr(p, ch)
        point += [float(z.re), float(z.im)]
    point = np.array(point)

    def coords_float(vals):
        values = {}
        for i, ch in enumerate("abcdefghijklmnpqrs"):
            values[ch] = vals[2 * i] + 1j * vals[2 * i + 1]
        entries = outer_sum_entries(placed_vectors(values), 0j)
        from checkerboard.family import EVEN_POSITIONS, ODD_POSITIONS
        coords = []
        for positions in (ODD_POSITIONS, EVEN_POSITIONS):
            for d in range(2):
                coords.append(entries[positions[d]][positions[d]].real)
            for ri in range(len(positions)):
                for ci in range(min(ri, 2)):
                    ent = entries[positions[ri]][positions[ci]]
                    coords.append(ent.real)
                    coords.append(ent.imag)
        return np.array(coords)

    eps = 1e-6
    exact = np.array([[float(g.re) for g in jet.grad] for jet in jets])
    fd = np.zeros_like(exact)
    for col in range(PSI_SLOTS):
        dp = np.zeros(PSI_SLOTS)
        dp[col] = eps
        fd[:, col] = (coords_float(point + dp) - coords_float(point - dp)) / (2 * eps)
    scale = np.maximum(1.0, np.abs(exact))
    assert np.max(np.abs(fd - exact) / scale) < 1e-4
