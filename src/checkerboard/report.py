"""One classification record per state, and the certificate formatted from it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .charpoly import Inertia
from .counting import (
    LAMBDA_COORDS,
    LAMBDA_SLOTS,
    PSI_COORDS,
    PSI_SLOTS,
    jacobian_rank_lambda,
    jacobian_rank_psi,
)
from .criteria import (
    WitnessVector,
    is_ppt,
    range_certificate,
    reduction_criterion,
    schmidt_rank,
    witness_expectation,
)
from .family import StateMatrix, build_state, has_checkerboard_pattern, state_rank, theorem1_product
from .gaussian import GaussRat
from .io import format_fraction, gauss_to_obj
from .subfamily import derive_full_params, fixed_point_conditions, theorem2_from_theorem1


@dataclass(frozen=True)
class Classification:
    """The exact facts about one state; ``t2`` is None outside the ppt family."""

    kind: str
    params: object
    state: StateMatrix
    rank: int
    t1: GaussRat
    t2: Optional[GaussRat]
    ppt: bool
    inertia: Inertia
    gamma_fixed: bool
    reduction_violated: bool

    @property
    def pd_gamma(self) -> bool:
        return self.inertia == Inertia(0, 0, 9)


def classify(kind: str, params) -> Classification:
    """Every exact fact about the state of ``params``, each computed once.

    ``kind`` is "full" (CheckerParams) or "ppt" (SubfamilyParams, completed
    first).  The 18 full parameters are lifted once to Gaussian integers w
    over their least common denominator D, and every fact comes from w:
    the state is the integer grid W W* = D^2 N rho, ``inertia`` is that of
    its partial transpose (built once, in ``is_ppt``), the rank is
    rank(V_odd) + rank(V_even), and ``gamma_fixed`` comes from the eight
    conditions equivalent to rho^Gamma = rho, which are homogeneous of
    degree two.  ``t1`` is the Theorem 1 product, t1(w)/D^16 because it
    is homogeneous of degree 16, and ``t2`` = abf(ak-bj) t1 is t2(w)/D^21,
    because abf(ak-bj) is of degree 5.
    """
    if kind == "ppt":
        full = derive_full_params(params)
    elif kind == "full":
        full = params
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")
    state = build_state(full)
    w, d = full.lifted
    ppt, inert = is_ppt(state)
    t1w = theorem1_product(w)
    return Classification(
        kind=kind,
        params=params,
        state=state,
        rank=state_rank(w),
        t1=t1w.over(d ** 16),
        t2=theorem2_from_theorem1(w, t1w).over(d ** 21) if kind == "ppt" else None,
        ppt=ppt,
        inertia=inert,
        gamma_fixed=fixed_point_conditions(w),
        # A PPT state satisfies the reduction criterion (Horodecki & Horodecki,
        # PRA 59, 4206 (1999)), so only an NPT state can violate it.
        reduction_violated=not ppt and reduction_criterion(state),
    )


def format_certificate(rec: Classification, witness: Optional[WitnessVector] = None,
                       include_jacobian: bool = False) -> dict:
    """The certificate of a classified state; all exact values are fraction strings.

    Theorem 2's product is a multiple of Theorem 1's, so ``t1`` alone
    decides ``certified_entangled``.
    """
    state, inert = rec.state, rec.inertia
    cert = {
        "family": rec.kind,
        "normalizer": format_fraction(state.normalizer),
        "trace": "1",
        "rank": rec.rank,
        "checkerboard": has_checkerboard_pattern(state.grid),
        "theorem1": {"value": gauss_to_obj(rec.t1), "generic": bool(rec.t1)},
        "ppt": {
            "is_ppt": rec.ppt,
            "inertia": {"neg": inert.n_neg, "zero": inert.n_zero, "pos": inert.n_pos},
        },
        "gamma_fixed": rec.gamma_fixed,
        "reduction_violated": rec.reduction_violated,
        "range_certificate": range_certificate(rec.t1).value,
        "certified_entangled": bool(rec.t1),
        "distillable": rec.reduction_violated,
    }
    if rec.t2 is not None:
        cert["theorem2"] = {"value": gauss_to_obj(rec.t2), "generic": bool(rec.t2)}
    if witness is not None:
        value = witness_expectation(state, witness)
        srank = schmidt_rank(witness)
        one_distillable = (not value.im) and value.re < 0 and srank <= 2
        cert["witness"] = {
            "value": format_fraction(value.real_fraction()),
            "schmidt_rank": srank,
            "one_distillable": one_distillable,
        }
        cert["distillable"] = cert["distillable"] or one_distillable
    if include_jacobian:
        cert["jacobian"] = jacobian_report(rec.kind, rec.params)
    return cert


def build_certificate(kind: str, params, witness: Optional[WitnessVector] = None,
                      include_jacobian: bool = False) -> dict:
    """Run every applicable certificate on the given parameters (see ``classify``)."""
    return format_certificate(classify(kind, params), witness, include_jacobian)


def jacobian_report(kind: str, params) -> dict:
    """Exact Jacobian rank of the applicable family map, with the raw counts.

    The lower bound for the normalized family is the rank minus one,
    accounting for the overall normalization direction.
    """
    if kind == "full":
        rk = jacobian_rank_psi(params)
        map_name, slots, coords = "two-column-blocks", PSI_SLOTS, PSI_COORDS
    elif kind == "ppt":
        rk = jacobian_rank_lambda(params)
        map_name, slots, coords = "fixed-point-completion", LAMBDA_SLOTS, LAMBDA_COORDS
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")
    return {
        "map": map_name,
        "rank": rk,
        "param_count": slots,
        "coordinate_count": coords,
        "normalized_family_lower_bound": rk - 1,
    }
