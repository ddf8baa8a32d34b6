"""Certificate assembly: one JSON-ready report per state."""

from __future__ import annotations

from typing import Optional

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
    partial_transpose_matrix,
    range_certificate,
    reduction_criterion,
    schmidt_rank,
    witness_expectation,
)
from .family import (
    build_state,
    has_checkerboard_pattern,
    theorem1_product,
)
from .io import format_fraction, gauss_to_obj
from .matrices import rank
from .subfamily import SubfamilyParams, derive_full_params, theorem2_product


def build_certificate(
    kind: str,
    params,
    witness: Optional[WitnessVector] = None,
    include_jacobian: bool = False,
) -> dict:
    """Run every applicable certificate on the given parameters.

    ``kind`` is "full" (params: CheckerParams) or "ppt"
    (params: SubfamilyParams, routed through the completion first).
    All exact values are emitted as fraction strings.
    """
    if kind == "ppt":
        sp: SubfamilyParams = params
        full = derive_full_params(sp)
    elif kind == "full":
        sp = None
        full = params
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")

    state = build_state(full)
    t1 = theorem1_product(full)
    ppt_flag, inert = is_ppt(state)
    violated = reduction_criterion(state)
    gamma_fixed = partial_transpose_matrix(state.unnormalized) == state.unnormalized
    cert = {
        "family": kind,
        "normalizer": format_fraction(state.normalizer),
        "trace": "1",
        "rank": rank(state.unnormalized),
        "checkerboard": has_checkerboard_pattern(state.unnormalized),
        "theorem1": {"value": gauss_to_obj(t1), "generic": bool(t1)},
        "ppt": {
            "is_ppt": ppt_flag,
            "inertia": {"neg": inert.n_neg, "zero": inert.n_zero, "pos": inert.n_pos},
        },
        "gamma_fixed": gamma_fixed,
        "reduction_violated": violated,
        "range_certificate": range_certificate(t1).value,
        "certified_entangled": bool(t1),
        "distillable": violated,
    }
    if kind == "ppt":
        t2 = theorem2_product(sp)
        cert["theorem2"] = {"value": gauss_to_obj(t2), "generic": bool(t2)}
        cert["certified_entangled"] = cert["certified_entangled"] or bool(t2)
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
        cert["jacobian"] = jacobian_report(kind, params)
    return cert


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
