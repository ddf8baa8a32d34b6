"""Command-line interface.

Subcommands: build, certify, reproduce, scan, embed-bp, jacobian.
Exit codes: 0 success, 1 golden mismatch, 2 parse error, 3 singular
parameters.  All exact values in the output are fraction strings; the
only floating-point fields are prefixed "numeric_".
"""

from __future__ import annotations

import argparse
import json
import sys

from . import reproduce as reproduce_mod
from . import sampling
from .charpoly import Inertia
from .counting import jacobian_rank_lambda, jacobian_rank_psi
from .criteria import is_ppt, partial_transpose_matrix, reduction_criterion
from .errors import CheckerboardError, ParseError, SingularParameterError
from .family import build_state, theorem1_generic
from .io import (
    matrix_to_obj,
    parse_bruss_peres_doc,
    parse_param_doc,
    parse_witness_doc,
    subfamily_params_to_doc,
)
from .matrices import rank
from .report import build_certificate, jacobian_report
from .subfamily import bruss_peres_embed, derive_full_params, theorem2_generic

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_SINGULAR = 3

CSV_HEADER = "sample_index,seed_offset,generic_t1,generic_t2,ppt,n_neg,reduction_violated,rank,notes"


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def _load_params(path: str):
    return parse_param_doc(_load_json(path))


def cmd_build(args) -> int:
    doc = _load_json(args.input)
    kind, params = parse_param_doc(doc)
    witness = parse_witness_doc(_load_json(args.witness)) if args.witness else None
    full = derive_full_params(params) if kind == "ppt" else params
    state = build_state(full)
    cert = build_certificate(kind, params, witness=witness)
    out_doc = {
        "params": doc,
        "normalizer": cert["normalizer"],
        "matrix": matrix_to_obj(state.normalized()),
        "certificate": cert,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(_dump(out_doc) + "\n")
    print(_dump(cert))
    return EXIT_OK


def cmd_certify(args) -> int:
    kind, params = _load_params(args.input)
    witness = parse_witness_doc(_load_json(args.witness)) if args.witness else None
    cert = build_certificate(kind, params, witness=witness,
                             include_jacobian=args.jacobian)
    print(_dump(cert))
    return EXIT_OK


def cmd_reproduce(args) -> int:
    ok = reproduce_mod.run_all(write=print)
    print("ALL PASS" if ok else "MISMATCH")
    return EXIT_OK if ok else EXIT_MISMATCH


def _scan_row(family: str, target: str, seed: int, idx: int) -> tuple:
    """One CSV row plus the counters it contributes to the summary."""
    rng = sampling.rng_for(seed, idx)
    notes = []
    stats = {"valid": 0, "ppt": 0, "npt": 0, "reduction": 0, "gamma_fixed": 0,
             "pd_gamma": 0, "jacobian_rank": None}
    if family == "full":
        params = sampling.random_checker_params(rng)
        full = params
        t1 = theorem1_generic(full)
        t2_text = ""
    else:
        params = sampling.draw_subfamily_params(rng)
        try:
            full = derive_full_params(params)
        except SingularParameterError as exc:
            row = f"{idx},{idx},,,,,,,singular:{exc.denominator}"
            return row, stats
        t1 = theorem1_generic(full)
        t2 = theorem2_generic(params)
        t2_text = str(t2)
    stats["valid"] = 1
    state = build_state(full)
    ppt, inert = is_ppt(state)
    stats["ppt" if ppt else "npt"] = 1
    violated = reduction_criterion(state)
    stats["reduction"] = int(violated)
    if partial_transpose_matrix(state.unnormalized) == state.unnormalized:
        stats["gamma_fixed"] = 1
    if inert == Inertia(0, 0, 9):
        stats["pd_gamma"] = 1
        notes.append("pd-gamma")
    if target == "max-rank":
        jrank = jacobian_rank_psi(full) if family == "full" else jacobian_rank_lambda(params)
        stats["jacobian_rank"] = jrank
        rank_field = jrank
    else:
        rank_field = rank(state.unnormalized)
    row = ",".join([
        str(idx), str(idx), str(t1), t2_text, str(ppt), str(inert.n_neg),
        str(violated), str(rank_field), ";".join(notes),
    ])
    return row, stats


def cmd_scan(args) -> int:
    if args.samples < 1:
        raise ParseError("samples must be >= 1")
    results = [_scan_row(args.family, args.target, args.seed, idx)
               for idx in range(args.samples)]
    totals = {"valid": 0, "ppt": 0, "npt": 0, "reduction": 0, "gamma_fixed": 0,
              "pd_gamma": 0}
    max_rank = None
    lines = [CSV_HEADER]
    for row, stats in results:
        lines.append(row)
        for key in totals:
            totals[key] += stats[key]
        if stats["jacobian_rank"] is not None:
            max_rank = max(max_rank or 0, stats["jacobian_rank"])
    summary = (
        f"# summary: family={args.family} target={args.target} samples={args.samples}"
        f" seed={args.seed} valid={totals['valid']} ppt={totals['ppt']}"
        f" npt={totals['npt']} reduction_violated={totals['reduction']}"
        f" gamma_fixed={totals['gamma_fixed']} pd_gamma={totals['pd_gamma']}"
        f" max_jacobian_rank={max_rank if max_rank is not None else '-'}"
    )
    lines.append(summary)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_embed_bp(args) -> int:
    bp = parse_bruss_peres_doc(_load_json(args.input))
    sp = bruss_peres_embed(bp, real_only=args.real)
    doc = subfamily_params_to_doc(sp)
    text = _dump(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_jacobian(args) -> int:
    kind, params = _load_params(args.input)
    print(_dump(jacobian_report(kind, params)))
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="checkerboard",
        description="Exact construction and certification of checkerboard two-qutrit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a state and dump matrix + certificate")
    p_build.add_argument("--input", required=True, help="parameter file (JSON)")
    p_build.add_argument("--out", required=True, help="output path for the matrix dump")
    p_build.add_argument("--witness", help="optional witness file (JSON)")
    p_build.set_defaults(func=cmd_build)

    p_cert = sub.add_parser("certify", help="print the certificate for a parameter file")
    p_cert.add_argument("--input", required=True)
    p_cert.add_argument("--witness")
    p_cert.add_argument("--jacobian", action="store_true",
                        help="include the exact Jacobian rank")
    p_cert.set_defaults(func=cmd_certify)

    p_repro = sub.add_parser("reproduce", help="re-derive every golden value")
    p_repro.set_defaults(func=cmd_reproduce)

    p_scan = sub.add_parser("scan", help="classify random samples, CSV output")
    p_scan.add_argument("--family", choices=("full", "ppt"), required=True)
    p_scan.add_argument("--samples", type=int, required=True)
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--target", choices=("ppt", "npt", "pd-gamma", "max-rank"),
                        default="ppt")
    p_scan.add_argument("--out")
    p_scan.set_defaults(func=cmd_scan)

    p_embed = sub.add_parser("embed-bp", help="expand embedded-family parameters to a ppt file")
    p_embed.add_argument("--input", required=True)
    p_embed.add_argument("--out")
    p_embed.add_argument("--real", action="store_true",
                         help="require a, b, c, f real (five-parameter variant)")
    p_embed.set_defaults(func=cmd_embed_bp)

    p_jac = sub.add_parser("jacobian", help="exact Jacobian rank of the applicable map")
    p_jac.add_argument("--input", required=True)
    p_jac.set_defaults(func=cmd_jacobian)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SingularParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except CheckerboardError as exc:
        # parse errors and any other invalid-input rejection
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
