"""Command-line interface.

Subcommands: build, certify, reproduce, scan, embed-bp, jacobian.
Exit codes: 0 success, 1 golden mismatch, 2 parse error, 3 singular
parameters, 4 internal error (traceback on stderr).  All exact values in
the output are fraction strings; the only floating-point fields are
prefixed "numeric_".
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback

from . import reproduce as reproduce_mod
from . import sampling
from .criteria import is_ppt  # noqa: F401 (bench/test_bench.py traces it in this namespace)
from .errors import CheckerboardError, ParseError, SingularParameterError
from .io import (
    matrix_to_obj,
    parse_bruss_peres_doc,
    parse_param_doc,
    parse_witness_doc,
    subfamily_params_to_doc,
)
from .report import build_certificate, classify, format_certificate, jacobian_report
from .subfamily import bruss_peres_embed

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_SINGULAR = 3
EXIT_INTERNAL = 4

CSV_HEADER = "sample_index,seed_offset,generic_t1,generic_t2,ppt,n_neg,reduction_violated,rank,notes"


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _write(text: str, path=None) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def cmd_build(args) -> int:
    doc = _load_json(args.input)
    kind, params = parse_param_doc(doc)
    witness = parse_witness_doc(_load_json(args.witness)) if args.witness else None
    rec = classify(kind, params)
    cert = format_certificate(rec, witness)
    out_doc = {
        "params": doc,
        "normalizer": cert["normalizer"],
        "matrix": matrix_to_obj(rec.state.normalized()),
        "certificate": cert,
    }
    _write(_dump(out_doc) + "\n", args.out)
    print(_dump(cert))
    return EXIT_OK


def cmd_certify(args) -> int:
    kind, params = parse_param_doc(_load_json(args.input))
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
    """One CSV row, the sample's classification (None if singular) and its Jacobian rank."""
    rng = sampling.rng_for(seed, idx)
    draw = sampling.random_checker_params if family == "full" else sampling.draw_subfamily_params
    params = draw(rng)
    try:
        rec = classify(family, params)
    except SingularParameterError as exc:
        return f"{idx},{idx},,,,,,,singular:{exc.denominator}", None, None
    jrank = jacobian_report(family, params)["rank"] if target == "max-rank" else None
    row = ",".join([
        str(idx), str(idx), str(bool(rec.t1)), "" if rec.t2 is None else str(bool(rec.t2)),
        str(rec.ppt), str(rec.inertia.n_neg), str(rec.reduction_violated),
        str(rec.rank if jrank is None else jrank),
        "pd-gamma" if rec.pd_gamma else "",
    ])
    return row, rec, jrank


def cmd_scan(args) -> int:
    if args.samples < 1:
        raise ParseError("samples must be >= 1")
    results = [_scan_row(args.family, args.target, args.seed, idx)
               for idx in range(args.samples)]
    recs = [rec for _, rec, _ in results if rec is not None]
    ranks = [jrank for _, _, jrank in results if jrank is not None]
    ppt = sum(rec.ppt for rec in recs)
    summary = (
        f"# summary: family={args.family} target={args.target} samples={args.samples}"
        f" seed={args.seed} valid={len(recs)} ppt={ppt} npt={len(recs) - ppt}"
        f" reduction_violated={sum(rec.reduction_violated for rec in recs)}"
        f" gamma_fixed={sum(rec.gamma_fixed for rec in recs)}"
        f" pd_gamma={sum(rec.pd_gamma for rec in recs)}"
        f" max_jacobian_rank={max(ranks) if ranks else '-'}"
    )
    _write("\n".join([CSV_HEADER, *(row for row, _, _ in results), summary]) + "\n", args.out)
    return EXIT_OK


def cmd_embed_bp(args) -> int:
    bp = parse_bruss_peres_doc(_load_json(args.input))
    sp = bruss_peres_embed(bp, real_only=args.real)
    _write(_dump(subfamily_params_to_doc(sp)) + "\n", args.out)
    return EXIT_OK


def cmd_jacobian(args) -> int:
    kind, params = parse_param_doc(_load_json(args.input))
    print(_dump(jacobian_report(kind, params)))
    return EXIT_OK


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` leaves it unchanged."""
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
    except Exception:
        # a crash must never read as exit 1, the golden-mismatch code
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
