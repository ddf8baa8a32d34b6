"""Command-line interface.

Subcommands: build, certify, reproduce, scan, embed-bp, jacobian.
Exit codes: 0 success, 1 golden mismatch, 2 parse error, 3 singular
parameters, 4 internal error (traceback on stderr).  Every value in the
output is exact: fractions are printed as strings, never as floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

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
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def _nested(text: str) -> str:
    """``text``, a ``_dump`` at the top level, as the value of a top-level key.

    Indenting every line after the first by one level is exact: json.dumps
    escapes a newline inside a string as \\n, so every raw newline in
    ``text`` starts an indented line.
    """
    return text.replace("\n", "\n  ")


def _matrix_dump(rows) -> str:
    """``matrix_to_obj``'s rows as ``_dump`` writes them as the value of a top-level key.

    No part needs escaping: each is a fraction string of [-0-9/] only.
    """
    return "[\n    " + ",\n    ".join(
        "[\n      " + ",\n      ".join(
            f'{{\n        "im": "{z["im"]}",\n        "re": "{z["re"]}"\n      }}' for z in row
        ) + "\n    ]" for row in rows
    ) + "\n  ]"


def cmd_build(args) -> int:
    """Write ``_dump({params, normalizer, matrix, certificate})`` to --out; print the certificate.

    The dump is put together from its parts, byte for byte the one
    ``_dump`` would write, so that the certificate is dumped once and the
    81 matrix entries skip the pure-Python indenting encoder.  The keys
    are written in sorted order.  The certificate and the input document
    go through ``_dump``; the matrix parts and the normalizer are fraction
    strings, which need no escaping.
    """
    doc = _load_json(args.input)
    kind, params = parse_param_doc(doc)
    witness = parse_witness_doc(_load_json(args.witness)) if args.witness else None
    rec = classify(kind, params)
    cert = format_certificate(rec, witness)
    cert_text = _dump(cert)
    _write(
        f'{{\n  "certificate": {_nested(cert_text)},\n'
        f'  "matrix": {_matrix_dump(matrix_to_obj(rec.state))},\n'
        f'  "normalizer": "{cert["normalizer"]}",\n'
        f'  "params": {_nested(_dump(doc))}\n}}\n',
        args.out,
    )
    print(cert_text)
    return EXIT_OK


def cmd_certify(args) -> int:
    kind, params = parse_param_doc(_load_json(args.input))
    witness = parse_witness_doc(_load_json(args.witness)) if args.witness else None
    cert = build_certificate(kind, params, witness=witness,
                             include_jacobian=args.jacobian)
    print(_dump(cert))
    return EXIT_OK


def cmd_reproduce(args) -> int:
    from . import reproduce  # imported here: no other command needs it or the presets

    ok = reproduce.run_all(write=print)
    print("ALL PASS" if ok else "MISMATCH")
    return EXIT_OK if ok else EXIT_MISMATCH


def _scan_row(family: str, jacobian: bool, seed: int, idx: int) -> tuple:
    """One CSV row, the sample's classification (None if singular) and its Jacobian rank."""
    rng = sampling.rng_for(seed, idx)
    draw = sampling.random_checker_params if family == "full" else sampling.draw_subfamily_params
    params = draw(rng)
    try:
        rec = classify(family, params)
    except SingularParameterError as exc:
        return f"{idx},{idx},,,,,,,singular:{exc.denominator}", None, None
    jrank = jacobian_report(family, params)["rank"] if jacobian else None
    row = ",".join([
        str(idx), str(idx), str(rec.generic_t1),
        "" if rec.generic_t2 is None else str(rec.generic_t2),
        str(rec.ppt), str(rec.inertia.n_neg), str(rec.reduction_violated),
        str(rec.rank if jrank is None else jrank), "",
    ])
    return row, rec, jrank


def cmd_scan(args) -> int:
    if args.samples < 1:
        raise ParseError("samples must be >= 1")
    results = [_scan_row(args.family, args.target == "max-rank", args.seed, idx)
               for idx in range(args.samples)]
    recs = [rec for _, rec, _ in results if rec is not None]
    ranks = [jrank for _, _, jrank in results if jrank is not None]
    ppt = sum(rec.ppt for rec in recs)
    summary = (
        f"# summary: family={args.family} target={args.target or '-'} samples={args.samples}"
        f" seed={args.seed} valid={len(recs)} ppt={ppt} npt={len(recs) - ppt}"
        f" reduction_violated={sum(rec.reduction_violated for rec in recs)}"
        f" gamma_fixed={sum(rec.gamma_fixed for rec in recs)}"
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
def _parser_and_commands() -> tuple:
    """The argument parser, its subparsers action, and each subcommand's ``add_argument`` actions."""
    parser = argparse.ArgumentParser(
        prog="checkerboard",
        description="Exact construction and certification of checkerboard two-qutrit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a state and dump matrix + certificate")
    build = [
        p_build.add_argument("--input", required=True, help="parameter file (JSON)"),
        p_build.add_argument("--out", required=True, help="output path for the matrix dump"),
        p_build.add_argument("--witness", help="optional witness file (JSON)"),
    ]
    p_build.set_defaults(func=cmd_build)

    p_cert = sub.add_parser("certify", help="print the certificate for a parameter file")
    cert = [
        p_cert.add_argument("--input", required=True),
        p_cert.add_argument("--witness"),
        p_cert.add_argument("--jacobian", action="store_true",
                            help="include the exact Jacobian rank"),
    ]
    p_cert.set_defaults(func=cmd_certify)

    p_repro = sub.add_parser("reproduce", help="re-derive every golden value")
    p_repro.set_defaults(func=cmd_reproduce)

    p_scan = sub.add_parser("scan", help="classify random samples, CSV output")
    scan = [
        p_scan.add_argument("--family", choices=("full", "ppt"), required=True),
        p_scan.add_argument("--samples", type=int, required=True),
        p_scan.add_argument("--seed", type=int, default=0),
        p_scan.add_argument("--target", choices=("max-rank",),
                            help="put each sample's Jacobian rank in the rank column"),
        p_scan.add_argument("--out"),
    ]
    p_scan.set_defaults(func=cmd_scan)

    p_embed = sub.add_parser("embed-bp", help="expand embedded-family parameters to a ppt file")
    embed = [
        p_embed.add_argument("--input", required=True),
        p_embed.add_argument("--out"),
        p_embed.add_argument("--real", action="store_true",
                             help="require a, b, c, f real (five-parameter variant)"),
    ]
    p_embed.set_defaults(func=cmd_embed_bp)

    p_jac = sub.add_parser("jacobian", help="exact Jacobian rank of the applicable map")
    jac = [p_jac.add_argument("--input", required=True)]
    p_jac.set_defaults(func=cmd_jacobian)

    return parser, sub, {"build": build, "certify": cert, "reproduce": [], "scan": scan,
                         "embed-bp": embed, "jacobian": jac}


def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` leaves it unchanged."""
    return _parser_and_commands()[0]


@functools.cache
def _plain_tables() -> dict:
    """Per subcommand: its Namespace defaults, its actions by option string, its required actions.

    Read from the public attributes of the actions ``make_parser`` created
    (the help action is not among them), once per process, on the first
    call that needs them.
    """
    _, sub, commands = _parser_and_commands()
    return {
        name: ({sub.dest: name, **{a.dest: a.default for a in actions},
                "func": sub.choices[name].get_default("func")},
               {option: a for a in actions for option in a.option_strings},
               [a for a in actions if a.required])
        for name, actions in commands.items()
    }


def _plain_namespace(argv) -> argparse.Namespace | None:
    """The Namespace ``parse_args(argv)`` returns when ``argv`` is plain, else None.

    A line is plain when it starts with a subcommand, every other token is
    one of that subcommand's exact option strings, each valued option is
    followed by one value that does not start with "-", each value passes
    the option's ``type`` and ``choices``, and every required option is
    given.  Anything else (help, abbreviations, "--opt=value", "--",
    negative numbers, errors) is left to argparse.
    """
    table = _plain_tables().get(argv[0]) if argv else None
    if table is None:
        return None
    defaults, options, required = table
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        action = options.get(token)
        if action is None:
            return None
        if action.nargs == 0:
            given[action] = action.const
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action] = value
    if not all(a in given for a in required):
        return None
    return argparse.Namespace(**(defaults | {a.dest: value for a, value in given.items()}))


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None); return its exit code.

    A plain line (see ``_plain_namespace``) is read from the parser's own
    actions without argparse's parse; every other line goes to
    ``parse_args``, so help, usage, error messages and exit code 2 are
    argparse's.
    """
    args = _plain_namespace(sys.argv[1:] if argv is None else argv)
    if args is None:
        args = make_parser().parse_args(argv)
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
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
