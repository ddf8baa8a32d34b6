"""Seeded input generators for the three benchmark workloads.

``generate(workload, seed, out_dir)`` writes every input file the program
will read into ``out_dir`` and returns the request list.  Each request is
``{"argv": [...], "family": "full"|"ppt", "op": ...}``; file arguments are
names relative to ``out_dir``, which is the worker's working directory, so
the same seed gives byte-identical files wherever they are written.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("scan-default", "certify-bigcoef", "max-rank")
REQUESTS_FILE = "requests.json"

# Samples per scan request.  Batches rather than single samples, so that a
# change working across samples (a process pool, say) can show its effect.
SCAN_BATCH = 10
MAX_RANK_BATCH = 1

# Length of the generated request sequence.  The closed loop walks it in
# order and wraps around only if a run gets through all of it.
SCAN_REQUESTS = 4000
CERTIFY_REQUESTS = 400

# certify-bigcoef draws numerators and denominators with exactly this many
# digits.  At 20 digits one certificate takes about 6.5 s, too slow to
# repeat in every run.
BIG_DIGITS = 5

# Family order of consecutive requests.  In certify-bigcoef and max-rank
# each family's latencies form a tight cluster of their own.  An even mix
# would put the median on the edge between the two clusters, where it
# jumps from run to run; two full-family requests per ppt one keep the
# median and the tail inside a cluster.
ALTERNATING = ("full", "ppt")
TWO_TO_ONE = ("full", "full", "ppt")

# Every run sends at least this many first requests, and the output digest
# covers exactly them, so that it is the same for every commit that gives
# the same outputs, however fast it runs.  Each prefix holds every kind of
# request of its workload: both families in scan-default; every op on both
# families in certify-bigcoef, whose op and family patterns repeat every
# nine requests; and in max-rank a few dozen cheap single-sample ranks.
DIGEST_REQUESTS = {"scan-default": 6, "certify-bigcoef": 9, "max-rank": 36}

FULL_LETTERS = "abcdefghijklmnpqrs"
PPT_REAL_KEYS = ("t", "x", "y")
PPT_COMPLEX_LETTERS = "abcfjklmps"
CERTIFY_OPS = ("certify", "certify-witness", "build")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _scan_requests(rng: random.Random, batch: int, target: str | None,
                   families: tuple) -> list:
    requests = []
    for i in range(SCAN_REQUESTS):
        family = families[i % len(families)]
        argv = ["scan", "--family", family, "--samples", str(batch),
                "--seed", str(rng.randrange(2**31))]
        if target:
            argv += ["--target", target]
        requests.append({"argv": argv, "family": family, "op": "scan"})
    return requests


def _big_fraction(rng: random.Random) -> str:
    lo, hi = 10 ** (BIG_DIGITS - 1), 10**BIG_DIGITS - 1
    num = rng.randint(lo, hi) * rng.choice((-1, 1))
    return f"{num}/{rng.randint(lo, hi)}"


def _big_complex(rng: random.Random) -> dict:
    return {"re": _big_fraction(rng), "im": _big_fraction(rng)}


def _is_singular_ppt(doc: dict) -> bool:
    """True when the completion of a ppt-kind document hits a zero denominator."""
    from checkerboard.errors import SingularParameterError
    from checkerboard.io import parse_param_doc
    from checkerboard.subfamily import derive_full_params

    try:
        derive_full_params(parse_param_doc(doc)[1])
    except SingularParameterError:
        return True
    return False


def _witness_doc(rng: random.Random) -> dict:
    """Two product terms with small Gaussian-integer factors (Schmidt rank <= 2)."""
    def factor():
        while True:
            vec = [{"re": str(rng.randint(-2, 2)), "im": str(rng.randint(-2, 2))}
                   for _ in range(3)]
            if any(z["re"] != "0" or z["im"] != "0" for z in vec):
                return vec
    return {"pairs": [[factor(), factor()] for _ in range(2)]}


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _certify_requests(rng: random.Random, out_dir: Path) -> tuple:
    requests = []
    ppt_draws = ppt_singular = 0
    for i in range(CERTIFY_REQUESTS):
        family = TWO_TO_ONE[i % len(TWO_TO_ONE)]
        op = CERTIFY_OPS[(i // len(TWO_TO_ONE)) % len(CERTIFY_OPS)]
        if family == "full":
            doc = {"family": "full",
                   "params": {ch: _big_complex(rng) for ch in FULL_LETTERS}}
        else:
            while True:
                params = {key: _big_fraction(rng) for key in PPT_REAL_KEYS}
                params.update({ch: _big_complex(rng) for ch in PPT_COMPLEX_LETTERS})
                doc = {"family": "ppt", "params": params}
                ppt_draws += 1
                if not _is_singular_ppt(doc):
                    break
                ppt_singular += 1
        name = f"params-{i:04d}.json"
        _write_json(out_dir / name, doc)
        argv = ["build" if op == "build" else "certify", "--input", name]
        if op == "certify-witness":
            wname = f"witness-{i:04d}.json"
            _write_json(out_dir / wname, _witness_doc(rng))
            argv += ["--witness", wname]
        if op == "build":
            argv += ["--out", f"dump-{i:04d}.json"]
        requests.append({"argv": argv, "family": family, "op": op})
    return requests, {"ppt_draws": ppt_draws, "ppt_singular": ppt_singular}


def generate(workload: str, seed: int, out_dir: Path) -> tuple:
    """Write the inputs of one workload run; returns (requests, generator stats).

    The request list is also written to REQUESTS_FILE in ``out_dir``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = _rng(workload, seed)
    stats = {}
    if workload == "scan-default":
        requests = _scan_requests(rng, SCAN_BATCH, None, ALTERNATING)
    elif workload == "max-rank":
        requests = _scan_requests(rng, MAX_RANK_BATCH, "max-rank", TWO_TO_ONE)
    elif workload == "certify-bigcoef":
        requests, stats = _certify_requests(rng, out_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write_json(out_dir / REQUESTS_FILE, requests)
    return requests, stats
