"""The repository benchmark: one command, every metric, correctness checked.

    python3 bench/run.py --workload scan-default --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The run generates its inputs from
``--seed``, measures set-up time in fresh worker processes, then drives a
closed loop (one client, one request at a time) of in-process
``checkerboard.cli.main`` calls in a worker process for ``--seconds``
seconds.  Every output goes through the correctness gate.  The last line
of standard output is the result object; the line before it, prefixed
``# details``, records the environment, the tail percentile, gate counts
and the output digest.  Scratch files go to ``.bench_build/`` in the
checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import gate  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

IMPORTTIME_RUNS = 3
# Every run ends within this many seconds of wall time, or fails.
RUN_DEADLINE_S = 170

# The machine this was built on drifts between speeds up to twice apart, in
# stretches of 10 to 30 s, so raw request times from one run to the next
# spread by up to 25%.  Request times are therefore scaled to a reference
# speed: each latency is multiplied by REFERENCE_PROBE_S over the mean of
# the speed probes run just before and just after it (see worker.py).
# REFERENCE_PROBE_S is about the probe's time in that machine's fast
# stretches, so scaled times read close to raw ones there.
REFERENCE_PROBE_S = 0.0028

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "latency_ms.p50": "ms",
                    "latency_ms.tail": "ms", "peak_rss_mb": "MB"}
# Per-layer metrics besides the calls, self_ms and self_share of each span.
LAYER_EXTRA_UNITS = {"charpoly.input_bits.max": "bits", "matrices.input_bits.max": "bits",
                     "sampling.singular_share": "ratio", "trace.overhead": "ratio",
                     "setup.import_ms.numpy": "ms", "setup.import_ms.checkerboard": "ms"}
SPAN_METRIC_UNITS = {"calls": "calls/req", "self_ms": "ms/req", "self_share": "ratio"}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of ``n`` samples beyond it.

    With nearest-rank percentiles the P-th is the sample of rank
    ceil(P*n/100), so it has n - ceil(P*n/100) samples beyond it.  With
    fewer than 11 samples no percentile qualifies and 100 (the maximum)
    is returned.
    """
    for p in range(99, 0, -1):
        if n - -(-p * n // 100) >= 10:
            return p
    return 100


def percentile(values, p: int) -> float:
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    return ordered[-(-p * len(ordered) // 100) - 1]


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("CHECKERBOARD_THREADS", None)  # one client, no pools
    return env


def _run_child(argv, deadline: float, cwd=ROOT) -> subprocess.CompletedProcess:
    """Run a child to completion; kill it and fail if it passes the run deadline."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("run deadline passed")
    proc = subprocess.run(argv, cwd=cwd, env=_child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def import_times_ms(deadline: float) -> dict:
    """Cumulative import ms of numpy and of checkerboard, from ``-X importtime``."""
    argv = [sys.executable, "-X", "importtime", "-c", "import checkerboard.cli"]
    numpy_ms, pkg_ms = [], []
    for _ in range(IMPORTTIME_RUNS):
        rows = []
        for line in _run_child(argv, deadline).stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)$", line)
            if m:
                rows.append((len(m.group(3)), m.group(4), int(m.group(2))))
        top = min(indent for indent, _, _ in rows)
        numpy_ms.append(sum(us for _, name, us in rows if name == "numpy") / 1000)
        pkg_ms.append(sum(us for indent, name, us in rows if indent == top and
                          (name == "checkerboard" or name.startswith("checkerboard.")))
                      / 1000)
    return {"setup.import_ms.numpy": statistics.median(numpy_ms),
            "setup.import_ms.checkerboard": statistics.median(pkg_ms)}


def source_fingerprint() -> dict:
    """Commit (when the checkout is a git work tree) and a hash of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def gate_records(requests, records, input_dir, digest_requests: int) -> dict:
    """Run the correctness gate over every record; returns counts and the digest.

    The digest covers the plain outputs of the first ``digest_requests``
    requests.
    """
    totals = {"attempted": 0, "failed": 0, "ppt_rows": 0, "singular_rows": 0,
              "checked": 0, "unchecked": 0}
    failures = []
    plain_items = {}
    digest = hashlib.sha256()
    first_outputs = {}
    for rec in records:
        request = requests[rec["index"] % len(requests)]
        tally, counts = gate.check_request(request, rec, input_dir)
        output = rec["stdout"] + "".join(rec["files"][k] for k in sorted(rec["files"]))
        # The traced replay must give the same bytes as the plain pass.
        if rec["passname"] == "plain":
            first_outputs[rec["index"]] = output
            plain_items[rec["index"]] = counts["items"]
        elif first_outputs.get(rec["index"]) != output:
            tally.expect(False, "traced output differs from the untraced one")
        if rec["passname"] == "plain" and rec["index"] < digest_requests:
            digest.update(output.encode() + b"\0")
        totals["attempted"] += 1
        totals["failed"] += bool(tally.failures)
        totals["checked"] += tally.checked
        totals["unchecked"] += tally.unchecked
        for key in ("ppt_rows", "singular_rows"):
            totals[key] += counts[key]
        if tally.failures and len(failures) < 10:
            failures.append({"index": rec["index"], "argv": request["argv"],
                             "reasons": tally.failures[:5],
                             "error": (rec["error"] or "")[-1500:]})
    totals["plain_items"] = plain_items
    totals["digest_sha256"] = digest.hexdigest()
    totals["failures"] = failures
    return totals


def read_records(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def scaled_latency_s(rec) -> float:
    """A request's latency at the reference machine speed."""
    probe_s = (rec["probe_before_s"] + rec["probe_after_s"]) / 2
    return rec["latency_s"] * REFERENCE_PROBE_S / probe_s


def latency_stats(latencies_s, items: int) -> dict:
    latencies_ms = [t * 1000 for t in latencies_s]
    tail_p = tail_percentile(len(latencies_ms))
    return {"items_per_s": items / sum(latencies_s),
            "latency_ms.p50": percentile(latencies_ms, 50),
            "latency_ms.tail": percentile(latencies_ms, tail_p)}


def end_to_end_metrics(plain, totals, result) -> tuple:
    items = sum(totals["plain_items"].values())
    values = {
        "setup_s": statistics.median(result["setup_samples_s"]),
        **latency_stats([scaled_latency_s(rec) for rec in plain], items),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    probes = [rec["probe_before_s"] for rec in plain]
    return metrics, {"tail_percentile": tail_percentile(len(plain)),
                     "latency_samples": len(plain),
                     "unscaled": latency_stats([rec["latency_s"] for rec in plain], items),
                     "probe_ms": {"median": statistics.median(probes) * 1000,
                                  "min": min(probes) * 1000, "max": max(probes) * 1000}}


def per_layer_metrics(plain, traced, totals, out: Path, deadline) -> tuple:
    with open(out.with_suffix(".spans.jsonl"), encoding="utf-8") as fh:
        spans = [(s["name"], s["start"], s["end"], s["parent"], s["request"])
                 for s in map(json.loads, fh)]
    bits = json.loads(out.with_suffix(".bits.json").read_text(encoding="utf-8"))
    traced_s = sum(rec["latency_s"] for rec in traced)
    plain_s = sum(rec["latency_s"] for rec in plain)
    values = tracing.layer_metrics(spans, len(traced), round(traced_s * 1e9))
    metrics = {name: (v, SPAN_METRIC_UNITS[name.rsplit(".", 1)[1]])
               for name, v in values.items()}
    # Singular rows of the program's own sampler.  certify-bigcoef has no
    # scan rows, so it reads 0 there; its generator's rejections are only
    # in the details.
    share = totals["singular_rows"] / max(1, totals["ppt_rows"])
    extras = {
        "charpoly.input_bits.max": bits.get("charpoly", 0),
        "matrices.input_bits.max": bits.get("matrices", 0),
        "sampling.singular_share": share,
        "trace.overhead": traced_s / plain_s,
        **import_times_ms(deadline),
    }
    metrics.update((name, (extras[name], unit)) for name, unit in LAYER_EXTRA_UNITS.items())
    return metrics, {"traced_requests": len(traced), "spans": len(spans)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (ROOT / "src" / "checkerboard" / "cli.py").is_file():
        print(f"error: no checkerboard sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".bench_build" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    input_dir = work / "inputs"
    requests, gen_stats = workloads.generate(args.workload, args.seed, input_dir)

    out = input_dir / worker.RECORDS_FILE
    worker_argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
                   "--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
    # The worker's own import is the first in a fresh checkout and writes the
    # bytecode caches an installed copy would have, so it is not a sample.
    result = json.loads(_run_child(worker_argv, deadline, cwd=input_dir).stdout)

    records = read_records(out)
    plain = [rec for rec in records if rec["passname"] == "plain"]
    traced = [rec for rec in records if rec["passname"] == "traced"]
    digest_requests = workloads.DIGEST_REQUESTS[args.workload]
    totals = gate_records(requests, records, input_dir, digest_requests)

    if args.trace:
        metrics, extra = per_layer_metrics(plain, traced, totals, out, deadline)
    else:
        metrics, extra = end_to_end_metrics(plain, totals, result)

    import numpy

    from checkerboard import sampling

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **source_fingerprint(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "loop": "closed, 1 client, in-process cli.main",
        "sampler": {"max_numerator": sampling.DEFAULT_MAX_NUMERATOR,
                    "max_denominator": sampling.DEFAULT_MAX_DENOMINATOR,
                    "scan_batch": workloads.SCAN_BATCH,
                    "max_rank_batch": workloads.MAX_RANK_BATCH,
                    "bigcoef_digits": workloads.BIG_DIGITS},
        "requests": len(plain), "items": sum(totals["plain_items"].values()),
        "error_rate": totals["failed"] / totals["attempted"],
        "float_checks": totals["checked"], "float_checks_unchecked": totals["unchecked"],
        "digest_requests": digest_requests, "digest_sha256": totals["digest_sha256"],
        "generator": gen_stats,
        "worker_setup_s": result["setup_s"], "setup_samples_s": result["setup_samples_s"],
        "failures": totals["failures"], **extra,
    }
    (work / "details.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print("# details " + json.dumps(details))
    print(json.dumps({
        "correct": totals["failed"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
