"""Closed-loop worker: one process, one client, in-process ``cli.main`` calls.

Run from the directory holding the generated inputs of ``--workload``,
with the package's ``src`` on ``PYTHONPATH``.  ``--setup-only`` measures
the set-up (import ``checkerboard.cli`` and build its parser) and exits.
Otherwise the worker sends the requests of ``requests.json`` in order,
each only after the previous one finished, for ``--seconds`` seconds (and
at least the workload's digest prefix), and writes one JSON record per
request to ``records.jsonl``, with the times of the speed probes run just
before and after it.  Plain runs also sample the set-up time of fresh
processes between requests.  With ``--trace`` every request is sent twice
in a row, plain and then with spans installed, and the spans are written
next to the records.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

PROBE_TERMS = 250
# Seconds between set-up samples in a plain run: about a dozen per run.
SETUP_EVERY_S = 2.5
RECORDS_FILE = "records.jsonl"


def speed_probe() -> float:
    """Seconds for a fixed piece of big-integer arithmetic, best of two.

    It sums k/(k+7) as a reduced fraction with a Python-level Euclid loop:
    interpreter-bound work on growing integers, like the package's own,
    but built from int operations only, so no change to the package or a
    library can alter it.
    """
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        num, den = 1, 1
        for k in range(1, PROBE_TERMS):
            num, den = num * (k + 7) + k * den, den * (k + 7)
            x, y = num, den
            while y:
                x, y = y, x % y
            num, den = num // x, den // x
        best = min(best, time.perf_counter() - start)
    return best


def run_request(cli, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code
        except Exception:
            error = traceback.format_exc()
        latency = time.perf_counter() - start
    return {"latency_s": latency, "rc": rc, "error": error,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_indexed(cli, requests, i: int, label: str) -> dict:
    argv = requests[i % len(requests)]["argv"]
    record = run_request(cli, argv)
    record.update(index=i, passname=label, files={})
    if "--out" in argv:
        dump = Path(argv[argv.index("--out") + 1])
        if dump.exists():
            record["files"][dump.name] = dump.read_text(encoding="utf-8")
            dump.unlink()
    return record


def peak_rss_kb() -> int:
    """Peak resident memory of this process image, in KiB.

    Read from VmHWM: ``ru_maxrss`` would also count pages the parent held
    when it forked this process, before the exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def measure_setup() -> float:
    """Set-up seconds of a fresh worker process."""
    proc = subprocess.run([sys.executable, __file__, "--setup-only"], capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)["setup_s"]


def run_loop(cli, requests, indices, sink, tracer=None) -> list:
    """Send each request; with a tracer, send it again at once with spans installed.

    Running the traced copy right after the plain one keeps the pair close
    in time, so the tracing overhead is not confused with the drift of a
    shared machine's speed.  A speed probe runs between plain requests;
    each record carries the probe times just before and after it.  Without
    a tracer, a fresh process's set-up time is sampled between requests
    every SETUP_EVERY_S: samples spread over the whole run, instead of
    bunched at its start, see the same machine speed as the requests do.
    Returns the set-up samples.
    """
    setup_times = []
    next_setup = time.perf_counter()
    probe = speed_probe()
    for i in indices:
        if tracer is None and time.perf_counter() >= next_setup:
            setup_times.append(measure_setup())
            next_setup = time.perf_counter() + SETUP_EVERY_S
        record = run_indexed(cli, requests, i, "plain")
        record["probe_before_s"] = probe
        probe = speed_probe()
        record["probe_after_s"] = probe
        sink.write(json.dumps(record) + "\n")
        if tracer is not None:
            tracer.request = i
            tracer.install()
            try:
                record = run_indexed(cli, requests, i, "traced")
            finally:
                tracer.uninstall()
            sink.write(json.dumps(record) + "\n")
    return setup_times


def timed_indices(seconds: float, min_requests: int):
    """Request indices of a closed loop that stops taking new requests at the deadline."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_requests or time.perf_counter() < deadline:
        yield i
        i += 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    start = time.perf_counter()
    from checkerboard import cli
    cli.make_parser()
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads  # after the set-up is timed, so that it does not count there

    with open(workloads.REQUESTS_FILE, encoding="utf-8") as fh:
        requests = json.load(fh)
    out = Path(RECORDS_FILE)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    indices = timed_indices(args.seconds, workloads.DIGEST_REQUESTS[args.workload])
    with open(out, "w", encoding="utf-8") as sink:
        setup_times = run_loop(cli, requests, indices, sink, tracer)
    peak_kb = peak_rss_kb()
    if tracer is not None:
        with open(out.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, request in tracer.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "request": request}) + "\n")
        with open(out.with_suffix(".bits.json"), "w", encoding="utf-8") as fh:
            json.dump(dict(tracer.input_bits), fh)
    print(json.dumps({"setup_s": setup_s, "setup_samples_s": setup_times,
                      "peak_rss_kb": peak_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
