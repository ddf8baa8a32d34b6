"""Spans around checkerboard's public layer functions, installed from outside.

The benchmark wraps each function named in ``LAYERS`` and records one span
``[name, start_ns, end_ns, parent, request]`` per call, in memory.  The
package imports functions by name (``from .criteria import is_ppt``), so
the wrapper replaces the function in every ``checkerboard.*`` namespace
that holds it, not only in the module that defines it.

``gaussian`` gets no spans: it is called once per scalar operation, so a
span would cost more than the work.  Its cost shows up as the self time
of its callers and in the ``input_bits`` counters.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = {
    "cli": ("main",),
    "report": ("build_certificate",),
    "io": ("parse_param_doc", "parse_witness_doc", "format_fraction", "matrix_to_obj"),
    "charpoly": ("char_poly", "inertia_from_char_poly"),
    "matrices": ("rank", "det", "kron"),
    "criteria": ("is_ppt", "reduction_criterion", "partial_transpose_matrix",
                 "witness_expectation"),
    "family": ("build_state", "theorem1_product", "outer_sum_entries"),
    "subfamily": ("derive_full_params", "theorem2_product"),
    "counting": ("jacobian_rank_psi", "jacobian_rank_lambda"),
    "jets": ("jet_rank",),
    "sampling": ("random_checker_params", "draw_subfamily_params"),
}

# Functions whose matrix argument is sized: the largest numerator or
# denominator bit length among its entries is kept per layer.  The sizing
# is the harness's own work, so it runs in a span named BITS_SPAN under the
# caller: the caller's self time leaves it out, and layer_metrics ignores
# the span.
INPUT_BITS = {"charpoly.char_poly": "charpoly", "matrices.rank": "matrices",
              "matrices.det": "matrices"}
BITS_SPAN = "trace.input_bits"

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def matrix_bits(m) -> int:
    """Largest bit length of any numerator or denominator of a GMat's entries."""
    best = 0
    for z in (m[r, c] for r in range(m.rows) for c in range(m.cols)):
        for part in (z.re, z.im):
            best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self.input_bits = defaultdict(int)
        self._stack = []
        self._patched = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        bits_layer = INPUT_BITS.get(name)
        input_bits = self.input_bits

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if bits_layer:
                bits_span = [BITS_SPAN, clock(), 0, parent, self.request]
                spans.append(bits_span)
                input_bits[bits_layer] = max(input_bits[bits_layer], matrix_bits(args[0]))
                bits_span[2] = clock()
            span = [name, 0, 0, parent, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        namespaces = [mod for name, mod in sys.modules.items()
                      if mod is not None and (name == "checkerboard"
                                              or name.startswith("checkerboard."))]
        for mod_name, fn_names in LAYERS.items():
            module = sys.modules[f"checkerboard.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()


def self_times(spans) -> list:
    """Self time of each span: its duration minus the durations of its children.

    Spans come from one thread and nest, so a span's direct children are
    disjoint and lie inside it; their durations are exactly the time
    they cover.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, requests: int, request_ns: int) -> dict:
    """Per wrapped function: calls and self ms per request, and self share.

    ``request_ns`` is the summed latency of the traced requests; the share
    is each function's self time as a fraction of it.  BITS_SPAN spans
    count in no function's figures.
    """
    calls = dict.fromkeys(SPAN_NAMES, 0)
    own_ns = dict.fromkeys(SPAN_NAMES, 0)
    for span, own in zip(spans, self_times(spans)):
        if span[0] == BITS_SPAN:
            continue
        calls[span[0]] += 1
        own_ns[span[0]] += own
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / requests
        out[f"{name}.self_ms"] = own_ns[name] / 1e6 / requests
        out[f"{name}.self_share"] = own_ns[name] / request_ns
    return out
