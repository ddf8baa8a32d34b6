#!/usr/bin/env python3
"""Search random full-family samples for a state whose partial transpose is
positive definite (inertia (0, 0, 9)).

Whether such a state exists is open; every known sample is NPT or has a
singular partial transpose.  Finding nothing is the expected outcome, but
any hit is printed with its exact parameters for inspection.  The samples
and their classification are those of `scan --family full`.
"""

import argparse
import sys
from collections import Counter

from checkerboard import sampling
from checkerboard.io import checker_params_to_doc
from checkerboard.report import classify


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.samples < 1:
        ap.error("samples must be >= 1")

    histogram = Counter()
    for idx in range(args.samples):
        p = sampling.random_checker_params(sampling.rng_for(args.seed, idx))
        rec = classify("full", p)
        histogram[rec.inertia.n_neg, rec.inertia.n_zero, rec.inertia.n_pos] += 1
        if rec.pd_gamma:
            print(f"POSITIVE-DEFINITE GAMMA at sample {idx} (theorem1 generic: {rec.generic_t1}):")
            print(checker_params_to_doc(p))
    print(f"samples: {args.samples}, positive-definite hits: {histogram[0, 0, 9]}")
    for key in sorted(histogram):
        print(f"  inertia {key}: {histogram[key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
