"""Count positive roots of x^3 - (3a-2)x^2 - (2a-3)x - a over a sweep of
rational parameters a, each isolated by exact integer-sign bisection (the
cubic's discriminant is negative for every a > 0, so each has one root)."""

import argparse
import sys
from fractions import Fraction

from submodcurv import cubic_positive_roots


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=500,
                    help="number of alpha samples (default %(default)s)")
    ap.add_argument("--max", dest="amax", default="10",
                    help="right endpoint of the alpha range (default %(default)s)")
    ap.add_argument("--show", type=int, default=8,
                    help="print the first N isolating intervals (default %(default)s)")
    args = ap.parse_args(argv)

    top = Fraction(args.amax)
    counts = {}
    for k in range(1, args.count + 1):
        alpha = top * Fraction(k, args.count)
        rep = cubic_positive_roots(alpha)
        counts[rep.positive_roots] = counts.get(rep.positive_roots, 0) + 1
        if k <= args.show:
            (lo, hi), = rep.isolating_intervals
            mark = "exact" if lo == hi else f"width {hi - lo}"
            print(f"alpha={str(alpha):>8}  root in [{lo}, {hi}]  ({mark})")
    print(f"# {args.count} alpha values in (0, {top}]")
    for n in sorted(counts):
        print(f"# positive roots = {n}: {counts[n]} values")
    return 0 if counts == {1: args.count} else 1


if __name__ == "__main__":
    sys.exit(main())
