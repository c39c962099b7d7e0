"""Decide curvature-invariant equivalence for pairs of weight tuples and
confirm the decision matches plain equality of the tuples."""

import argparse
import sys
from fractions import Fraction

from submodcurv import polydisc_rigidity_report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pool", default="1,3/2,2",
                    help="comma-separated weights for the pair grid "
                         "(default %(default)s)")
    ap.add_argument("--powers", default="1,2",
                    help="generator powers for the principal decider "
                         "(default %(default)s)")
    args = ap.parse_args(argv)

    pool = [Fraction(x) for x in args.pool.split(",")]
    powers = [int(x) for x in args.powers.split(",")]

    combos = mismatches = 0
    for lam in pool:
        for mu in pool:
            for lam2 in pool:
                for mu2 in pool:
                    for p in powers:
                        combos += 1
                        got = polydisc_rigidity_report(
                            (lam, mu), (p,), (lam2, mu2)).equivalent
                        if got != ((lam, mu) == (lam2, mu2)):
                            mismatches += 1
                            print(f"MISMATCH principal ({lam},{mu}) "
                                  f"p={p} vs ({lam2},{mu2}): {got}")
    print(f"# principal decider: {combos} combinations, "
          f"{mismatches} mismatch(es)")

    tuples = [(a, b, c) for a in pool for b in pool for c in pool][:6]
    combos3 = mismatches3 = 0
    for w1 in tuples:
        for w2 in tuples:
            combos3 += 1
            got = polydisc_rigidity_report(w1, (1,), w2).equivalent
            if got != (w1 == w2):
                mismatches3 += 1
                print(f"MISMATCH polydisc {w1} vs {w2}: {got}")
    print(f"# polydisc decider: {combos3} combinations, "
          f"{mismatches3} mismatch(es)")
    return 1 if (mismatches or mismatches3) else 0


if __name__ == "__main__":
    sys.exit(main())
