"""Localization dimensions of the catalogued ideal <z1 z2, z1 - z2> and of
principal power ideals at points on and off their zero varieties."""

import argparse
import sys
from fractions import Fraction

from submodcurv import IdealSpec, localization_dim


def _fmt_point(pt):
    return "(" + ", ".join(str(x) for x in pt) + ")"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-degree", type=int, default=8,
                    help="degree cap for the defect sweep (default %(default)s)")
    args = ap.parse_args(argv)

    ideal = IdealSpec.catalogued("product_difference", 2)
    pts = [(Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(1, 3)),
           (Fraction(1, 2), Fraction(1, 2)), (Fraction(-1, 4), Fraction(-1, 4)),
           (Fraction(1, 5), Fraction(2, 5))]
    print("ideal <z1 z2, z1 - z2>")
    for pt in pts:
        res = localization_dim(ideal, pt, args.max_degree)
        print(f"  {_fmt_point(pt):>14}  on V(I) {ideal.vanishes_at(pt)!s:<5}  "
              f"dim {res.dim}  "
              f"stabilized at N={res.stabilized_at}  "
              f"defects {res.dims_by_degree}")

    for p in (1, 2, 3):
        ideal = IdealSpec.monomial(2, [(p, 0)])
        print(f"ideal <z1^{p}>")
        for pt in [(Fraction(0), Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 5))]:
            res = localization_dim(ideal, pt, args.max_degree)
            print(f"  {_fmt_point(pt):>14}  "
                  f"on V(I) {ideal.vanishes_at(pt)!s:<5}  dim {res.dim}  "
                  f"stabilized at N={res.stabilized_at}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
