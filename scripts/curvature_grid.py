"""Tabulate det-bundle curvature of the full coordinate ideal on the bidisc
over a grid of weight pairs and check it against the closed form.

Each pair is computed twice: by the metric route (the Grammian, then
det_bundle_curvature) and as the trace of curvature_tensor, which reads the
frame spec alone; a pair agrees when both equal the lambda-mu closed form."""

import argparse
import sys
import time
from fractions import Fraction

from submodcurv import (WeightedPolydiscModule, curvature_tensor,
                        decompose_coordinate_ideal, det_bundle_curvature,
                        grammian, lambda_mu_invariants)

DEFAULT_GRID = "1/2,1,3/2,2,3"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", default=DEFAULT_GRID,
                    help="comma-separated rational weights (default %(default)s)")
    ap.add_argument("--trunc", type=int, default=6,
                    help="series truncation degree (default %(default)s)")
    args = ap.parse_args(argv)

    grid = [Fraction(x) for x in args.grid.split(",")]
    print(f"{'lambda':>8} {'mu':>8} {'kappa1':>12} {'kappa2':>12}  closed form")
    start = time.monotonic()
    bad = 0
    for lam in grid:
        for mu in grid:
            mod = WeightedPolydiscModule(2, (lam, mu))
            frame = decompose_coordinate_ideal(mod, args.trunc)
            K = det_bundle_curvature(grammian(frame))
            want = lambda_mu_invariants(lam, mu).as_pair()
            ok = ((K[0][0], K[1][1]) == want
                  and curvature_tensor(frame).trace_matrix() == K)
            bad += not ok
            print(f"{str(lam):>8} {str(mu):>8} {str(K[0][0]):>12} "
                  f"{str(K[1][1]):>12}  {'agree' if ok else 'DISAGREE'}")
    elapsed = time.monotonic() - start
    print(f"# {len(grid) ** 2} pairs in {elapsed:.2f}s, "
          f"{bad} disagreement(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
